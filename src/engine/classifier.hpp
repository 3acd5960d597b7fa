// Compiled packet classifier.
//
// FDDs are not only an analysis vehicle — they are an efficient execution
// form for the very firewalls they model (the paper's FDD lineage, ref
// [10], introduced them for specification *and* lookup). This module
// compiles a policy's reduced FDD into one of several flat, cache-friendly
// layouts (engine/backend.hpp): the default flat-slab form and a
// prefix-trie form for IPv4-heavy policies. Both backends produce
// byte-identical decisions; the choice is a pure performance knob
// (docs/classifier.md compares the cost models).
//
// The classifier is the deployment-side counterpart of the comparison
// pipeline: resolve the teams' discrepancies, compile the agreed policy
// once, and classify packets at line rate. classify_batch shards a packet
// batch across an Executor's workers; lookups are independent and the
// result vector is indexed by input position, so batch output is
// identical to a serial classify loop. classify_into is the
// allocation-free variant for callers that recycle an output buffer.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/backend.hpp"
#include "fdd/fdd.hpp"
#include "fw/policy.hpp"
#include "rt/run_options.hpp"

namespace dfw {

/// Compile- and batch-execution options, in the same options-struct idiom
/// as ConstructOptions/CompareOptions.
struct CompileOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.executor` is the
  /// default executor for classify_batch calls on this classifier —
  /// borrowed, not owned, must outlive the classifier; null means serial
  /// (Executor::inline_executor()). Compiling from a Policy threads
  /// `run.context`/`run.obs` through the internal build_reduced_fdd, so
  /// compilation is governed and observable like every other pipeline.
  RunOptions run = {};

  /// Packets per pool task in classify_batch; tune upward for tiny
  /// per-packet cost, downward for very skewed batches.
  std::size_t batch_grain = 512;

  /// Which compiled layout to execute (engine/backend.hpp). The default
  /// is the historical flat-slab form; both backends are byte-identical in
  /// output.
  ClassifierBackendKind backend = ClassifierBackendKind::kFlatSlab;
};

/// An immutable compiled classifier. Copyable; a shared handle to an
/// immutable backend plus the compile options.
class Classifier {
 public:
  /// Compiles a comprehensive policy (via its reduced FDD, governed and
  /// observed through `options.run`).
  static Classifier compile(const Policy& policy,
                            const CompileOptions& options = {});

  /// Compiles an already-built complete FDD.
  static Classifier compile(const Fdd& fdd,
                            const CompileOptions& options = {});

  /// The decision for packet p. O(sum over path fields of log(edges)).
  Decision classify(const Packet& p) const;

  /// Decisions for a whole batch, indexed like `packets`, sharded over
  /// the compile-time executor (serial when none was given).
  std::vector<Decision> classify_batch(std::span<const Packet> packets) const;
  /// Same, under per-call execution knobs: `run.executor` overrides the
  /// compile-time executor (null falls back to it), and lookups take no
  /// locks — the hot path reads only immutable tables, so concurrent
  /// batches on one classifier are safe.
  std::vector<Decision> classify_batch(std::span<const Packet> packets,
                                       const RunOptions& run) const;

  /// Allocation-free batch: writes decisions into `out`, which must have
  /// exactly packets.size() elements (throws std::invalid_argument
  /// otherwise). Output is byte-identical to classify_batch.
  void classify_into(std::span<const Packet> packets,
                     std::span<Decision> out) const;
  void classify_into(std::span<const Packet> packets, std::span<Decision> out,
                     const RunOptions& run) const;

  /// The layout this classifier executes.
  ClassifierBackendKind backend() const { return backend_->kind(); }

  /// Compiled interior nodes (backend-specific gauge; see backend.hpp).
  std::size_t node_count() const { return backend_->node_count(); }
  /// Slab/table entries across all nodes (backend-specific gauge).
  std::size_t slab_count() const { return backend_->slab_count(); }

 private:
  Classifier() = default;

  void run_batch(std::span<const Packet> packets, std::span<Decision> out,
                 const RunOptions& run) const;

  std::shared_ptr<const ClassifierBackend> backend_;
  std::size_t field_count_ = 0;
  CompileOptions options_{};
};

}  // namespace dfw
