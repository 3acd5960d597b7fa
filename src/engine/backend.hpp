// The compiled-classifier backend interface.
//
// One reduced FDD admits several execution layouts, each with a different
// lookup cost model: the flat-slab form (d branchless binary searches over
// contiguous slabs), a prefix-trie form (multi-bit stride tables for IPv4
// fields, in the spirit of LPM forwarding tables, reusing net/prefix.*'s
// geometry). The Classifier facade (engine/classifier.hpp) compiles a
// policy into one of these backends, selected by CompileOptions::backend;
// every backend is required to produce byte-identical decisions — the
// cross-backend equivalence harness in tests/classifier_backend_test.cpp
// is the gate.
//
// Backends are immutable after compilation and internally pointer-free
// (index-linked flat vectors), so lookups take no locks and a compiled
// backend can be shared across threads freely — the property the serve
// plane's epoch-published versions rely on.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "fw/decision.hpp"
#include "fw/packet.hpp"

namespace dfw {

class Fdd;

/// The compiled layouts a Classifier can execute.
enum class ClassifierBackendKind {
  kFlatSlab,    ///< sorted (upper, next) slabs, branchless binary search
  kPrefixTrie,  ///< stride-8 trie tables on IPv4 fields, slabs elsewhere
};

/// Stable lowercase name ("flat_slab", "prefix_trie") —
/// the spelling of dfw_serve's --backend flag and the serve.backend.*
/// metric suffixes.
const char* to_string(ClassifierBackendKind kind);

/// Inverse of to_string; nullopt on an unknown name.
std::optional<ClassifierBackendKind> parse_backend_kind(std::string_view name);

/// The "classifier.compile.<backend>" phase-span literal for a kind (the
/// obs layer requires static-lifetime names; see obs/names.hpp).
const char* compile_phase_name(ClassifierBackendKind kind);

/// The "serve.backend.<backend>" counter literal for a kind.
const char* serve_backend_counter_name(ClassifierBackendKind kind);

/// One compiled execution form of a complete FDD. Implementations are
/// immutable and safe to share across threads.
class ClassifierBackend {
 public:
  virtual ~ClassifierBackend() = default;

  virtual ClassifierBackendKind kind() const = 0;

  /// The decision for one packet, given as `field_count` values in schema
  /// order. Arity and domain conformance are the caller's contract (the
  /// Classifier facade checks arity).
  virtual Decision classify_one(const Value* packet) const = 0;

  /// Compiled interior nodes — a backend-specific size gauge, not a
  /// shared unit.
  virtual std::size_t node_count() const = 0;
  /// Slab entries, or trie+slab entries.
  virtual std::size_t slab_count() const = 0;
};

/// Per-backend compile factories. Each validates completeness via the
/// facade's prior fdd.validate() contract and never keeps a reference to
/// the FDD. A capacity breach is a structured failure, not a raw
/// exception: the slab layout throws
/// dfw::Error(ErrorCode::kCapacityExceeded) past its 31-bit node index
/// space, so callers can catch the code (the serve plane fails the swap
/// and keeps its last-good version).
std::shared_ptr<const ClassifierBackend> compile_flat_slab_backend(
    const Fdd& fdd);
std::shared_ptr<const ClassifierBackend> compile_prefix_trie_backend(
    const Fdd& fdd);

/// Dispatches on `kind` to the factories above.
std::shared_ptr<const ClassifierBackend> compile_backend(
    ClassifierBackendKind kind, const Fdd& fdd);

}  // namespace dfw
