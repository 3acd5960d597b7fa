// The shared execution-environment knobs of every pipeline entry point.
//
// Before this header each options struct of the library — construction,
// comparison, generation, classification, anomaly scan, lint — carried its
// own copy of the same three fields: the borrowed Executor that decides
// where parallel work runs, the borrowed RunContext that governs it, and
// the borrowed ObsOptions sinks that observe it. Seven structs accreted
// seven slightly different field orders and seven places to forget one.
// RunOptions consolidates the triple; the per-pipeline options structs
// embed it by composition as a `run` member and keep only their genuinely
// pipeline-specific knobs (grain sizes, arena toggles, pass selections).
//
// All three members follow the library's borrowing rule: nullable, never
// owned, and null means "off" — a null executor runs serially on the
// calling thread, a null context runs ungoverned, null sinks leave every
// output byte-identical. A default-constructed RunOptions is therefore
// exactly the pre-options behaviour.
//
// The old per-struct field names survived one release as deprecated
// reference aliases into `run` and are gone (see DESIGN.md's migration
// notes); code writes `options.run.executor` and friends.

#pragma once

#include "obs/obs.hpp"

namespace dfw {

class Executor;
class RunContext;
class FaultPlan;

/// The shared quadruple: where work runs, what governs it, who observes
/// it, and what failures are injected into it. Copyable pointer-value;
/// embed by value as `run` in an options struct and pass around freely.
struct RunOptions {
  /// Borrowed executor for the parallelizable stages; null = serial
  /// (Executor::inline_executor()). Results are identical for every
  /// executor — parallelism only reorders work, never output.
  Executor* executor = nullptr;
  /// Borrowed governance context (cancellation, deadline, budgets); null =
  /// ungoverned and byte-identical to pre-governance builds.
  RunContext* context = nullptr;
  /// Borrowed observability sinks (tracer + metrics registry); null sinks
  /// are free and leave outputs byte-identical.
  ObsOptions obs = {};
  /// Borrowed deterministic fault schedule (rt/fault.hpp); null injects
  /// nothing, costs one pointer test per site, and is byte-identical to a
  /// build without the fault plane.
  FaultPlan* faults = nullptr;
};

}  // namespace dfw
