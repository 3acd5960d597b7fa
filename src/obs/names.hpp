// Stable dotted metric names for the serve layer.
//
// The registry accepts arbitrary names, which invites drift between the
// code that records a metric and the tools/tests that assert on it (the
// CI serve-smoke job greps a snapshot for serve.swap.count). Naming the
// strings once here keeps recorder and consumer in lockstep; the
// convention matches the rest of the registry: subsystem-dotted, _ns
// suffix for nanosecond histograms (docs/observability.md).

#pragma once

namespace dfw::names {

/// Successful classifier publications (excludes the initial compile).
inline constexpr const char* kServeSwapCount = "serve.swap.count";
/// Swap requests refused by the compile governance (budget/deadline).
inline constexpr const char* kServeSwapRejected = "serve.swap.rejected";
/// Governed compile duration per accepted or rejected swap.
inline constexpr const char* kServeSwapCompileNs = "serve.swap.compile_ns";
/// Retry attempts taken inside self-healing swaps (transient failures:
/// injected faults, deadline breaches, allocation failure).
inline constexpr const char* kServeSwapRetries = "serve.swap.retries";
/// Swaps that failed permanently: retries exhausted, or a non-transient
/// error (the served version is untouched — last-good guarantee).
inline constexpr const char* kServeSwapFailed = "serve.swap.failed";
/// High-water mark of the limbo list (a gauge: reported through
/// ServeStats::limbo_peak and the health JSON, not the counter registry).
inline constexpr const char* kServeLimboPeak = "serve.limbo.peak";
/// Snapshot files written after successful boots/swaps.
inline constexpr const char* kServeSnapshotSave = "serve.snapshot.save.count";
/// Snapshots decoded and restored at boot.
inline constexpr const char* kServeSnapshotLoad = "serve.snapshot.load.count";
/// Versions moved to the limbo list (one per successful swap).
inline constexpr const char* kServeRetireCount = "serve.retire.count";
/// Retired versions actually freed after draining.
inline constexpr const char* kServeReclaimCount = "serve.reclaim.count";
/// Batches admitted and classified.
inline constexpr const char* kServeBatchCount = "serve.batch.count";
/// Batches refused by admission control (kOverloaded).
inline constexpr const char* kServeBatchRejected = "serve.batch.rejected";
/// End-to-end duration per admitted batch — the canonical data-plane
/// latency histogram (pin + classify + record). The executor-level
/// rt.executor.chunk_ns histogram is deliberately distinct: it times each
/// pool *chunk* inside a batch, so under a pool executor one batch fans
/// into many chunk samples (and under the inline executor the two series
/// coincide at count parity). Do not re-derive batch latency from it.
inline constexpr const char* kServeBatchNs = "serve.batch.ns";
/// Individual packet lookups across all admitted batches.
inline constexpr const char* kServeLookupCount = "serve.lookup.count";
/// Versions compiled with each classifier backend (one counter bumps per
/// successful compile_version, keyed by ServeOptions::backend).
inline constexpr const char* kServeBackendFlatSlab = "serve.backend.flat_slab";
inline constexpr const char* kServeBackendPrefixTrie =
    "serve.backend.prefix_trie";

/// Telemetry ticks taken by the serve reporter thread (one per interval
/// elapse while the core is up; on-demand telemetry_now() calls do not
/// bump it).
inline constexpr const char* kServeTelemetryTicks =
    "serve.telemetry.tick.count";

/// Trace-span names of the serve planes. serve.batch is a *span only*:
/// its duration histogram is the canonical kServeBatchNs above, recorded
/// once per batch (the span used to double-record as phase.serve.batch_ns
/// — deduplicated, see docs/observability.md). serve.swap keeps the
/// PhaseSpan pairing: phase.serve.swap_ns times the whole self-healing
/// loop (retries and backoff included) while kServeSwapCompileNs times
/// each individual compile attempt.
inline constexpr const char* kSpanServeBatch = "serve.batch";
inline constexpr const char* kSpanServeSwap = "serve.swap";

/// Fault-plane counters (rt/fault.hpp): per armed site as
/// rt.fault.site.<site>.hits / .fires, plus the totals below. Registered
/// by absorb(registry, plan) — once per window — or overlaid point-in-time
/// onto telemetry snapshots by overlay(snapshot, plan); a null or unarmed
/// plan registers nothing, preserving byte-identity.
inline constexpr const char* kFaultSitePrefix = "rt.fault.site.";
inline constexpr const char* kFaultTotalHits = "rt.fault.total_hits";
inline constexpr const char* kFaultTotalFires = "rt.fault.total_fires";

/// Simplify pass (src/simplify/): rules removed across all transforms
/// (dead elimination + merges + subsumption) per simplify_policy call.
inline constexpr const char* kSimplifyRulesRemoved =
    "simplify.rules_removed";
/// Equivalence proofs that ended kProven.
inline constexpr const char* kSimplifyProven = "simplify.proof.proven";
/// Simplify runs cut short by governance (original policy returned).
inline constexpr const char* kSimplifyAborted = "simplify.aborted";

/// Fleet driver (src/fleet/): devices attempted (every manifest entry).
inline constexpr const char* kFleetDevices = "fleet.device.count";
/// Devices that finished with a partial (governed) result.
inline constexpr const char* kFleetDevicePartial = "fleet.device.partial";
/// Devices skipped outright because the shared context was already
/// aborted when their task started.
inline constexpr const char* kFleetDeviceSkipped = "fleet.device.skipped";
/// Devices whose config failed to parse.
inline constexpr const char* kFleetParseErrors = "fleet.device.parse_error";
/// Lint findings across all devices, before fingerprint deduplication.
inline constexpr const char* kFleetFindings = "fleet.finding.count";
/// Distinct lint fingerprints across the fleet (the deduplicated count).
inline constexpr const char* kFleetFindingsDistinct =
    "fleet.finding.distinct";
/// Cross-device behavioural divergences recorded by the compare stage.
inline constexpr const char* kFleetDivergences = "fleet.divergence.count";

/// Fleet phase-span names (PhaseSpan requires static string literals):
/// fleet.devices wraps the sharded per-device fan-out, fleet.compare the
/// cross-device comparison stage, fleet.render the report emission.
inline constexpr const char* kSpanFleetDevices = "fleet.devices";
inline constexpr const char* kSpanFleetCompare = "fleet.compare";
inline constexpr const char* kSpanFleetRender = "fleet.render";

/// Per-backend classifier compile phases (phase.<name>_ns histograms via
/// PhaseSpan, which requires these to be static string literals).
inline constexpr const char* kClassifierCompileFlatSlab =
    "classifier.compile.flat_slab";
inline constexpr const char* kClassifierCompilePrefixTrie =
    "classifier.compile.prefix_trie";
/// Packet lookups through Classifier::classify* (recorded per batch).
inline constexpr const char* kClassifierLookupCount =
    "engine.classifier.lookup.count";
/// classify_batch / classify_into invocations.
inline constexpr const char* kClassifierBatchCount =
    "engine.classifier.batch.count";
/// End-to-end duration per batch call.
inline constexpr const char* kClassifierBatchNs =
    "engine.classifier.batch_ns";

}  // namespace dfw::names
