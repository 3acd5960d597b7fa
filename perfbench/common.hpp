// Shared plumbing of the end-to-end benchmark: run arguments, the result
// record every workload fills, sample statistics, and the span table that
// turns a Tracer's events into per-layer self time.
//
// The benchmark only calls the library's public entry points. Its own
// spans (named "<layer>.<call>") wrap those calls from outside; the
// library's existing spans nest inside them when a Tracer is attached
// through RunOptions.obs. No span is added inside the library.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time this process has used so far, in ms. The metrics' unit and
/// set-up times are CPU time rather than wall time: on a KVM guest with
/// steal-time accounting it leaves out the time the host gave this vCPU
/// to other work. The batch workloads run serially, so on an idle host
/// the two agree.
double cpu_ms();

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test sizes: every workload shrunk to a fraction of a second.
  bool tiny = false;
  /// Self-test of the output checks: one output is deliberately corrupted
  /// before it is checked, so the run must report a failure.
  bool corrupt = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `end_to_end` is filled by untraced runs and
/// `per_layer` by traced runs; `notes` are human-readable lines printed
/// before the final JSON line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  /// Counts one checked operation; a false `ok` is a failure and its
  /// description is kept as a note.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Deterministic 64-bit mix of a run seed and a stream index, so every
/// input of a run derives from --seed alone.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values);

/// Work per second over all the units: `work_per_unit` times the number
/// of units, divided by their summed time (0 when no time was measured).
double mean_rate(const std::vector<double>& unit_ms, double work_per_unit);

/// The host's current speed, read from a fixed reference kernel that
/// does not use the library: lookups in an ordered map of 20000 strings
/// and a sort of 50000 words, string compares and pointer chasing as in
/// the workloads, with nothing allocated while it is timed. On a shared
/// host the same code runs up to 1.5x slower in some minutes than in
/// others, from contention in caches and memory that no process inside
/// the guest can see; the reference kernel slows with it. Samples are
/// taken between measured units, never inside one.
class HostReference {
 public:
  /// The reference kernel's CPU time on the host the bounds were set on.
  static constexpr double kNominalMs = 10;

  /// Runs the kernel once and keeps its CPU time.
  void sample();
  /// Samples once every 250 ms of measured time: call with the time
  /// measured so far.
  void sample_every(double measured_ms);
  double median_ms() const { return median(samples_ms_); }
  /// How much slower than nominal the host ran while sampled (> 1 when
  /// slower). A host-adjusted time is the measured time divided by it, a
  /// host-adjusted rate the measured rate multiplied by it.
  double slowdown() const;
  std::size_t samples() const { return samples_ms_.size(); }

 private:
  std::vector<double> samples_ms_;
  double next_ms_ = 0;
};

/// Fills the end-to-end metrics of an untraced run from the measured
/// set-up time, host-adjusted by `setup_reference` (sampled between the
/// set-up repeats), and the measured rate and median latency, adjusted by
/// `reference` (sampled between the measured units); notes the measured
/// values beside them.
void report_end_to_end(const HostReference& setup_reference, double setup_s,
                       const HostReference& reference, double rate_per_s,
                       double latency_ms, Outcome& out);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// FNV-1a-64 of a byte string (output digests for cross-run comparison).
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);

std::string hex64(std::uint64_t v);

/// Per-layer attribution of a set of traced spans.
///
/// Every span is assigned to a layer: the benchmark's own spans and the
/// library's "<subsystem>.<name>" spans by their prefix, the library's
/// plain phase names by a fixed table, and anything else (e.g. the
/// dead_rules scan, which both simplify and lint call) to its parent's
/// layer. A span's self time is its duration minus its children's.
class SpanTable {
 public:
  /// Adds every event the tracer holds that began at or after `since_ns`
  /// (tracer time). Returns the events it lost to ring wrap-around (0 when
  /// the table is complete).
  std::uint64_t add(const dfw::Tracer& tracer, std::uint64_t since_ns = 0);

  /// Summed duration of spans named `name` (outermost only, so a span
  /// nested in a same-named span is not counted twice), optionally only
  /// those with an ancestor named `under`.
  double total_ms(std::string_view name, std::string_view under = {}) const;
  /// Number of spans `total_ms` counts.
  std::size_t count(std::string_view name, std::string_view under = {}) const;

  /// Self time per layer, in ms.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Summed duration of top-level spans: the part of the traced wall
  /// time some span accounts for.
  double covered_ms() const;

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  struct Span {
    std::string name;
    std::string layer;
    std::size_t parent = kNoParent;
    double dur_ms = 0;
    double self_ms = 0;
  };
  bool has_ancestor(const Span& s, std::string_view name) const;
  bool counts(const Span& s, std::string_view name,
              std::string_view under) const;

  std::vector<Span> spans_;
};

/// Appends the self-time table (per unit of work) to `out` as notes and
/// the per-layer share and coverage metrics to its per_layer list.
/// `wall_ms` is the traced wall time the spans are measured against.
void report_self_time(const SpanTable& table, double wall_ms,
                      double units, const std::string& unit_name,
                      Outcome& out);

/// Unit times and, for traced units, the spans and metrics they left.
struct UnitTimes {
  std::vector<double> untraced_ms;
  std::vector<double> untraced_cpu_ms;  ///< the same units in CPU time
  HostReference reference;              ///< sampled between units
  std::vector<double> traced_ms;
  dfw::MetricsRegistry registry;
  SpanTable spans;
  std::uint64_t dropped = 0;  ///< trace events lost to ring wrap-around

  /// Traced against untraced time of the same work, in percent.
  double trace_overhead_pct() const {
    const double untraced = sum(untraced_ms);
    return 100.0 * (sum(traced_ms) / (untraced > 0 ? untraced : 1) - 1);
  }
};

/// The measured loop of the batch workloads. Times `work(k, obs)` over
/// the pool entries k = 0, 1, 2, ... in turn until args.seconds of
/// measured time have passed and at least `min_units` units ran, then
/// hands each result to `check(k, traced, result)`, untimed. Traced runs run
/// every entry twice, untraced and then traced (a fresh Tracer and the
/// shared registry in `obs`), so the tracing overhead compares like with
/// like. A unit that throws counts as a failed check.
template <typename Work, typename Check>
void time_units(const Args& args, std::size_t pool, std::size_t min_units,
                UnitTimes& times, Outcome& out, Work work, Check check) {
  double spent = 0;
  for (std::size_t i = 0;; ++i) {
    times.reference.sample_every(1000.0 * spent);
    const std::size_t units = args.trace ? i / 2 : i;
    if (spent >= args.seconds && units >= std::min(min_units, pool) &&
        (!args.trace || i % 2 == 0)) {
      return;
    }
    const bool traced = args.trace && i % 2 == 1;
    std::optional<dfw::Tracer> tracer;
    dfw::ObsOptions obs;
    if (traced) {
      obs.tracer = &tracer.emplace();
      obs.metrics = &times.registry;
    }
    using Result = decltype(work(std::size_t{0}, obs));
    std::optional<Result> result;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_ms();
    try {
      result.emplace(work(units % pool, obs));
    } catch (const std::exception& e) {
      out.check(false, std::string("unit threw: ") + e.what());
    }
    const double cpu = cpu_ms() - cpu0;
    const double ms = 1000.0 * seconds_between(t0, Clock::now());
    spent += ms / 1000.0;
    if (!result) {
      continue;
    }
    if (traced) {
      times.traced_ms.push_back(ms);
      times.dropped += times.spans.add(*tracer);
    } else {
      times.untraced_ms.push_back(ms);
      times.untraced_cpu_ms.push_back(cpu);
    }
    check(units % pool, traced, *result);
  }
}

// The workloads (one source file each). Each derives its inputs from
// args.seed, measures for args.seconds, checks every output it measures,
// and fills `out`: end-to-end metrics untraced, per-layer metrics traced.
void run_design(const Args& args, Outcome& out);
void run_fleet_audit(const Args& args, Outcome& out);
void run_fleet_redundancy(const Args& args, Outcome& out);
void run_serve(const Args& args, Outcome& out);

}  // namespace perfbench
