// Fleet-scale static analysis: simplification effectiveness and sharded
// audit throughput over synthetic fleets (synth::make_fleet — shared
// object groups, per-site perturbation, salted duplicate/split
// redundancy).
//
// Three series:
//   audit_serial  wall time of the whole serial run_fleet with library
//                 defaults (parse -> proven simplify -> every lint pass,
//                 redundancy included), carrying the per-fleet rule
//                 reduction: total rules before/after simplify,
//                 per-transform counts, proof status tally — the
//                 paper-style effectiveness table
//   audit_cli     the same serial run with the dfw-fleet CLI defaults
//                 (lint pass `redundancy` off), as operators run it
//   audit         the library-default run_fleet at 1/2/8 executor
//                 threads over the same fleet, with the byte-determinism
//                 of the aggregate SARIF/JSON reports checked across
//                 thread counts (the determinism contract at the
//                 acceptance scale of 100 devices)
//
// Every record is the median of five trials (a fresh registry each), since
// one shot of a few tens of milliseconds is too noisy to compare. CI gates
// only the serial records. Writes BENCH_fleet.json (dfw-bench-obs-v1).
// --quick trims the site sweep but keeps per-site geometry identical, so
// quick records compare against the committed baseline under dfw_bench_diff
// --key-params=sites,threads (CI gates audit_serial and audit_cli with
// --select=audit_ --key-params=sites).

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet.hpp"
#include "fw/format.hpp"
#include "obs/metrics.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"

namespace dfw {
namespace {

constexpr std::size_t kRulesPerSite = 60;
constexpr std::uint64_t kSeed = 20260808;

std::vector<fleet::FleetSource> render_fleet(std::size_t sites) {
  FleetSynthConfig config;
  config.sites = sites;
  config.base.num_rules = kRulesPerSite;
  config.seed = kSeed;
  const std::vector<Policy> policies = make_fleet(config);
  std::vector<fleet::FleetSource> sources;
  sources.reserve(policies.size());
  char name[32];
  for (std::size_t i = 0; i < policies.size(); ++i) {
    std::snprintf(name, sizeof name, "site%04zu.fw", i);
    fleet::FleetSource source;
    source.item.format = fleet::DeviceFormat::kNative;
    source.item.path = name;
    source.item.name = name;
    source.text = format_policy(policies[i], default_decisions());
    sources.push_back(std::move(source));
  }
  return sources;
}

struct FleetTotals {
  std::uint64_t rules_before = 0;
  std::uint64_t rules_after = 0;
  std::uint64_t proven = 0;
  std::uint64_t dead = 0;
  std::uint64_t merged = 0;
  std::uint64_t findings = 0;
  std::uint64_t distinct = 0;
};

FleetTotals totals_of(const fleet::FleetReport& report) {
  FleetTotals t;
  for (const fleet::DeviceReport& dev : report.devices) {
    t.rules_before += dev.simplify.rules_before;
    t.rules_after += dev.simplify.rules_after;
    t.proven += dev.simplify.proof == ProofStatus::kProven ? 1 : 0;
    t.dead += dev.simplify.stats.dead_eliminated;
    t.merged += dev.simplify.stats.adjacent_merged +
                dev.simplify.stats.run_merged;
  }
  t.findings = report.findings_total;
  t.distinct = report.findings_distinct;
  return t;
}

struct Trial {
  std::uint64_t ns = 0;
  MetricsSnapshot metrics;
  fleet::FleetReport report;
};

// Runs the audit once untimed, to warm the executor's threads, the
// allocator and the caches, then five timed times on `executor` (null =
// serial), each with a fresh registry, and returns the median trial by
// wall time.
Trial median_audit(const std::vector<fleet::FleetSource>& sources,
                   fleet::FleetOptions options, Executor* executor = nullptr) {
  constexpr int kTrials = 5;
  std::vector<Trial> trials(kTrials);
  options.run.executor = executor;
  (void)run_fleet(sources, options);
  for (Trial& trial : trials) {
    MetricsRegistry registry;
    options.run.obs.metrics = &registry;
    trial.ns =
        bench::time_ns([&] { trial.report = run_fleet(sources, options); });
    trial.metrics = registry.snapshot();
  }
  std::sort(trials.begin(), trials.end(),
            [](const Trial& a, const Trial& b) { return a.ns < b.ns; });
  return std::move(trials[kTrials / 2]);
}

}  // namespace
}  // namespace dfw

int main(int argc, char** argv) {
  using namespace dfw;
  const std::optional<bool> quick = bench::parse_quick_flag(argc, argv);
  if (!quick.has_value()) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  const std::vector<std::size_t> site_sweep =
      *quick ? std::vector<std::size_t>{10, 25}
             : std::vector<std::size_t>{10, 50, 100};

  bench::ObsReport report("bench_fleet");
  std::printf("%8s %12s %11s %9s %8s %8s %10s\n", "sites", "rules_before",
              "rules_after", "reduction", "proven", "dead", "merged");

  for (const std::size_t sites : site_sweep) {
    const std::vector<fleet::FleetSource> sources = render_fleet(sites);

    // --- serial audit + simplify effectiveness (the canonical report) ---
    const Trial serial_trial = median_audit(sources, {});
    const fleet::FleetReport& serial = serial_trial.report;
    const FleetTotals t = totals_of(serial);
    if (t.rules_after >= t.rules_before) {
      std::fprintf(stderr,
                   "bench_fleet: no measurable reduction at %zu sites\n",
                   sites);
      return 1;
    }
    const double reduction =
        100.0 * static_cast<double>(t.rules_before - t.rules_after) /
        static_cast<double>(t.rules_before);
    std::printf("%8zu %12llu %11llu %8.1f%% %8llu %8llu %10llu\n", sites,
                static_cast<unsigned long long>(t.rules_before),
                static_cast<unsigned long long>(t.rules_after), reduction,
                static_cast<unsigned long long>(t.proven),
                static_cast<unsigned long long>(t.dead),
                static_cast<unsigned long long>(t.merged));
    report.add("audit_serial",
               {{"sites", sites},
                {"rules_before", t.rules_before},
                {"rules_after", t.rules_after},
                {"proofs_proven", t.proven},
                {"dead_eliminated", t.dead},
                {"merged", t.merged},
                {"findings", t.findings},
                {"findings_distinct", t.distinct}},
               serial_trial.ns, serial_trial.metrics);

    // --- serial audit with the CLI's pass selection ---
    fleet::FleetOptions cli_options;
    cli_options.lint.disabled = {"redundancy"};
    const Trial cli_trial = median_audit(sources, cli_options);
    report.add("audit_cli",
               {{"sites", sites},
                {"findings", cli_trial.report.findings_total},
                {"findings_distinct", cli_trial.report.findings_distinct}},
               cli_trial.ns, cli_trial.metrics);

    // --- sharded audit + determinism across thread counts ---
    const std::string sarif = render_fleet_sarif(serial);
    const std::string json = render_fleet_json(serial);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      Executor executor(threads);
      const Trial sharded = median_audit(sources, {}, &executor);
      if (render_fleet_sarif(sharded.report) != sarif ||
          render_fleet_json(sharded.report) != json) {
        std::fprintf(stderr,
                     "bench_fleet: report not deterministic at %zu sites, "
                     "%zu threads\n",
                     sites, threads);
        return 1;
      }
      report.add("audit",
                 {{"sites", sites},
                  {"threads", threads},
                  {"deterministic", 1}},
                 sharded.ns, sharded.metrics);
    }
  }

  std::printf("\naggregate SARIF byte-deterministic at 1/2/8 threads for "
              "every fleet size\n");
  return report.write("BENCH_fleet.json") ? 0 : 1;
}
