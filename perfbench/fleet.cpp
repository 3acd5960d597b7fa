// Workloads `fleet_audit` and `fleet_redundancy`: run_fleet over
// synthetic fleets (synth::make_fleet) of native-format sites, serially,
// then the aggregate SARIF and JSON reports.
//
// fleet_audit uses the dfw-fleet CLI defaults (lint pass `redundancy`
// disabled, no cross-device comparison): what operators run. fw parse,
// simplify and the other lint passes do the work. fleet_redundancy keeps
// the library-default pass list, so the redundancy pass's per-rule
// rebuild dominates: the same layers used differently, and the workload a
// change to the redundancy pass must win on without costing fleet_audit.
//
// The cost of a fleet depends heavily on the base policy its sites derive
// from (coefficient of variation about 0.35 per fleet with the redundancy
// pass off, 0.5 with it on), so a run audits many small fleets with
// distinct bases rather than one large one. Set-up generates and renders
// the pool of fleets from the seed; the timed loop audits them in turn,
// each pass over one fleet one latency sample.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "fw/decision.hpp"
#include "fw/format.hpp"
#include "fw/parser.hpp"
#include "fw/schema.hpp"
#include "lint/sarif.hpp"
#include "obs/metrics.hpp"
#include "synth/synth.hpp"

namespace perfbench {
namespace {

using namespace dfw;

struct Sizes {
  std::size_t fleets;  // distinct fleets in the pool
  std::size_t sites;   // per fleet
  std::size_t rules;   // per site's base policy
};

constexpr Sizes kFull{512, 5, 20};
constexpr Sizes kTiny{2, 3, 20};
constexpr int kSetupRepeats = 15;
// Fleets the SARIF digest covers; every run measures at least these.
constexpr std::size_t kDigestFleets = 16;

using Fleet = std::vector<fleet::FleetSource>;

Fleet make_sources(std::uint64_t seed, const Sizes& sizes) {
  FleetSynthConfig config;
  config.sites = sizes.sites;
  config.base.num_rules = sizes.rules;
  config.seed = seed;
  const std::vector<Policy> policies = make_fleet(config);
  std::vector<fleet::FleetSource> sources;
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

struct Pass {
  fleet::FleetReport report;
  std::string sarif;
  std::string json;
};

Pass audit(const Fleet& sources,
           const fleet::FleetOptions& base, const ObsOptions& obs) {
  fleet::FleetOptions options = base;
  options.run.obs = obs;
  Pass pass;
  {
    ScopedSpan span(obs.tracer, "fleet.run_fleet");
    pass.report = fleet::run_fleet(sources, options);
  }
  ScopedSpan span(obs.tracer, "fleet.render");
  pass.sarif = fleet::render_fleet_sarif(pass.report);
  pass.json = fleet::render_fleet_json(pass.report);
  return pass;
}

void run_fleet_workload(const char* name, bool redundancy, const Args& args,
                        Outcome& out) {
  const Sizes& sizes = args.tiny ? kTiny : kFull;

  HostReference setup_reference;
  std::vector<double> setup_s;
  std::vector<Fleet> pool;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup_reference.sample();
    const double t0 = cpu_ms();
    pool.clear();
    for (std::size_t f = 0; f < sizes.fleets; ++f) {
      pool.push_back(make_sources(mix_seed(args.seed, f), sizes));
    }
    setup_s.push_back((cpu_ms() - t0) / 1000.0);
  }

  fleet::FleetOptions options;
  if (!redundancy) {
    options.lint.disabled = {"redundancy"};
  }

  // Output checks: every device analysed with a proven simplification;
  // a fleet's first SARIF log passes the in-repo validator and every
  // later pass over that fleet reproduces it byte for byte (compared by
  // digest, so memory does not grow with the passes a run makes).
  std::vector<std::optional<std::uint64_t>> first_sarif(pool.size());
  bool corrupt_pending = args.corrupt;
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  std::size_t findings = 0;
  std::size_t findings_distinct = 0;
  auto check = [&](std::size_t f, Pass& pass) {
    for (const fleet::DeviceReport& dev : pass.report.devices) {
      const bool analysed = dev.status == fleet::DeviceStatus::kOk ||
                            dev.status == fleet::DeviceStatus::kFindings;
      out.check(analysed && dev.simplify.proof == ProofStatus::kProven,
                dev.item.name + ": status " + fleet::to_string(dev.status) +
                    ", simplify proof not proven");
    }
    if (corrupt_pending) {
      pass.sarif.pop_back();  // a truncated log must fail validation
      corrupt_pending = false;
    }
    if (!first_sarif[f]) {
      out.check(lint::validate_sarif(pass.sarif).ok,
                "fleet " + std::to_string(f) + ": SARIF fails validation");
      first_sarif[f] = fnv1a(pass.sarif);
      for (const fleet::DeviceReport& dev : pass.report.devices) {
        rules_before += dev.simplify.rules_before;
        rules_after += dev.simplify.rules_after;
      }
      findings += pass.report.findings_total;
      findings_distinct += pass.report.findings_distinct;
    } else {
      out.check(fnv1a(pass.sarif) == *first_sarif[f],
                "fleet " + std::to_string(f) + ": SARIF differs on rerun");
    }
  };

  UnitTimes times;
  double parse_ms = 0;
  time_units(
      args, pool.size(), kDigestFleets, times, out,
      [&](std::size_t f, const ObsOptions& obs) {
        return audit(pool[f], options, obs);
      },
      [&](std::size_t f, bool traced, Pass& pass) {
        if (traced) {
          // run_fleet has no span around parsing; time the fw layer's
          // parser from outside on the same texts.
          const Clock::time_point t0 = Clock::now();
          for (const fleet::FleetSource& s : pool[f]) {
            (void)parse_policy(five_tuple_schema(), default_decisions(),
                               s.text);
          }
          parse_ms += 1000.0 * seconds_between(t0, Clock::now());
        }
        check(f, pass);
      });

  std::size_t distinct_fleets = 0;
  std::uint64_t digest = fnv1a(name);
  for (std::size_t f = 0; f < first_sarif.size(); ++f) {
    if (first_sarif[f]) {
      ++distinct_fleets;
      digest = f < kDigestFleets ? fnv1a(hex64(*first_sarif[f]), digest)
                                 : digest;
    }
  }
  const double per_fleet = distinct_fleets > 0 ? distinct_fleets : 1;
  const double reduction =
      rules_before > 0
          ? 100.0 * static_cast<double>(rules_before - rules_after) /
                static_cast<double>(rules_before)
          : 0;
  const double passes = static_cast<double>(
      args.trace ? times.traced_ms.size() : times.untraced_ms.size());
  const std::vector<double>& wall_ms =
      args.trace ? times.traced_ms : times.untraced_ms;
  char line[400];
  std::snprintf(line, sizeof line,
                "%s: %zu-fleet pool of %zu sites x %zu rules, redundancy pass "
                "%s, %.0f passes measured over %zu fleets (mean wall-clock "
                "rate %.2f devices/s, CPU %.1f%% of wall), rules %zu -> %zu "
                "(%.2f%% removed), findings %.1f per fleet (%.1f distinct), "
                "SARIF digest %s",
                name, pool.size(), sizes.sites, sizes.rules,
                redundancy ? "on" : "off", passes, distinct_fleets,
                1000.0 * passes * static_cast<double>(sizes.sites) /
                    sum(wall_ms),
                100.0 * sum(times.untraced_cpu_ms) / sum(times.untraced_ms),
                rules_before, rules_after, reduction,
                static_cast<double>(findings) / per_fleet,
                static_cast<double>(findings_distinct) / per_fleet,
                hex64(digest).c_str());
  out.note(line);

  const double devices = passes * static_cast<double>(sizes.sites);
  if (!args.trace) {
    report_end_to_end(
        setup_reference, median(setup_s), times.reference,
        mean_rate(times.untraced_cpu_ms, static_cast<double>(sizes.sites)),
        median(times.untraced_cpu_ms), out);
    return;
  }

  const double d = devices > 0 ? devices : 1;
  const double p = passes > 0 ? passes : 1;
  const SpanTable& spans = times.spans;
  out.per_layer = {
      {"fw.parse_ms", parse_ms / d, "ms"},
      {"simplify.simplify_ms", spans.total_ms("simplify") / d, "ms"},
      {"simplify.dead_rules_ms", spans.total_ms("dead_rules", "simplify") / d,
       "ms"},
      {"simplify.dead_rules_calls",
       static_cast<double>(spans.count("dead_rules", "simplify")) / d,
       "count"},
      {"simplify.rule_reduction_pct", reduction, "%"},
      {"lint.dead_rules_ms", spans.total_ms("dead-rules") / d, "ms"},
      {"lint.coverage_ms", spans.total_ms("coverage") / d, "ms"},
      {"lint.anomaly_pairs_ms", spans.total_ms("anomaly_pairs") / d, "ms"},
      {"lint.merge_ms", spans.total_ms("merge") / d, "ms"},
      {"lint.syntax_pairs_ms", spans.total_ms("syntax-pairs") / d, "ms"},
      {"lint.redundancy_ms", spans.total_ms("redundancy") / d, "ms"},
      {"fleet.render_ms", spans.total_ms("fleet.render") / p, "ms"},
      {"fleet.findings", static_cast<double>(findings) / per_fleet, "count"},
      {"fleet.findings_distinct",
       static_cast<double>(findings_distinct) / per_fleet, "count"},
      {"obs.trace_overhead_pct", times.trace_overhead_pct(), "%"},
  };
  std::snprintf(line, sizeof line,
                "fleet self time includes fw parsing (no span inside "
                "run_fleet; fw.parse_ms times it from outside); trace "
                "events lost: %llu",
                static_cast<unsigned long long>(times.dropped));
  out.note(line);
  report_self_time(spans, sum(times.traced_ms), d, "device", out);
}

}  // namespace

void run_fleet_audit(const Args& args, Outcome& out) {
  run_fleet_workload("fleet_audit", false, args, out);
}

void run_fleet_redundancy(const Args& args, Outcome& out) {
  run_fleet_workload("fleet_redundancy", true, args, out);
}

}  // namespace perfbench
