// Workload `design`: the paper's three-phase workflow through
// DiverseDesign. Each session submits three team policies (a synthetic
// base and two Section 8.2.1 perturbations of it), runs the direct
// 3-way comparison, plans the resolution by majority and resolves with
// method 1. fdd construct/shape/compare and gen do almost all the work;
// lint, simplify, engine and serve do none.
//
// Set-up generates a pool of distinct sessions from the seed; the timed
// loop runs them in turn, serially, until the run's time is used.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "diverse/resolve.hpp"
#include "diverse/workflow.hpp"
#include "engine/trace.hpp"
#include "fw/format.hpp"
#include "obs/metrics.hpp"
#include "synth/synth.hpp"

namespace perfbench {
namespace {

using namespace dfw;

struct Sizes {
  std::size_t rules;     // base policy, catch-all included
  std::size_t sessions;  // distinct sessions in the pool
  std::size_t packets;   // check sample per session
};

// Session cost varies widely with the generated policies (coefficient of
// variation about 0.5 per session at 100-1000 rules), so a run averages
// over many distinct small sessions rather than a few large ones: that is
// what keeps one seed's figures close to another's.
constexpr Sizes kFull{100, 768, 256};
constexpr Sizes kTiny{40, 2, 64};
constexpr double kPerturbPercent = 10;
constexpr std::size_t kTeams = 3;
constexpr int kSetupRepeats = 9;
// Sessions the output digest covers; every run measures at least these.
constexpr std::size_t kDigestSessions = 16;

struct Session {
  std::vector<Policy> teams;
  std::vector<Packet> sample;
};

std::vector<Session> make_sessions(std::uint64_t seed, const Sizes& sizes) {
  std::vector<Session> pool;
  for (std::size_t k = 0; k < sizes.sessions; ++k) {
    Rng rng(mix_seed(seed, k));
    SynthConfig config;
    config.num_rules = sizes.rules;
    Session s;
    s.teams.push_back(synth_policy(config, rng));
    for (std::size_t t = 1; t < kTeams; ++t) {
      s.teams.push_back(perturb_policy(s.teams[0], kPerturbPercent, rng));
    }
    s.sample = synth_trace(s.teams[0], sizes.packets, rng);
    pool.push_back(std::move(s));
  }
  return pool;
}

struct SessionResult {
  std::size_t discrepancies = 0;
  Policy resolved;
};

// One session. `obs` holds null sinks in untraced runs; in traced runs the
// benchmark's own spans wrap each call into the diverse layer.
SessionResult run_session(const Session& s, const ObsOptions& obs) {
  WorkflowOptions options;
  options.run.obs = obs;
  DiverseDesign design(default_decisions(), options);
  for (std::size_t t = 0; t < s.teams.size(); ++t) {
    ScopedSpan span(obs.tracer, "diverse.submit");
    design.submit("team" + std::to_string(t), s.teams[t]);
  }
  std::vector<Discrepancy> found;
  {
    ScopedSpan span(obs.tracer, "diverse.compare");
    found = design.compare();
  }
  ResolutionPlan plan;
  {
    ScopedSpan span(obs.tracer, "diverse.plan");
    plan = plan_by_majority(found, 0);
  }
  ScopedSpan span(obs.tracer, "diverse.resolve");
  return {found.size(),
          design.resolve(plan, ResolutionMethod::kCorrectedFdd, 0)};
}

// The resolved firewall must decide every sampled packet as the majority
// of the teams' own first-match decisions do (ties go to team 0, the
// arbiter plan_by_majority was given).
bool majority_holds(const Session& s, const Policy& resolved, bool corrupt) {
  for (std::size_t i = 0; i < s.sample.size(); ++i) {
    const Packet& p = s.sample[i];
    std::vector<Decision> votes;
    for (const Policy& team : s.teams) {
      votes.push_back(team.evaluate(p));
    }
    Decision majority = votes[0];
    std::size_t best = 0;
    for (const Decision d : votes) {
      const auto n = static_cast<std::size_t>(
          std::count(votes.begin(), votes.end(), d));
      if (n > best) {
        best = n;
        majority = d;
      }
    }
    // Ties keep the arbiter's vote: a strict majority is required to
    // overrule team 0.
    if (best * 2 <= votes.size()) {
      majority = votes[0];
    }
    Decision got = resolved.evaluate(p);
    if (corrupt && i == 0) {
      got = got == kAccept ? kDiscard : kAccept;
    }
    if (got != majority) {
      return false;
    }
  }
  return true;
}

// A session's first output, kept as a digest so memory does not grow
// with the sessions a run makes.
struct Reference {
  bool set = false;
  std::size_t discrepancies = 0;
  std::uint64_t resolved_digest = 0;
};

}  // namespace

void run_design(const Args& args, Outcome& out) {
  const Sizes& sizes = args.tiny ? kTiny : kFull;

  HostReference setup_reference;
  std::vector<double> setup_s;
  std::vector<Session> pool;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup_reference.sample();
    const double t0 = cpu_ms();
    pool = make_sessions(args.seed, sizes);
    setup_s.push_back((cpu_ms() - t0) / 1000.0);
  }

  // Output checks. The first run of a pool entry is checked against the
  // teams' majority; every later run of it must reproduce that output.
  std::vector<Reference> refs(pool.size());
  bool corrupt_pending = args.corrupt;
  auto check = [&](std::size_t k, const SessionResult& r) {
    Reference& ref = refs[k];
    const std::uint64_t text =
        fnv1a(format_policy(r.resolved, default_decisions()));
    if (!ref.set) {
      ref = {true, r.discrepancies, text};
      out.check(majority_holds(pool[k], r.resolved, corrupt_pending),
                "session " + std::to_string(k) +
                    ": resolved firewall disagrees with the team majority");
      corrupt_pending = false;
    } else {
      out.check(r.discrepancies == ref.discrepancies &&
                    text == ref.resolved_digest,
                "session " + std::to_string(k) + ": output changed on rerun");
    }
  };

  UnitTimes times;
  std::vector<double> resolved_rules;  // of the units the metrics describe
  double discrepancies = 0;
  time_units(
      args, pool.size(), kDigestSessions, times, out,
      [&](std::size_t k, const ObsOptions& obs) {
        return run_session(pool[k], obs);
      },
      [&](std::size_t k, bool traced, const SessionResult& r) {
        if (traced || !args.trace) {
          discrepancies += static_cast<double>(r.discrepancies);
          resolved_rules.push_back(static_cast<double>(r.resolved.size()));
        }
        check(k, r);
      });

  std::uint64_t digest = fnv1a("design");
  for (std::size_t k = 0; k < std::min(kDigestSessions, refs.size()); ++k) {
    digest = fnv1a(std::to_string(refs[k].discrepancies), digest);
    digest = fnv1a(hex64(refs[k].resolved_digest), digest);
  }
  char line[300];
  const double sessions = static_cast<double>(resolved_rules.size());
  std::snprintf(line, sizeof line,
                "design: %zu rules x %zu teams, %zu-session pool, %.0f "
                "sessions measured (mean wall-clock rate %.3f/s, CPU %.1f%% "
                "of wall), %.1f discrepancies/session, resolved rules median "
                "%.0f, output digest %s",
                sizes.rules, kTeams, pool.size(), sessions,
                1000.0 * sessions / sum(args.trace ? times.traced_ms
                                                   : times.untraced_ms),
                100.0 * sum(times.untraced_cpu_ms) / sum(times.untraced_ms),
                discrepancies / (sessions > 0 ? sessions : 1),
                median(resolved_rules), hex64(digest).c_str());
  out.note(line);

  if (!args.trace) {
    report_end_to_end(setup_reference, median(setup_s), times.reference,
                      mean_rate(times.untraced_cpu_ms, 1),
                      median(times.untraced_cpu_ms), out);
    return;
  }

  const double n = sessions > 0 ? sessions : 1;
  const SpanTable& spans = times.spans;
  const MetricsSnapshot snap = times.registry.snapshot();
  auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it != snap.counters.end() ? static_cast<double>(it->second) : 0.0;
  };
  const double fdd_construct_ms = spans.total_ms("construct") +
                                  spans.total_ms("build_reduced_fdd") -
                                  spans.total_ms("build_reduced_fdd",
                                                 "construct");
  const double queries = counter("fdd.arena.node_queries");
  out.per_layer = {
      {"diverse.submit_ms", spans.total_ms("diverse.submit") / n, "ms"},
      {"diverse.compare_ms", spans.total_ms("diverse.compare") / n, "ms"},
      {"diverse.resolve_ms", spans.total_ms("diverse.resolve") / n, "ms"},
      {"diverse.discrepancies", discrepancies / n, "count"},
      {"fdd.construct_ms", fdd_construct_ms / n, "ms"},
      {"fdd.shape_ms", spans.total_ms("shape") / n, "ms"},
      {"fdd.compare_ms", spans.total_ms("compare") / n, "ms"},
      {"fdd.arena.unique_nodes", counter("fdd.arena.unique_nodes") / n,
       "count"},
      {"fdd.arena.node_hit_ratio",
       queries > 0 ? counter("fdd.arena.node_hits") / queries : 0, "ratio"},
      {"gen.generate_ms", spans.total_ms("generate") / n, "ms"},
      {"gen.resolved_rules", median(resolved_rules), "count"},
      {"obs.trace_overhead_pct", times.trace_overhead_pct(), "%"},
  };
  std::snprintf(line, sizeof line,
                "fdd.arena.node_hit_ratio base: %.0f node queries per "
                "session; trace events lost: %llu",
                queries / n, static_cast<unsigned long long>(times.dropped));
  out.note(line);
  report_self_time(spans, sum(times.traced_ms), n, "session", out);
}

}  // namespace perfbench
