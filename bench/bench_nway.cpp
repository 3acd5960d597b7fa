// N-team comparison benchmark (Section 7.3): the paper offers two ways to
// compare N > 2 firewalls — cross comparison (all N(N-1)/2 pairs, each
// shaped and compared on its own) and direct comparison (shape all N
// diagrams to a common refinement once, then one lockstep walk). This
// bench measures both on N perturbed variants of one policy, the
// diverse-design setting.
//
// A DiverseDesign session builds each team's diagram once, at submit, and
// both comparisons reuse those diagrams; so every time in the N-sweep is
// the whole session — the N submits plus compare() or cross_compare() —
// never the comparison alone, which would leave the construction cost
// out.
//
// Expected shape: construction dominates both columns at small N; cross
// comparison shapes and walks N(N-1)/2 pairs and grows quadratically in
// its comparison share, direct comparison walks once.
//
// The dfw-bench-obs-v1 records (cross_compare, direct_compare at 6 teams
// of 200 rules) go to BENCH_nway.json: cross_compare times
// cross_compare() on submitted teams, direct_compare the whole session.
// --quick writes only those records, with the same geometry, so they
// compare against the committed baseline under dfw_bench_diff
// --key-params=teams,threads (threads is 0: both run serially).

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "diverse/workflow.hpp"
#include "synth/synth.hpp"

namespace {

using namespace dfw;
using bench::time_ms;

constexpr std::size_t kRules = 200;

std::vector<Policy> make_teams(std::size_t teams, std::size_t rules) {
  SynthConfig config;
  config.num_rules = rules;
  Rng rng(teams);
  std::vector<Policy> out = {synth_policy(config, rng)};
  for (std::size_t i = 1; i < teams; ++i) {
    out.push_back(perturb_policy(out[0], 15.0, rng));
  }
  return out;
}

DiverseDesign submit_all(const std::vector<Policy>& teams,
                         const WorkflowOptions& options) {
  DiverseDesign session(DecisionSet(), options);
  for (std::size_t i = 0; i < teams.size(); ++i) {
    std::string name = "t";
    name += std::to_string(i);
    session.submit(std::move(name), teams[i]);
  }
  return session;
}

// One direct session: the K submits plus the direct comparison.
std::vector<Discrepancy> direct_session(const std::vector<Policy>& teams,
                                        const WorkflowOptions& options) {
  return submit_all(teams, options).compare();
}

void sweep_teams() {
  std::printf("Section 7.3 — N-team comparison, %zu-rule policies "
              "(whole sessions: submits + comparison)\n",
              kRules);
  std::printf("%6s %12s %14s %14s %12s\n", "teams", "direct(ms)",
              "cross(ms)", "direct-diffs", "cross-pairs");

  for (const std::size_t n : {2u, 3u, 4u, 6u, 8u}) {
    const std::vector<Policy> teams = make_teams(n, kRules);
    std::vector<Discrepancy> direct;
    const double direct_ms = time_ms(
        [&] { direct = direct_session(teams, WorkflowOptions{}); });
    std::vector<PairwiseReport> cross;
    const double cross_ms = time_ms([&] {
      cross = submit_all(teams, WorkflowOptions{}).cross_compare();
    });
    std::printf("%6zu %12.1f %14.1f %14zu %12zu\n", n, direct_ms, cross_ms,
                direct.size(), cross.size());
    std::fflush(stdout);
  }
}

// Runs `fn` kTrials times, each with a fresh registry, and returns the
// median trial's wall time (as `fn` measured it) and snapshot: the
// records feed a regression gate, and one shot of a few tens of
// milliseconds is too noisy for it.
template <typename F>
std::pair<std::uint64_t, MetricsSnapshot> median_trial(F&& fn) {
  constexpr int kTrials = 5;
  std::vector<std::pair<std::uint64_t, MetricsSnapshot>> trials;
  for (int t = 0; t < kTrials; ++t) {
    MetricsRegistry registry;
    const std::uint64_t ns = fn(registry);
    trials.emplace_back(ns, registry.snapshot());
  }
  std::sort(trials.begin(), trials.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return trials[kTrials / 2];
}

// One instrumented cross and direct run, recorded in the unified
// dfw-bench-obs-v1 schema: median wall time of five trials plus that
// trial's registry snapshot (phase.*_ns, fdd.arena.*). direct_compare
// times the whole session (submits + compare); cross_compare times
// cross_compare() on submitted teams.
bool obs_sweep() {
  constexpr std::size_t kTeams = 6;
  const std::vector<Policy> teams = make_teams(kTeams, kRules);
  bench::ObsReport report("bench_nway");
  const auto options_with = [](MetricsRegistry& registry) {
    WorkflowOptions options;
    options.run.obs.metrics = &registry;
    return options;
  };
  const auto [cross_ns, cross_metrics] =
      median_trial([&](MetricsRegistry& registry) {
        const DiverseDesign session = submit_all(teams, options_with(registry));
        return bench::time_ns([&] { (void)session.cross_compare(); });
      });
  report.add("cross_compare", {{"teams", kTeams}, {"threads", 0}}, cross_ns,
             cross_metrics);
  const auto [direct_ns, direct_metrics] =
      median_trial([&](MetricsRegistry& registry) {
        return bench::time_ns(
            [&] { (void)direct_session(teams, options_with(registry)); });
      });
  report.add("direct_compare", {{"teams", kTeams}, {"threads", 0}},
             direct_ns, direct_metrics);
  std::printf("%-15s teams=%zu  %10.2f ms\n", "cross_compare", kTeams,
              static_cast<double>(cross_ns) / 1e6);
  std::printf("%-15s teams=%zu  %10.2f ms\n", "direct_compare", kTeams,
              static_cast<double>(direct_ns) / 1e6);
  if (!report.write("BENCH_nway.json")) {
    return false;
  }
  std::printf("wrote BENCH_nway.json\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<bool> quick = bench::parse_quick_flag(argc, argv);
  if (!quick.has_value()) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  if (*quick) {
    return obs_sweep() ? 0 : 1;
  }
  sweep_teams();
  std::printf("\n");
  if (!obs_sweep()) {
    return 1;
  }
  std::printf(
      "\nexpectation (paper): direct N-way comparison walks the K diagrams\n"
      "once; cross comparison shapes and walks every pair and falls behind\n"
      "as N grows.\n");
  return 0;
}
