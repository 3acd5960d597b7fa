// N-team comparison benchmark (Section 7.3): the paper offers two ways to
// compare N > 2 firewalls — cross comparison (all N(N-1)/2 pairs through
// the pairwise pipeline) and direct comparison (shape all N diagrams to a
// common refinement once, then one lockstep walk). This bench measures
// both on N perturbed variants of one policy, the diverse-design setting.
//
// A DiverseDesign session builds each team's diagram once, at submit, and
// direct comparison reuses those diagrams; so every "direct" time here is
// the whole session — the N submits plus compare() — never compare()
// alone, which would leave the construction cost out.
//
// Expected shape: cross comparison pays the construction cost per pair
// and grows quadratically in N; direct comparison constructs each diagram
// once and grows near-linearly, winning clearly by N = 4.
//
// The second half is the thread-scaling sweep: the same K-team session run
// on Executor pools of 1/2/4/8 workers, verified bit-identical to the
// serial result, with per-configuration wall times written to
// BENCH_parallel.json. Cross comparison is K(K-1)/2 independent pipelines,
// so on idle multicore hardware it should approach linear speedup until
// the pair count stops covering the workers; direct comparison is serial.
//
// The dfw-bench-obs-v1 records (cross_compare, direct_compare at 6 teams
// of 200 rules, per pool size) go to BENCH_nway.json. --quick writes only
// those records, with the same geometry, so they compare against the
// committed baseline under dfw_bench_diff --key-params=teams,threads.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "diverse/workflow.hpp"
#include "rt/executor.hpp"
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

void sweep_threads(std::FILE* json) {
  constexpr std::size_t kTeams = 6;
  std::printf(
      "\nthread scaling — %zu teams, %zu-rule policies; cross times "
      "cross_compare(), direct the whole session\n",
      kTeams, kRules);
  std::printf("%8s %12s %12s %10s %10s\n", "threads", "cross(ms)",
              "direct(ms)", "speedup", "identical");

  const std::vector<Policy> teams = make_teams(kTeams, kRules);
  const DiverseDesign serial_session = submit_all(teams, WorkflowOptions{});
  std::vector<PairwiseReport> serial_cross;
  const double serial_cross_ms =
      time_ms([&] { serial_cross = serial_session.cross_compare(); });
  std::vector<Discrepancy> serial_direct;
  const double serial_direct_ms = time_ms(
      [&] { serial_direct = direct_session(teams, WorkflowOptions{}); });
  std::printf("%8s %12.1f %12.1f %10s %10s\n", "serial", serial_cross_ms,
              serial_direct_ms, "1.00x", "-");

  std::fprintf(json,
               "{\n"
               "  \"bench\": \"nway_parallel\",\n"
               "  \"teams\": %zu,\n"
               "  \"rules\": %zu,\n"
               "  \"hardware_threads\": %zu,\n"
               "  \"serial\": {\"cross_ms\": %.3f, \"direct_ms\": %.3f},\n"
               "  \"sweep\": [",
               kTeams, kRules, Executor::hardware_threads(), serial_cross_ms,
               serial_direct_ms);

  bool first = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    Executor pool(threads);
    WorkflowOptions options;
    options.run.executor = &pool;
    const DiverseDesign session = submit_all(teams, options);
    std::vector<PairwiseReport> cross;
    const double cross_ms = time_ms([&] { cross = session.cross_compare(); });
    std::vector<Discrepancy> direct;
    const double direct_ms =
        time_ms([&] { direct = direct_session(teams, options); });
    const bool identical = cross == serial_cross && direct == serial_direct;
    std::printf("%8zu %12.1f %12.1f %9.2fx %10s\n", threads, cross_ms,
                direct_ms, serial_cross_ms / cross_ms,
                identical ? "yes" : "NO");
    std::fflush(stdout);
    std::fprintf(json,
                 "%s\n    {\"threads\": %zu, \"cross_ms\": %.3f, "
                 "\"direct_ms\": %.3f, \"speedup_cross\": %.3f, "
                 "\"identical\": %s}",
                 first ? "" : ",", threads, cross_ms, direct_ms,
                 serial_cross_ms / cross_ms, identical ? "true" : "false");
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
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

// One instrumented cross and direct run per pool size, recorded in the
// unified dfw-bench-obs-v1 schema: median wall time of five trials plus
// that trial's registry snapshot (phase.*_ns, rt.executor.*,
// fdd.arena.*). direct_compare times the whole session (submits +
// compare); cross_compare times cross_compare() on submitted teams.
bool obs_sweep() {
  constexpr std::size_t kTeams = 6;
  const std::vector<Policy> teams = make_teams(kTeams, kRules);
  bench::ObsReport report("bench_nway");
  for (const std::size_t threads : {0u, 2u, 8u}) {
    Executor pool(threads == 0 ? 1 : threads);
    const auto options_with = [&](MetricsRegistry& registry) {
      WorkflowOptions options;
      options.run.executor = threads == 0 ? nullptr : &pool;
      options.run.obs.metrics = &registry;
      return options;
    };
    const auto [cross_ns, cross_metrics] =
        median_trial([&](MetricsRegistry& registry) {
          const DiverseDesign session =
              submit_all(teams, options_with(registry));
          return bench::time_ns([&] { (void)session.cross_compare(); });
        });
    report.add("cross_compare", {{"teams", kTeams}, {"threads", threads}},
               cross_ns, cross_metrics);
    const auto [direct_ns, direct_metrics] =
        median_trial([&](MetricsRegistry& registry) {
          return bench::time_ns(
              [&] { (void)direct_session(teams, options_with(registry)); });
        });
    report.add("direct_compare", {{"teams", kTeams}, {"threads", threads}},
               direct_ns, direct_metrics);
    std::printf("%-15s teams=%zu threads=%zu  %10.2f ms\n", "cross_compare",
                kTeams, threads, static_cast<double>(cross_ns) / 1e6);
    std::printf("%-15s teams=%zu threads=%zu  %10.2f ms\n", "direct_compare",
                kTeams, threads, static_cast<double>(direct_ns) / 1e6);
  }
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
  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_parallel.json for writing\n");
    return 1;
  }
  sweep_threads(json);
  std::fclose(json);
  std::printf("\n");
  if (!obs_sweep()) {
    return 1;
  }
  std::printf(
      "\nwrote BENCH_parallel.json\n"
      "expectation (paper): direct N-way comparison amortises the\n"
      "construction cost; cross comparison repeats it per pair and falls\n"
      "behind as N grows. expectation (runtime): cross comparison is\n"
      "K(K-1)/2 independent pipelines and scales with the pool until the\n"
      "pair count stops covering the workers.\n");
  return 0;
}
