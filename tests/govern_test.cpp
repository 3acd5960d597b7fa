// Governance tests: budgets, deadlines, and cancellation must cut the
// worst-case exponential pipelines short with a structured, partial
// result — and must be completely invisible (identical output) when
// disabled. The adversarial policy geometry is the one from
// bench/bench_worstcase.cpp: staggered pairwise-straddling intervals on
// every field, the worst case of Theorem 1's proof.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/anomaly.hpp"
#include "diverse/workflow.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "gen/generate.hpp"
#include "gen/redundancy.hpp"
#include "lint/engine.hpp"
#include "rt/govern.hpp"

namespace dfw {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Schema worst_schema() {
  return Schema({{"a", Interval(0, 4095), FieldKind::kInteger},
                 {"b", Interval(0, 4095), FieldKind::kInteger},
                 {"c", Interval(0, 4095), FieldKind::kInteger}});
}

// Staggered intervals: rule i spans [i*s, 2048 + i*s], so every pair of
// rules straddles on every field. `flip` inverts the decisions, giving
// two policies that disagree almost everywhere.
Policy adversarial(std::size_t n, bool flip) {
  const Schema schema = worst_schema();
  std::vector<Rule> rules;
  const Value step = 2048 / static_cast<Value>(n + 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Value lo = static_cast<Value>(i + 1) * step;
    const Interval iv(lo, lo + 2048);
    const bool accept = (i % 2 == 0) != flip;
    rules.emplace_back(schema,
                       std::vector<IntervalSet>{IntervalSet(iv),
                                                IntervalSet(iv),
                                                IntervalSet(iv)},
                       accept ? kAccept : kDiscard);
  }
  rules.push_back(Rule::catch_all(schema, flip ? kAccept : kDiscard));
  return Policy(schema, std::move(rules));
}

Policy constant_policy(Decision d) {
  const Schema schema = worst_schema();
  return Policy(schema, {Rule::catch_all(schema, d)});
}

// ---------------------------------------------------------------------------
// The headline acceptance criterion: a 10k-node budget turns the
// worst-case exponential pair into a fast, clearly-marked partial result.

TEST(GovernTest, WorstCasePairUnderNodeBudgetFailsFastWithPartialReport) {
  // With hash-consing the symmetric adversarial geometry costs ~(2n-1)^2
  // arena nodes, so n = 128 wants ~65k nodes — far past the 10k budget.
  const Policy a = adversarial(128, false);
  const Policy b = adversarial(128, true);
  RunContext ctx = RunContext::with_budgets({.max_nodes = 10000});
  CompareOptions options;
  options.run.context = &ctx;
  const auto start = Clock::now();
  const CompareOutcome outcome = discrepancies_governed(a, b, options);
  const double elapsed = ms_since(start);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_FALSE(outcome.message.empty());
  EXPECT_LT(elapsed, 1000.0);
  EXPECT_GT(ctx.nodes_charged(), 10000u);
}

TEST(GovernTest, LabelBudgetAlsoCutsTheArenaPipeline) {
  const Policy a = adversarial(24, false);
  const Policy b = adversarial(24, true);
  RunContext ctx = RunContext::with_budgets({.max_label_bytes = 4096});
  CompareOptions options;
  options.run.context = &ctx;
  const CompareOutcome outcome = discrepancies_governed(a, b, options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kLabelBudgetExceeded);
}

// ---------------------------------------------------------------------------
// Governance off (null context or no budgets) must be invisible.

TEST(GovernTest, NoBudgetsProducesIdenticalOutput) {
  const Policy a = adversarial(8, false);
  const Policy b = adversarial(8, true);
  const std::vector<Discrepancy> expected = discrepancies(a, b);
  ASSERT_FALSE(expected.empty());

  RunContext ctx;  // no budgets, no deadline, no cancellation
  CompareOptions governed;
  governed.run.context = &ctx;
  const CompareOutcome outcome = discrepancies_governed(a, b, governed);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kOk);
  EXPECT_TRUE(outcome.message.empty());
  EXPECT_EQ(outcome.discrepancies, expected);
}

TEST(GovernTest, GeneratedPolicyIdenticalWithIdleContext) {
  const Fdd fdd = build_reduced_fdd(adversarial(8, false));
  const Policy plain = generate_policy(fdd);
  RunContext ctx;
  GenerateOptions governed_options;
  governed_options.run.context = &ctx;
  const Policy governed = generate_policy(fdd, governed_options);
  EXPECT_EQ(plain.rules(), governed.rules());
  EXPECT_GT(ctx.rules_charged(), 0u);
}

TEST(GovernTest, RuleBudgetBoundsGeneration) {
  const Fdd fdd = build_reduced_fdd(adversarial(8, false));
  const std::size_t full = generate_policy(fdd).size();
  ASSERT_GT(full, 2u);
  RunContext ctx = RunContext::with_budgets({.max_rules = 2});
  GenerateOptions capped;
  capped.run.context = &ctx;
  try {
    (void)generate_policy(fdd, capped);
    FAIL() << "expected rule budget breach";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRuleBudgetExceeded);
  }
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines.

TEST(GovernTest, PreCancelledContextYieldsCancelledOutcome) {
  CancelSource source;
  source.cancel();
  RunContext::Config config;
  config.cancel = source.token();
  RunContext ctx(std::move(config));
  CompareOptions options;
  options.run.context = &ctx;
  const CompareOutcome outcome =
      discrepancies_governed(adversarial(6, false), adversarial(6, true),
                             options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kCancelled);
  EXPECT_TRUE(outcome.discrepancies.empty());
}

TEST(GovernTest, ExpiredDeadlineYieldsDeadlineExceeded) {
  RunContext ctx = RunContext::after(std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  CompareOptions options;
  options.run.context = &ctx;
  const CompareOutcome outcome =
      discrepancies_governed(adversarial(6, false), adversarial(6, true),
                             options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kDeadlineExceeded);
}

TEST(GovernTest, CancellationCutsALongComparisonShort) {
  // Find a pair slow enough to measure against; on very fast machines the
  // latency claim is unmeasurable and the test skips.
  Policy a = constant_policy(kAccept);
  Policy b = constant_policy(kDiscard);
  double baseline = 0.0;
  for (const std::size_t n : {64u, 128u, 192u}) {
    a = adversarial(n, false);
    b = adversarial(n, true);
    const auto start = Clock::now();
    (void)discrepancies(a, b);
    baseline = ms_since(start);
    if (baseline >= 300.0) {
      break;
    }
  }
  if (baseline < 300.0) {
    GTEST_SKIP() << "machine too fast to measure cancellation latency";
  }

  CancelSource source;
  RunContext::Config config;
  config.cancel = source.token();
  RunContext ctx(std::move(config));
  CompareOptions options;
  options.run.context = &ctx;
  const auto start = Clock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    source.cancel();
  });
  const CompareOutcome outcome = discrepancies_governed(a, b, options);
  const double governed = ms_since(start);
  canceller.join();
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kCancelled);
  // The run must end well before the ungoverned baseline: cancellation
  // latency is one checkpoint grain plus an unwind, not a full pipeline.
  EXPECT_LT(governed, baseline);
}

// ---------------------------------------------------------------------------
// Cross comparison: one shared budget, per-pair status.

// Nodes a governed kCross session charges for submitting `teams`, and
// then for one cross_compare() over them. Deterministic, so a session over
// the same teams charges exactly the same.
std::pair<std::size_t, std::size_t> cross_session_cost(
    const std::vector<Policy>& teams) {
  RunContext probe;
  WorkflowOptions options;
  options.comparison = ComparisonMode::kCross;
  options.run.context = &probe;
  DiverseDesign session(default_decisions(), options);
  for (const Policy& team : teams) {
    session.submit("t", team);
  }
  const std::size_t submitted = probe.nodes_charged();
  (void)session.cross_compare();
  return {submitted, probe.nodes_charged() - submitted};
}

TEST(GovernTest, CrossCompareReportsPerPairStatusUnderSharedBudget) {
  const Policy trivial_a = constant_policy(kAccept);
  const Policy trivial_b = constant_policy(kDiscard);
  const Policy heavy = adversarial(16, false);

  // Submissions build every team's diagram once; each pair then only
  // shapes and compares in the session arena. The trivial pair costs what
  // a session of those two teams pays to compare them, and the heavy pair
  // (0,2) what a session of teams 0 and 2 pays.
  const std::size_t submit_cost =
      cross_session_cost({trivial_a, trivial_b, heavy}).first;
  const std::size_t trivial_pair_cost =
      cross_session_cost({trivial_a, trivial_b}).second;
  const std::size_t heavy_pair_cost =
      cross_session_cost({trivial_a, heavy}).second;
  ASSERT_GT(heavy_pair_cost, 1u) << "the heavy pair must have work to cut";

  // Budget: submissions + the trivial pair + half the heavy pair. Pair
  // (0,1) completes, pair (0,2) breaches, pair (1,2) is skipped by the
  // sticky abort.
  RunContext ctx = RunContext::with_budgets(
      {.max_nodes = submit_cost + trivial_pair_cost + heavy_pair_cost / 2});
  WorkflowOptions options;
  options.comparison = ComparisonMode::kCross;
  options.run.context = &ctx;
  DiverseDesign session(default_decisions(), options);
  session.submit("a", trivial_a);
  session.submit("b", trivial_b);
  session.submit("heavy", heavy);

  const std::vector<PairwiseReport> reports = session.cross_compare();
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_TRUE(reports[0].complete);
  EXPECT_EQ(reports[0].status, ErrorCode::kOk);
  EXPECT_FALSE(reports[0].discrepancies.empty());

  EXPECT_FALSE(reports[1].complete);
  EXPECT_EQ(reports[1].status, ErrorCode::kNodeBudgetExceeded);

  EXPECT_FALSE(reports[2].complete);
  EXPECT_EQ(reports[2].status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_TRUE(reports[2].discrepancies.empty())
      << "a skipped pair reports no findings";
}

TEST(GovernTest, GovernedDirectCompareMatchesUngovernedWhenIdle) {
  WorkflowOptions governed_options;
  RunContext ctx;
  governed_options.run.context = &ctx;
  DiverseDesign governed(default_decisions(), governed_options);
  DiverseDesign plain(default_decisions());
  for (DiverseDesign* session : {&governed, &plain}) {
    session->submit("a", adversarial(6, false));
    session->submit("b", adversarial(6, true));
  }
  const CompareOutcome outcome = governed.compare_governed();
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kOk);
  EXPECT_EQ(outcome.discrepancies, plain.compare());
}

TEST(GovernTest, SubmissionBreachPropagatesAsStructuredError) {
  // Submission validates by constructing the team FDD, so a hostile team
  // firewall is rejected at the session boundary — the plain entry points
  // let the structured error propagate rather than report partially.
  // The session builds into its arena without expanding a tree, so the
  // charge is the arena's unique nodes: about 5.2k for adversarial(64).
  RunContext ctx = RunContext::with_budgets({.max_nodes = 2000});
  WorkflowOptions options;
  options.run.context = &ctx;
  DiverseDesign session(default_decisions(), options);
  EXPECT_THROW(session.submit("a", adversarial(64, false)), Error);
  EXPECT_TRUE(ctx.aborted());
  EXPECT_EQ(ctx.abort_code(), ErrorCode::kNodeBudgetExceeded);

  // adversarial(32) costs about 1.3k arena nodes and fits the same budget.
  RunContext fits = RunContext::with_budgets({.max_nodes = 2000});
  WorkflowOptions fits_options;
  fits_options.run.context = &fits;
  DiverseDesign fitting(default_decisions(), fits_options);
  EXPECT_NO_THROW(fitting.submit("a", adversarial(32, false)));
  EXPECT_FALSE(fits.aborted());
}

// Node cost of submitting `teams` to a governed session (and comparing
// them when `compare` is set); deterministic, so a second session with
// the same operations charges exactly the same.
std::size_t session_node_cost(const std::vector<Policy>& teams,
                              bool compare) {
  RunContext probe;
  WorkflowOptions options;
  options.run.context = &probe;
  DiverseDesign session(default_decisions(), options);
  for (const Policy& p : teams) {
    session.submit("t", p);
  }
  if (compare) {
    (void)session.compare();
  }
  return probe.nodes_charged();
}

TEST(GovernTest, SessionCompareGovernedReturnsPartialOutcome) {
  // The budget covers both submissions but not the shaping: the session
  // reports a partial comparison instead of throwing. Staggered at
  // different steps, the two teams' edges must be refined against each
  // other.
  const std::vector<Policy> teams = {adversarial(24, false),
                                     adversarial(17, true)};
  const std::size_t submit_cost = session_node_cost(teams, false);
  ASSERT_GT(session_node_cost(teams, true), submit_cost + 50);

  RunContext ctx = RunContext::with_budgets({.max_nodes = submit_cost + 50});
  WorkflowOptions options;
  options.run.context = &ctx;
  DiverseDesign session(default_decisions(), options);
  for (const Policy& p : teams) {
    session.submit("t", p);
  }
  const CompareOutcome outcome = session.compare_governed();
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_FALSE(outcome.message.empty());
  // The plain entry point lets the sticky breach propagate.
  EXPECT_THROW((void)session.compare(), Error);
}

TEST(GovernTest, ResolutionBreachPropagatesAsStructuredError) {
  // Method 1 interns the corrected diagram and its reduced image into the
  // session arena; a budget that covers submit and compare but not those
  // nodes breaks off the resolution with a structured error.
  const std::vector<Policy> teams = {adversarial(6, false),
                                     adversarial(6, true)};
  const std::size_t compare_cost = session_node_cost(teams, true);

  RunContext ctx = RunContext::with_budgets({.max_nodes = compare_cost + 1});
  WorkflowOptions options;
  options.run.context = &ctx;
  DiverseDesign session(default_decisions(), options);
  for (const Policy& p : teams) {
    session.submit("t", p);
  }
  const std::vector<Discrepancy> diffs = session.compare();
  ASSERT_GT(diffs.size(), 2u);
  // Alternating winners make a corrected diagram neither team has.
  ResolutionPlan plan;
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    plan.push_back(adopt(i, diffs[i], i % 2));
  }
  try {
    (void)session.resolve(plan, ResolutionMethod::kCorrectedFdd, 0);
    FAIL() << "expected node budget breach";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNodeBudgetExceeded);
  }

  // The same plan resolves in an ungoverned session.
  DiverseDesign plain(default_decisions());
  for (const Policy& p : teams) {
    plain.submit("t", p);
  }
  EXPECT_NO_THROW(
      (void)plain.resolve(plan, ResolutionMethod::kCorrectedFdd, 0));
}

// ---------------------------------------------------------------------------
// Redundancy detection: the one-pass kernel charges its diagram to the
// run's budget, and the lint pass built on it degrades to a partial report.

TEST(GovernTest, RedundancyKernelHonoursBudgetAndCancellation) {
  const Policy p = adversarial(12, false);
  RunContext ctx = RunContext::with_budgets({.max_nodes = 64});
  EXPECT_THROW(redundant_rules(p, &ctx), Error);
  EXPECT_EQ(ctx.abort_code(), ErrorCode::kNodeBudgetExceeded);

  CancelSource source;
  source.cancel();
  RunContext::Config config;
  config.cancel = source.token();
  RunContext cancelled(config);
  EXPECT_THROW(is_redundant(p, 0, &cancelled), Error);
  EXPECT_EQ(cancelled.abort_code(), ErrorCode::kCancelled);

  // An idle context is charged but changes nothing.
  RunContext idle;
  EXPECT_EQ(redundant_rules(p, &idle), redundant_rules(p));
  EXPECT_GT(idle.nodes_charged(), 64u);
}

TEST(GovernTest, DeadRulesKernelHonoursBudgetAndCancellation) {
  // dead_rules runs on the FDD arena's build, which charges its nodes and
  // takes checkpoints with the same breach semantics.
  const Policy p = adversarial(12, false);
  AnomalyOptions options;
  RunContext ctx = RunContext::with_budgets({.max_nodes = 64});
  options.run.context = &ctx;
  EXPECT_THROW(dead_rules(p, options), Error);
  EXPECT_EQ(ctx.abort_code(), ErrorCode::kNodeBudgetExceeded);

  // Cancellation is observed from the first append on, also when the
  // whole diagram is one rule's path.
  for (const Policy& q : {p, constant_policy(kAccept)}) {
    CancelSource source;
    source.cancel();
    RunContext::Config config;
    config.cancel = source.token();
    RunContext cancelled(config);
    options.run.context = &cancelled;
    EXPECT_THROW(dead_rules(q, options), Error);
    EXPECT_EQ(cancelled.abort_code(), ErrorCode::kCancelled);
  }

  // An idle context is charged but changes nothing.
  RunContext idle;
  options.run.context = &idle;
  EXPECT_EQ(dead_rules(p, options), dead_rules(p));
  EXPECT_GT(idle.nodes_charged(), 64u);
}

TEST(GovernTest, LintRedundancyPassStopsOnBudgetWithPartialReport) {
  const Policy p = adversarial(12, false);
  lint::LintInput input;
  input.policy = &p;
  input.decisions = &default_decisions();
  const lint::LintEngine engine;

  // Measure what the coverage pass alone charges, then leave the
  // redundancy pass a single node of budget.
  RunContext probe;
  lint::LintOptions coverage_only;
  coverage_only.passes = {"coverage"};
  coverage_only.run.context = &probe;
  ASSERT_TRUE(engine.run(input, coverage_only).complete);

  RunContext ctx =
      RunContext::with_budgets({.max_nodes = probe.nodes_charged() + 1});
  lint::LintOptions options;
  options.passes = {"coverage", "redundancy"};
  options.run.context = &ctx;
  const lint::LintReport report = engine.run(input, options);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_EQ(report.passes_run, std::vector<std::string>{"coverage"});
  EXPECT_NE(report.message.find("pass 'redundancy'"), std::string::npos);
}

}  // namespace
}  // namespace dfw
