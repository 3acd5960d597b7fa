// Anomaly-analysis tests: the four pair classes on hand-built policies,
// exactness of the dead-rule detector against brute force, against the
// tree coverage walk (the oracle below) and against an independent
// reachability-based reference, agreement between the syntactic and
// semantic views, and determinism of the parallel pair scan against the
// serial path.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/anomaly.hpp"
#include "fdd/construct.hpp"
#include "fdd/reduce.hpp"
#include "query/query.hpp"
#include "rt/executor.hpp"
#include "rt/govern.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

Rule rule(const Schema& s, Interval x, Interval y, Decision d) {
  return Rule(s, {IntervalSet(x), IntervalSet(y)}, d);
}

bool has(const std::vector<Anomaly>& anomalies, AnomalyKind kind,
         std::size_t first, std::size_t second) {
  for (const Anomaly& a : anomalies) {
    if (a.kind == kind && a.first == first && a.second == second) {
      return true;
    }
  }
  return false;
}

TEST(Anomaly, PredicateSubsetAndOverlap) {
  const Schema s = tiny2();
  const Rule big = rule(s, Interval(0, 7), Interval(0, 7), kAccept);
  const Rule small = rule(s, Interval(2, 3), Interval(2, 3), kDiscard);
  const Rule side = rule(s, Interval(4, 7), Interval(0, 1), kDiscard);
  EXPECT_TRUE(predicate_subset(small, big));
  EXPECT_FALSE(predicate_subset(big, small));
  EXPECT_TRUE(predicates_overlap(big, small));
  EXPECT_FALSE(predicates_overlap(small, side));
}

TEST(Anomaly, ShadowingDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kShadowing, 0, 1));
}

TEST(Anomaly, GeneralizationDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kGeneralization, 0, 1));
  EXPECT_FALSE(has(anomalies, AnomalyKind::kShadowing, 0, 1));
}

TEST(Anomaly, CorrelationDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 4), Interval(0, 7), kAccept),
                     rule(s, Interval(2, 7), Interval(0, 7), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kCorrelation, 0, 1));
}

TEST(Anomaly, RedundancyPairDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kRedundancyPair, 0, 1));
}

TEST(Anomaly, BenignOverlapNotFlagged) {
  const Schema s = tiny2();
  // Overlapping, non-nested, same decision.
  const Policy p(s, {rule(s, Interval(0, 4), Interval(0, 7), kAccept),
                     rule(s, Interval(2, 7), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  for (const Anomaly& a : anomalies) {
    EXPECT_FALSE(a.first == 0 && a.second == 1);
  }
}

TEST(Anomaly, DisjointRulesProduceNoAnomalies) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 3), kAccept),
                     rule(s, Interval(4, 7), Interval(4, 7), kDiscard)});
  EXPECT_TRUE(find_anomalies(p).empty());
}

TEST(Anomaly, DeadRuleFromCombinedCoverage) {
  // Neither earlier rule alone shadows rule 3, but together they do — the
  // pairwise scan cannot see it, the semantic check must.
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     rule(s, Interval(4, 7), Interval(0, 7), kDiscard),
                     rule(s, Interval(2, 5), Interval(2, 5), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<std::size_t> dead = dead_rules(p);
  // Rules 1 and 2 already cover the whole space, so the trailing
  // catch-all is dead too.
  EXPECT_EQ(dead, (std::vector<std::size_t>{2, 3}));
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_FALSE(has(anomalies, AnomalyKind::kShadowing, 0, 2));
  EXPECT_FALSE(has(anomalies, AnomalyKind::kShadowing, 1, 2));
}

TEST(Anomaly, ReportFormatsKindsAndRules) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  const std::string report = format_anomaly_report(
      p, default_decisions(), find_anomalies(p), dead_rules(p));
  EXPECT_NE(report.find("[shadowing] r2 vs r1"), std::string::npos);
  EXPECT_NE(report.find("dead rules"), std::string::npos);
  const std::string clean = format_anomaly_report(
      p, default_decisions(), {}, {});
  EXPECT_NE(clean.find("anomalies: none"), std::string::npos);
  EXPECT_NE(clean.find("dead rules: none"), std::string::npos);
}

TEST(Anomaly, ParallelPairScanMatchesSerialExactly) {
  // The chunked parallel scan must reproduce the serial result *including
  // ordering*, whatever the thread count or chunk grain.
  std::mt19937_64 rng(113);
  for (int trial = 0; trial < 5; ++trial) {
    const Policy p = test::random_policy(tiny3(), 20, rng);
    const std::vector<Anomaly> serial = find_anomalies(p);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      Executor executor(threads);
      AnomalyOptions options;
      options.run.executor = &executor;
      options.row_grain = 3;  // force multiple chunks
      EXPECT_EQ(find_anomalies(p, options), serial)
          << "trial " << trial << ", threads " << threads;
    }
  }
}

TEST(Anomaly, GovernedPairScanAbortsOnTinyNodeBudget) {
  // The pair scan itself creates no nodes; a shared context someone else
  // has already breached must still stop it at the next checkpoint.
  std::mt19937_64 rng(7);
  const Policy p = test::random_policy(tiny3(), 12, rng);
  RunContext::Config config;
  config.budgets.max_nodes = 1;
  config.checkpoint_grain = 1;
  RunContext context(std::move(config));
  EXPECT_THROW(context.charge_nodes(2), Error);  // breach it
  AnomalyOptions options;
  options.run.context = &context;
  EXPECT_THROW(find_anomalies(p, options), Error);
  EXPECT_THROW(dead_rules(p, options), Error);
}

// Independent dead-rule reference: give rule i a fresh decision nothing
// else uses; i is dead iff that decision is unreachable in the rebuilt
// diagram. Exercises a different question (one full FDD build per rule +
// reachability) than the single build's unchanged-root test under test.
std::vector<std::size_t> dead_rules_by_reachability(const Policy& p) {
  constexpr Decision kFresh = 9;
  std::vector<std::size_t> dead;
  for (std::size_t i = 0; i < p.size(); ++i) {
    std::vector<Rule> rules = p.rules();
    rules[i] = Rule(p.schema(), rules[i].conjuncts(), kFresh);
    const Fdd fdd = build_reduced_fdd(Policy(p.schema(), std::move(rules)));
    const std::vector<Decision> reach = reachable_decisions(fdd);
    if (std::find(reach.begin(), reach.end(), kFresh) == reach.end()) {
      dead.push_back(i);
    }
  }
  return dead;
}

TEST(Anomaly, DeadRulesMatchReachabilityReferenceOnRandomCorpus) {
  std::mt19937_64 rng(127);
  for (int trial = 0; trial < 10; ++trial) {
    const Policy p = test::random_policy(tiny3(), 8, rng);
    EXPECT_EQ(dead_rules(p), dead_rules_by_reachability(p))
        << "trial " << trial;
  }
}

TEST(Anomaly, DeadRulesInterleavedReductionKeepsExactness) {
  // Staggered cubes over [0,4095]^3 followed by exact duplicates: a
  // diagram of many split edges, and a coverage tree that outgrows the
  // oracle's 256-node interleaved reduce(). The duplicates (and only they)
  // are dead; splitting edges and sharing subdiagrams by id must not
  // change that.
  const Schema s({{"a", Interval(0, 4095), FieldKind::kInteger},
                  {"b", Interval(0, 4095), FieldKind::kInteger},
                  {"c", Interval(0, 4095), FieldKind::kInteger}});
  std::vector<Rule> rules;
  const std::size_t n = 10;
  for (std::size_t i = 0; i < n; ++i) {
    const IntervalSet span(Interval(i * 64, i * 64 + 2048));
    rules.emplace_back(s, std::vector<IntervalSet>{span, span, span},
                       i % 2 == 0 ? kAccept : kDiscard);
  }
  for (std::size_t i = 0; i < n; ++i) {
    rules.push_back(rules[i]);  // exact duplicates: all dead
  }
  rules.push_back(Rule::catch_all(s, kDiscard));
  const Policy p(s, std::move(rules));
  EXPECT_GT(build_reduced_fdd(p).node_count(), 50u);  // nontrivial diagram
  const std::vector<std::size_t> dead = dead_rules(p);
  EXPECT_EQ(dead, dead_rules_by_reachability(p));
  for (std::size_t i = n; i < 2 * n; ++i) {
    EXPECT_NE(std::find(dead.begin(), dead.end(), i), dead.end()) << i;
  }
  // Governed run with a generous budget agrees with the ungoverned one.
  Budgets budgets;
  budgets.max_nodes = 1000000;
  RunContext context = RunContext::with_budgets(budgets);
  AnomalyOptions options;
  options.run.context = &context;
  EXPECT_EQ(dead_rules(p, options), dead);
  EXPECT_GT(context.nodes_charged(), 0u);
}

// The tree coverage walk dead_rules used before it moved onto the
// FDD arena, kept as the oracle: fold the rules into one
// growing partial tree FDD (Fig. 7 appends) that, after i rules, covers
// exactly the packets some earlier rule matches; rule i is dead iff its
// predicate cannot escape that coverage. Reduction is sound on partial
// FDDs, so the tree is reduced whenever it outgrows a budget.
bool escapes_coverage(const FddNode& node, const Rule& rule) {
  if (node.is_terminal()) {
    return false;
  }
  const IntervalSet& wanted = rule.conjunct(node.field);
  if (!wanted.subtract(node.edge_label_union()).empty()) {
    return true;
  }
  for (const FddEdge& e : node.edges) {
    if (e.label.overlaps(wanted) && escapes_coverage(*e.target, rule)) {
      return true;
    }
  }
  return false;
}

std::vector<std::size_t> dead_rules_by_coverage_tree(const Policy& p) {
  std::vector<std::size_t> dead;
  Fdd coverage = build_partial_fdd(p, 1);
  std::size_t budget = 256;
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (!escapes_coverage(coverage.root(), p.rule(i))) {
      dead.push_back(i);
    }
    append_rule(coverage, p.rule(i));
    if (coverage.node_count() > budget) {
      reduce(coverage);
      budget = coverage.node_count() * 2 + 256;
    }
  }
  return dead;
}

// Brute force: enumerate every packet and record its first match; a rule
// no packet first-matches is dead.
std::vector<std::size_t> dead_rules_by_enumeration(const Policy& p) {
  std::vector<bool> hit(p.size(), false);
  for (const Packet& pkt : test::all_packets(p.schema())) {
    if (const std::optional<std::size_t> first = p.first_match(pkt)) {
      hit[*first] = true;
    }
  }
  std::vector<std::size_t> dead;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!hit[i]) {
      dead.push_back(i);
    }
  }
  return dead;
}

TEST(Anomaly, DeadRulesMatchBruteForce) {
  // 2-10 random rules over tiny2/tiny3; every third policy draws from
  // three decisions, and a third end without a catch-all (so some packets
  // match nothing).
  std::mt19937_64 rng(20261018);
  std::size_t dead_seen = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const Schema s = trial % 2 == 0 ? tiny2() : tiny3();
    std::uniform_int_distribution<std::size_t> size_pick(2, 10);
    const std::size_t n = size_pick(rng);
    std::uniform_int_distribution<Decision> decision_pick(
        0, trial % 3 == 0 ? 2 : 1);
    const bool comprehensive = trial % 3 != 1;
    std::vector<Rule> rules;
    for (std::size_t i = 0; i < n; ++i) {
      const Decision d = decision_pick(rng);
      if (comprehensive && i + 1 == n) {
        rules.push_back(Rule::catch_all(s, d));
        break;
      }
      std::vector<IntervalSet> conjuncts;
      for (std::size_t f = 0; f < s.field_count(); ++f) {
        conjuncts.push_back(test::random_set(s.domain(f), rng));
      }
      rules.emplace_back(s, std::move(conjuncts), d);
    }
    const Policy p(s, std::move(rules));
    const std::vector<std::size_t> dead = dead_rules(p);
    ASSERT_EQ(dead, dead_rules_by_enumeration(p)) << "trial " << trial;
    ASSERT_EQ(dead, dead_rules_by_coverage_tree(p)) << "trial " << trial;
    dead_seen += dead.size();
  }
  EXPECT_GT(dead_seen, 1000u);  // the harness exercises dead rules
}

TEST(Anomaly, DeadRulesMatchCoverageTreeOnSyntheticFleets) {
  std::size_t dead_seen = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FleetSynthConfig config;
    config.sites = 5;
    config.base.num_rules = 20;
    config.seed = seed;
    for (const Policy& device : make_fleet(config)) {
      const std::vector<std::size_t> dead = dead_rules(device);
      ASSERT_EQ(dead, dead_rules_by_coverage_tree(device)) << "seed " << seed;
      dead_seen += dead.size();
    }
  }
  EXPECT_GT(dead_seen, 0u);
}

TEST(Anomaly, DeadRulesStopOnceCoverageSaturates) {
  // A leading catch-all covers every packet: the diagram is one terminal,
  // every later append returns it unchanged, and the rules after it are
  // all dead without a node of their own.
  std::mt19937_64 rng(3);
  const Schema s = tiny3();
  std::vector<Rule> rules{Rule::catch_all(s, kAccept)};
  const Policy tail = test::random_policy(s, 40, rng);
  rules.insert(rules.end(), tail.rules().begin(), tail.rules().end());
  const Policy p(s, std::move(rules));
  Budgets budgets;
  budgets.max_nodes = 1000000;
  RunContext context = RunContext::with_budgets(budgets);
  AnomalyOptions options;
  options.run.context = &context;
  std::vector<std::size_t> expected;
  for (std::size_t i = 1; i < p.size(); ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(dead_rules(p, options), expected);
  EXPECT_LE(context.nodes_charged(), 2u);  // the terminal root
}

TEST(Anomaly, DeadRulesCopyNothingForMaskedRules) {
  // Staggered cubes, then a smaller cube inside each: every inner cube
  // cuts across edges the outer cubes split, but reaches no uncovered
  // packet, so it is dead and splits (copies) nothing. The diagram is the
  // one without the inner cubes.
  const Schema s({{"a", Interval(0, 4095), FieldKind::kInteger},
                  {"b", Interval(0, 4095), FieldKind::kInteger},
                  {"c", Interval(0, 4095), FieldKind::kInteger}});
  std::vector<Rule> cubes;
  for (std::size_t i = 0; i < 8; ++i) {
    const IntervalSet span(Interval(i * 64, i * 64 + 2048));
    cubes.emplace_back(s, std::vector<IntervalSet>{span, span, span},
                       i % 2 == 0 ? kAccept : kDiscard);
  }
  std::vector<Rule> masked = cubes;
  for (std::size_t i = 0; i < 8; ++i) {
    const IntervalSet inner(Interval(i * 64 + 10, i * 64 + 1000));
    masked.emplace_back(s, std::vector<IntervalSet>{inner, inner, inner},
                        i % 2 == 0 ? kDiscard : kAccept);
  }
  const auto nodes_charged = [](const Policy& p) {
    RunContext context;
    AnomalyOptions options;
    options.run.context = &context;
    (void)dead_rules(p, options);
    return context.nodes_charged();
  };
  const Policy outer(s, cubes);
  const Policy with_inner(s, masked);
  EXPECT_EQ(dead_rules(with_inner).size(), cubes.size());
  EXPECT_EQ(nodes_charged(with_inner), nodes_charged(outer));
}

TEST(Anomaly, KindNames) {
  EXPECT_STREQ(to_string(AnomalyKind::kShadowing), "shadowing");
  EXPECT_STREQ(to_string(AnomalyKind::kGeneralization), "generalization");
  EXPECT_STREQ(to_string(AnomalyKind::kCorrelation), "correlation");
  EXPECT_STREQ(to_string(AnomalyKind::kRedundancyPair), "redundancy-pair");
}

}  // namespace
}  // namespace dfw
