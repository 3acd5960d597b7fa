// Tests for the hash-consed FDD arena (fdd/arena.hpp): interning
// invariants, canonical-by-construction equality with the tree pipeline's
// reduce(), lossless tree bridges, memoised semantic operations, and the
// randomized equivalence harness the arena's correctness argument rests
// on — arena and tree pipelines must be indistinguishable from outside.

#include "fdd/arena.hpp"

#include <gtest/gtest.h>

#include <random>

#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/reduce.hpp"
#include "fdd/shape.hpp"
#include "gen/generate.hpp"
#include "rt/govern.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

Packet random_packet(const Schema& schema, std::mt19937_64& rng) {
  Packet p(schema.field_count());
  for (std::size_t f = 0; f < schema.field_count(); ++f) {
    std::uniform_int_distribution<Value> pick(schema.domain(f).lo(),
                                              schema.domain(f).hi());
    p[f] = pick(rng);
  }
  return p;
}

TEST(FddArena, TerminalsAreInterned) {
  FddArena arena(test::tiny2());
  EXPECT_EQ(arena.terminal(kAccept), arena.terminal(kAccept));
  EXPECT_EQ(arena.terminal(kDiscard), arena.terminal(kDiscard));
  EXPECT_NE(arena.terminal(kAccept), arena.terminal(kDiscard));
  EXPECT_EQ(arena.unique_node_count(), 2u);
}

TEST(FddArena, LabelsAreInterned) {
  FddArena arena(test::tiny2());
  const IntervalSet a({Interval(0, 3)});
  const IntervalSet b({Interval(0, 3), Interval(5, 7)});
  EXPECT_EQ(arena.intern(a), arena.intern(a));
  EXPECT_NE(arena.intern(a), arena.intern(b));
  EXPECT_EQ(arena.label(arena.intern(b)), b);
  EXPECT_EQ(arena.stats().unique_labels, 2u);
}

TEST(FddArena, StructurallyIdenticalNodesShareAnId) {
  FddArena arena(test::tiny2());
  const ArenaNodeId acc = arena.terminal(kAccept);
  const ArenaNodeId dis = arena.terminal(kDiscard);
  const ArenaLabelId lo = arena.intern(IntervalSet(Interval(0, 3)));
  const ArenaLabelId hi = arena.intern(IntervalSet(Interval(4, 7)));
  const ArenaNodeId n1 = arena.internal(1, {{lo, acc}, {hi, dis}});
  const ArenaNodeId n2 = arena.internal(1, {{hi, dis}, {lo, acc}});
  EXPECT_EQ(n1, n2);  // edge order is normalised before interning
  const ArenaNodeId n3 = arena.internal(1, {{lo, dis}, {hi, acc}});
  EXPECT_NE(n1, n3);
}

TEST(FddArena, CanonicalMergesAndSplices) {
  const Schema schema = test::tiny2();
  FddArena arena(schema);
  const ArenaNodeId acc = arena.terminal(kAccept);
  const ArenaLabelId lo = arena.intern(IntervalSet(Interval(0, 3)));
  const ArenaLabelId hi = arena.intern(IntervalSet(Interval(4, 7)));
  // Both edges reach the same child: labels merge to the full domain, the
  // resulting single-edge node is spliced away.
  EXPECT_EQ(arena.canonical(1, {{lo, acc}, {hi, acc}}), acc);
  // A genuine split is kept.
  const ArenaNodeId dis = arena.terminal(kDiscard);
  const ArenaNodeId split = arena.canonical(1, {{lo, acc}, {hi, dis}});
  EXPECT_FALSE(arena.is_terminal(split));
  EXPECT_EQ(arena.edges(split).size(), 2u);
}

TEST(FddArena, BuildReducedMatchesTreeReducedPipeline) {
  // Canonical-by-construction must land on the same diagram as the tree
  // pipeline's reduce(build_fdd()): the reduced ordered FDD is unique.
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    const Schema schema = round % 2 == 0 ? test::tiny2() : test::tiny3();
    const Policy policy = test::random_policy(schema, 8, rng);
    const Fdd tree = test::tree_reduced_fdd(policy);
    FddArena arena(schema);
    const ArenaNodeId root = arena.build_reduced(policy);
    const Fdd expanded = arena.to_fdd(root);
    EXPECT_TRUE(structurally_equal(expanded, tree));
    EXPECT_TRUE(test::fdd_matches_policy(expanded, policy));
    arena.validate(root);
    for (const Packet& p : test::all_packets(schema)) {
      EXPECT_EQ(arena.evaluate(root, p), policy.evaluate(p));
    }
  }
}

TEST(FddArena, DefaultBuildReducedFddUsesArenaAndMatchesTreePath) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 10; ++round) {
    const Policy policy = test::random_policy(test::tiny3(), 10, rng);
    EXPECT_TRUE(structurally_equal(build_reduced_fdd(policy),
                                   test::tree_reduced_fdd(policy)));
  }
}

TEST(FddArena, TreeRoundTripIsLossless) {
  std::mt19937_64 rng(3);
  for (int round = 0; round < 20; ++round) {
    const Policy policy = test::random_policy(test::tiny2(), 6, rng);
    const Fdd tree = test::tree_reduced_fdd(policy);
    FddArena arena(tree.schema());
    const ArenaNodeId root = arena.from_tree(tree.root());
    EXPECT_TRUE(structurally_equal(arena.to_fdd(root), tree));
  }
}

TEST(FddArena, FromTreeCanonicalIsReduce) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    const Policy policy = test::random_policy(test::tiny3(), 8, rng);
    Fdd reduced = build_fdd(policy);
    FddArena arena(reduced.schema());
    const ArenaNodeId root = arena.from_tree_canonical(reduced.root());
    reduce(reduced);
    EXPECT_TRUE(structurally_equal(arena.to_fdd(root), reduced));
  }
}

TEST(FddArena, AppendIsCopyOnWrite) {
  // Appending never mutates existing ids: the old root keeps evaluating
  // the old policy after the append.
  const Schema schema = test::tiny2();
  std::mt19937_64 rng(13);
  const Policy policy = test::random_policy(schema, 6, rng);
  FddArena arena(schema);
  const ArenaNodeId root = arena.build_reduced(policy);
  std::vector<IntervalSet> conjuncts{IntervalSet(Interval(1, 2)),
                                     IntervalSet(Interval(0, 7))};
  // The appended rule loses to every earlier rule (first-match), so the
  // new root is the same function; the old root must be untouched too.
  const ArenaNodeId appended = arena.append_rule(
      root, Rule(schema, conjuncts, kAccept));
  for (const Packet& p : test::all_packets(schema)) {
    EXPECT_EQ(arena.evaluate(root, p), policy.evaluate(p));
    EXPECT_EQ(arena.evaluate(appended, p), policy.evaluate(p));
  }
}

TEST(FddArena, ShapePairProducesSemiIsomorphicEquivalents) {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = test::tiny3();
    const Policy pa = test::random_policy(schema, 7, rng);
    const Policy pb = test::random_policy(schema, 7, rng);
    FddArena arena(schema);
    const ArenaNodeId a = arena.build_reduced(pa);
    const ArenaNodeId b = arena.build_reduced(pb);
    const auto [sa, sb] = arena.shape_pair(a, b);
    EXPECT_TRUE(arena.semi_isomorphic(sa, sb));
    arena.validate(sa);
    arena.validate(sb);
    for (const Packet& p : test::all_packets(schema)) {
      EXPECT_EQ(arena.evaluate(sa, p), pa.evaluate(p));
      EXPECT_EQ(arena.evaluate(sb, p), pb.evaluate(p));
    }
    // Shaping a diagram against itself is the O(1) identity.
    const auto [ta, tb] = arena.shape_pair(a, a);
    EXPECT_EQ(ta, a);
    EXPECT_EQ(tb, a);
  }
}

TEST(FddArena, CanonicalizeIsTheCanonicalImageOfTheTree) {
  // A shaped diagram is not reduced; its in-arena canonical image must be
  // the id a tree round trip through from_tree_canonical lands on.
  std::mt19937_64 rng(19);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = test::tiny3();
    FddArena arena(schema);
    const ArenaNodeId a = arena.build_reduced(test::random_policy(schema, 7, rng));
    const ArenaNodeId b = arena.build_reduced(test::random_policy(schema, 7, rng));
    const auto [sa, sb] = arena.shape_pair(a, b);
    EXPECT_EQ(arena.canonicalize(sa), arena.from_tree_canonical(*arena.to_tree(sa)));
    EXPECT_EQ(arena.canonicalize(sa), a);
    EXPECT_EQ(arena.canonicalize(sb), b);
  }
}

TEST(FddArena, CorrectReplacesDiscrepantTerminalsInCompareOrder) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = test::tiny3();
    const Policy pa = test::random_policy(schema, 7, rng);
    const Policy pb = test::random_policy(schema, 7, rng);
    FddArena arena(schema);
    std::vector<ArenaNodeId> roots = {arena.build_reduced(pa),
                                      arena.build_reduced(pb)};
    arena.shape_all(roots);
    const std::vector<Discrepancy> diffs = arena.compare(roots);
    // Agree with team b on every discrepancy: correcting a yields b.
    std::vector<Decision> agreed;
    for (const Discrepancy& d : diffs) {
      agreed.push_back(d.decisions[1]);
    }
    const ArenaNodeId corrected = arena.correct(roots, 0, agreed);
    EXPECT_EQ(corrected, roots[1]);
    // Agreeing with the base changes nothing.
    std::vector<Decision> keep;
    for (const Discrepancy& d : diffs) {
      keep.push_back(d.decisions[0]);
    }
    EXPECT_EQ(arena.correct(roots, 0, keep), roots[0]);
    agreed.push_back(kAccept);
    EXPECT_THROW(arena.correct(roots, 0, agreed), std::logic_error);
    if (!diffs.empty()) {
      keep.pop_back();
      EXPECT_THROW(arena.correct(roots, 0, keep), std::logic_error);
    }
  }
}

TEST(FddArena, ValidateMatchesTreeMessages) {
  const Schema schema = test::tiny2();
  FddArena arena(schema);
  // A partial diagram: field 0 only covers [0,3].
  const ArenaNodeId acc = arena.terminal(kAccept);
  const ArenaNodeId partial = arena.internal(
      0, {{arena.intern(IntervalSet(Interval(0, 3))), acc}});
  arena.validate(partial, /*require_complete=*/false);
  try {
    arena.validate(partial);
    FAIL() << "expected completeness violation";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "FDD: completeness violated at field x");
  }
}

// -- Randomized equivalence harness -----------------------------------------
//
// ~200 synthetic five-tuple policies (100 base/perturbed pairs): the arena
// pipeline and the tree pipeline must agree decision-for-decision under
// packet sampling and produce byte-identical discrepancy reports.

TEST(FddArenaEquivalence, PairwiseDiscrepanciesMatchTreePipeline) {
  Rng rng(2026);
  std::mt19937_64 packet_rng(42);
  for (int round = 0; round < 100; ++round) {
    SynthConfig config;
    config.num_rules = 20 + static_cast<std::size_t>(round % 30);
    const Policy a = synth_policy(config, rng);
    const Policy b = perturb_policy(a, 20.0, rng);
    const std::vector<Discrepancy> via_arena = discrepancies(a, b);
    const std::vector<Discrepancy> via_tree = test::tree_discrepancies({a, b});
    ASSERT_EQ(via_arena, via_tree) << "round " << round;

    // Decision-for-decision agreement under packet sampling.
    FddArena arena(a.schema());
    const ArenaNodeId root = arena.build_reduced(a);
    const Fdd tree = test::tree_reduced_fdd(a);
    for (int s = 0; s < 20; ++s) {
      const Packet p = random_packet(a.schema(), packet_rng);
      const Decision expected = a.evaluate(p);
      EXPECT_EQ(arena.evaluate(root, p), expected);
      EXPECT_EQ(tree.evaluate(p), expected);
    }
  }
}

TEST(FddArenaEquivalence, NWayDiscrepanciesMatchTreePipeline) {
  Rng rng(99);
  for (int round = 0; round < 25; ++round) {
    SynthConfig config;
    config.num_rules = 25;
    const Policy a = synth_policy(config, rng);
    std::vector<Policy> teams{a, perturb_policy(a, 15.0, rng),
                              perturb_policy(a, 30.0, rng)};
    EXPECT_EQ(discrepancies_many(teams), test::tree_discrepancies(teams))
        << "round " << round;
  }
}

TEST(FddArenaEquivalence, GeneratedPoliciesStayEquivalent) {
  // gen off the DAG must produce exactly the tree generator's policy: the
  // election metric and tie-breaks are the same, memoisation only changes
  // the cost of computing them.
  std::mt19937_64 rng(23);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = test::tiny3();
    const Policy policy = test::random_policy(schema, 9, rng);
    const Fdd fdd = test::tree_reduced_fdd(policy);
    const Policy generated = generate_policy(fdd);
    for (const Packet& p : test::all_packets(schema)) {
      EXPECT_EQ(generated.evaluate(p), policy.evaluate(p));
    }
  }
}

TEST(FddArenaEquivalence, StatsAreDeterministicAcrossRuns) {
  Rng rng_a(7);
  Rng rng_b(7);
  SynthConfig config;
  config.num_rules = 60;
  const Policy pa = synth_policy(config, rng_a);
  const Policy pb = synth_policy(config, rng_b);

  const auto run = [](const Policy& p) {
    FddArena arena(p.schema());
    const ArenaNodeId root = arena.build_reduced(p);
    arena.validate(root);
    return arena.stats();
  };
  const ArenaStats first = run(pa);
  const ArenaStats second = run(pb);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.unique_nodes, 0u);
  EXPECT_FALSE(to_string(first).empty());
}

TEST(FddArenaEquivalence, SharingShrinksTheDiagram) {
  // The whole point: on a nontrivial policy the hash-consed diagram holds
  // far fewer nodes than its tree expansion.
  Rng rng(1234);
  SynthConfig config;
  config.num_rules = 300;
  const Policy policy = synth_policy(config, rng);
  FddArena arena(policy.schema());
  const ArenaNodeId root = arena.build_reduced(policy);
  EXPECT_LT(arena.reachable_node_count(root),
            arena.expanded_node_count(root));
}

// -- Unique tables -----------------------------------------------------------

/// Feeds the first `nodes` node records and `labels` labels of `arena` back
/// through its unique tables: each must come back as its own id, as a hit.
void expect_reinterned_to_themselves(FddArena& arena, std::size_t nodes,
                                     std::size_t labels) {
  const ArenaStats before = arena.stats();
  for (ArenaLabelId l = 0; l < labels; ++l) {
    const IntervalSet copy = arena.label(l);
    ASSERT_EQ(arena.intern(copy), l) << "label " << l;
  }
  for (ArenaNodeId n = 0; n < nodes; ++n) {
    if (arena.is_terminal(n)) {
      ASSERT_EQ(arena.terminal(arena.decision(n)), n) << "node " << n;
      continue;
    }
    const std::span<const ArenaEdge> edges = arena.edges(n);
    ASSERT_EQ(arena.internal(arena.field(n), {edges.begin(), edges.end()}),
              n)
        << "node " << n;
  }
  const ArenaStats after = arena.stats();
  EXPECT_EQ(after.unique_nodes, before.unique_nodes);
  EXPECT_EQ(after.unique_labels, before.unique_labels);
  EXPECT_EQ(after.node_hits - before.node_hits, nodes);
  EXPECT_EQ(after.label_hits - before.label_hits, labels);
}

void expect_counts_balance(const ArenaStats& s) {
  EXPECT_EQ(s.unique_nodes + s.node_hits, s.node_queries);
  EXPECT_EQ(s.unique_labels + s.label_hits, s.label_queries);
}

std::vector<Policy> synth_policies(std::uint64_t seed,
                                   std::initializer_list<std::size_t> sizes) {
  Rng rng(seed);
  std::vector<Policy> out;
  for (const std::size_t rules : sizes) {
    SynthConfig config;
    config.num_rules = rules;
    out.push_back(synth_policy(config, rng));
  }
  return out;
}

TEST(FddArenaTables, ReinternReturnsOriginalIdsAcrossTableGrowth) {
  // Several 100-300-rule policies in one arena: thousands of nodes and
  // labels, so both tables double many times from their initial size.
  const std::vector<Policy> policies =
      synth_policies(2024, {100, 300, 200, 150});
  FddArena arena(policies[0].schema());
  for (const Policy& policy : policies) {
    const ArenaNodeId root = arena.build_reduced(policy);
    EXPECT_TRUE(structurally_equal(
        arena.to_fdd(root), test::tree_reduced_fdd(policy)));
    expect_counts_balance(arena.stats());
  }
  ASSERT_GT(arena.unique_node_count(), 2000u);
  ASSERT_GT(arena.stats().unique_labels, 2000u);
  expect_reinterned_to_themselves(arena, arena.unique_node_count(),
                                  arena.stats().unique_labels);
  expect_counts_balance(arena.stats());
}

TEST(FddArenaTables, NodeBudgetBreachMidAppendLeavesTablesConsistent) {
  const std::vector<Policy> policies = synth_policies(99, {200, 250});
  // How many nodes the second build adds on top of the first, ungoverned.
  std::size_t needed = 0;
  ArenaNodeId expected_root = 0;
  {
    FddArena probe(policies[0].schema());
    probe.build_reduced(policies[0]);
    const std::size_t before = probe.unique_node_count();
    expected_root = probe.build_reduced(policies[1]);
    needed = probe.unique_node_count() - before;
  }
  ASSERT_GT(needed, 100u);

  FddArena arena(policies[0].schema());
  arena.build_reduced(policies[0]);
  const std::size_t before = arena.unique_node_count();
  RunContext ctx = RunContext::with_budgets({.max_nodes = needed / 2});
  arena.set_context(&ctx);
  try {
    arena.build_reduced(policies[1]);
    FAIL() << "a budget of half the nodes needed was not breached";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNodeBudgetExceeded);
  }
  arena.set_context(nullptr);
  // The breach fired mid-build: the nodes made before it stay interned,
  // and the one query it cut short neither hit nor created a node.
  EXPECT_EQ(arena.unique_node_count(), before + needed / 2);
  const ArenaStats cut = arena.stats();
  EXPECT_EQ(cut.unique_nodes + cut.node_hits + 1, cut.node_queries);
  EXPECT_EQ(cut.unique_labels + cut.label_hits, cut.label_queries);
  expect_reinterned_to_themselves(arena, arena.unique_node_count(),
                                  arena.stats().unique_labels);
  // The unwound append left nothing behind that a fresh build could trip
  // over: the same sequence of node creations resumes to the same root.
  EXPECT_EQ(arena.build_reduced(policies[1]), expected_root);
  EXPECT_TRUE(structurally_equal(arena.to_fdd(expected_root),
                                 test::tree_reduced_fdd(policies[1])));
}

}  // namespace
}  // namespace dfw
