// Resolution-phase tests: both methods must realise the agreed mapping
// exactly, for arbitrary plans, any base team, and N >= 2 teams.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "diverse/resolve.hpp"
#include "diverse/workflow.hpp"
#include "fdd/construct.hpp"
#include "fdd/reduce.hpp"
#include "fdd/shape.hpp"
#include "fw/format.hpp"
#include "gen/generate.hpp"
#include "gen/redundancy.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::all_packets;
using test::tiny3;

// Applies a plan's semantics by brute force: for packets in discrepancy i
// the agreed decision; elsewhere the (unanimous) team decision.
Decision expected_decision(const std::vector<Policy>& teams,
                           const std::vector<Discrepancy>& diffs,
                           const ResolutionPlan& plan, const Packet& pkt) {
  for (const Resolution& r : plan) {
    const Discrepancy& d = diffs[r.discrepancy_index];
    bool inside = true;
    for (std::size_t f = 0; f < pkt.size(); ++f) {
      inside = inside && d.conjuncts[f].contains(pkt[f]);
    }
    if (inside) {
      return r.agreed;
    }
  }
  return teams[0].evaluate(pkt);
}

class ResolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(ResolveProperty, BothMethodsRealiseTheAgreedMapping) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<Policy> teams;
  for (int i = 0; i < 2; ++i) {
    teams.push_back(test::random_policy(tiny3(), 5, rng));
  }
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  // Random plan: agree with a random team per discrepancy.
  ResolutionPlan plan;
  std::uniform_int_distribution<std::size_t> team_pick(0, teams.size() - 1);
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    plan.push_back(adopt(i, diffs[i], team_pick(rng)));
  }
  for (std::size_t base = 0; base < teams.size(); ++base) {
    const Policy via_fdd = resolve_via_fdd(teams, plan, base);
    const Policy via_corr = resolve_via_corrections(teams, plan, base);
    for (const Packet& pkt : all_packets(tiny3())) {
      const Decision want = expected_decision(teams, diffs, plan, pkt);
      EXPECT_EQ(via_fdd.evaluate(pkt), want) << "method 1, base " << base;
      EXPECT_EQ(via_corr.evaluate(pkt), want) << "method 2, base " << base;
    }
  }
}

TEST_P(ResolveProperty, ThreeTeamsResolveConsistently) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 500);
  std::vector<Policy> teams;
  for (int i = 0; i < 3; ++i) {
    teams.push_back(test::random_policy(tiny3(), 4, rng));
  }
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  ResolutionPlan plan;
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    plan.push_back(adopt(i, diffs[i], i % teams.size()));
  }
  const Policy m1 = resolve_via_fdd(teams, plan, 1);
  const Policy m2 = resolve_via_corrections(teams, plan, 2);
  for (const Packet& pkt : all_packets(tiny3())) {
    EXPECT_EQ(m1.evaluate(pkt),
              expected_decision(teams, diffs, plan, pkt));
    EXPECT_EQ(m2.evaluate(pkt), m1.evaluate(pkt));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolveProperty, ::testing::Range(0, 10));

TEST(Resolve, AdoptValidatesTeamIndex) {
  Discrepancy d;
  d.decisions = {kAccept, kDiscard};
  EXPECT_EQ(adopt(0, d, 1).agreed, kDiscard);
  EXPECT_THROW(adopt(0, d, 2), std::invalid_argument);
}

TEST(Resolve, PlanValidationCatchesGaps) {
  std::mt19937_64 rng(9);
  std::vector<Policy> teams = {test::random_policy(tiny3(), 5, rng),
                               test::random_policy(tiny3(), 5, rng)};
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  if (diffs.empty()) {
    GTEST_SKIP() << "seed produced equivalent policies";
  }
  // Missing resolutions.
  EXPECT_THROW(resolve_via_fdd(teams, {}, 0), std::invalid_argument);
  // Duplicate resolution.
  ResolutionPlan dup;
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    dup.push_back({i, kAccept});
  }
  dup.push_back({0, kDiscard});
  EXPECT_THROW(resolve_via_fdd(teams, dup, 0), std::invalid_argument);
  // Out-of-range index.
  ResolutionPlan bad;
  bad.push_back({diffs.size(), kAccept});
  EXPECT_THROW(resolve_via_corrections(teams, bad, 0),
               std::invalid_argument);
}

TEST(Resolve, MajorityVotePlan) {
  Discrepancy two_one;
  two_one.decisions = {kAccept, kDiscard, kAccept};
  Discrepancy all_differ;
  all_differ.decisions = {kAccept, kDiscard, 2};
  const ResolutionPlan plan =
      plan_by_majority({two_one, all_differ}, /*arbiter_team=*/1);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].agreed, kAccept);   // 2:1 majority beats the arbiter
  EXPECT_EQ(plan[1].agreed, kDiscard);  // three-way tie: arbiter decides
  EXPECT_THROW(plan_by_majority({two_one}, 5), std::invalid_argument);
}

TEST(Resolve, MajorityVoteEndToEnd) {
  // Three teams, two agreeing: the majority plan makes the final firewall
  // equivalent to the two-team consensus wherever they agree.
  std::mt19937_64 rng(12);
  const Policy consensus = test::random_policy(tiny3(), 5, rng);
  const Policy outlier = test::random_policy(tiny3(), 5, rng);
  const std::vector<Policy> teams = {consensus, outlier, consensus};
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  const Policy final_policy =
      resolve_via_fdd(teams, plan_by_majority(diffs, 1), 1);
  for (const Packet& pkt : all_packets(tiny3())) {
    EXPECT_EQ(final_policy.evaluate(pkt), consensus.evaluate(pkt));
  }
}

TEST(Resolve, RejectsSingleTeam) {
  std::mt19937_64 rng(10);
  std::vector<Policy> one = {test::random_policy(tiny3(), 4, rng)};
  EXPECT_THROW(resolve_via_fdd(one, {}, 0), std::invalid_argument);
}

TEST(Resolve, RejectsUnknownBaseTeam) {
  std::mt19937_64 rng(11);
  std::vector<Policy> teams = {test::random_policy(tiny3(), 4, rng),
                               test::random_policy(tiny3(), 4, rng)};
  EXPECT_THROW(resolve_via_fdd(teams, {}, 5), std::invalid_argument);
  EXPECT_THROW(resolve_via_corrections(teams, {}, 5),
               std::invalid_argument);
}


// ---------------------------------------------------------------------------
// Oracle harness: a DiverseDesign session builds each team's diagram once
// in its arena and resolves on ids. The oracle resolves on trees: build
// and shape tree FDDs, compare them, overwrite the base team's discrepant
// terminals in place, then reduce and generate from the corrected tree
// (method 1) or prepend corrections and trim (method 2). No arena code
// runs in it.

std::vector<Fdd> oracle_shaped(const std::vector<Policy>& policies) {
  std::vector<Fdd> fdds;
  for (const Policy& p : policies) {
    fdds.push_back(test::tree_reduced_fdd(p));
    fdds.back().validate();
  }
  shape_all(fdds);
  return fdds;
}

// Walks the semi-isomorphic trees in the comparison's depth-first order;
// at each discrepant terminal overwrites `base`'s decision with the next
// agreed one.
void oracle_correct(const std::vector<FddNode*>& nodes, FddNode* base,
                    const std::vector<Decision>& agreed, std::size_t& next) {
  const FddNode* first = nodes.front();
  if (first->is_terminal()) {
    const bool all_equal =
        std::all_of(nodes.begin(), nodes.end(), [&](const FddNode* n) {
          return n->decision == first->decision;
        });
    if (!all_equal) {
      ASSERT_LT(next, agreed.size()) << "correction walk out of sync";
      base->decision = agreed[next++];
    }
    return;
  }
  for (std::size_t e = 0; e < first->edges.size(); ++e) {
    std::vector<FddNode*> children;
    for (FddNode* n : nodes) {
      children.push_back(n->edges[e].target.get());
    }
    oracle_correct(children, base->edges[e].target.get(), agreed, next);
  }
}

std::vector<Decision> agreed_decisions(std::size_t count,
                                       const ResolutionPlan& plan) {
  std::vector<Decision> agreed(count, kAccept);
  for (const Resolution& r : plan) {
    agreed[r.discrepancy_index] = r.agreed;
  }
  return agreed;
}

Policy oracle_resolve(const std::vector<Policy>& policies,
                      const ResolutionPlan& plan, std::size_t base_team,
                      ResolutionMethod method) {
  std::vector<Fdd> fdds = oracle_shaped(policies);
  const std::vector<Discrepancy> diffs = compare_fdds_many(fdds);
  const std::vector<Decision> agreed = agreed_decisions(diffs.size(), plan);
  if (method == ResolutionMethod::kPrependAndTrim) {
    const Policy& base = policies[base_team];
    std::vector<Rule> rules;
    for (std::size_t i = 0; i < diffs.size(); ++i) {
      if (diffs[i].decisions[base_team] != agreed[i]) {
        rules.emplace_back(base.schema(), diffs[i].conjuncts, agreed[i]);
      }
    }
    rules.insert(rules.end(), base.rules().begin(), base.rules().end());
    return remove_redundant(Policy(base.schema(), std::move(rules)));
  }
  std::vector<FddNode*> roots;
  for (Fdd& f : fdds) {
    roots.push_back(&f.mutable_root());
  }
  std::size_t next = 0;
  oracle_correct(roots, &fdds[base_team].mutable_root(), agreed, next);
  EXPECT_EQ(next, agreed.size());
  reduce(fdds[base_team]);
  GenerateOptions as_given;
  as_given.reduce_first = false;
  return generate_policy(fdds[base_team], as_given);
}

// Redraws about a third of the decisions of `p` from the first `count`
// decisions.
Policy redecide(const Policy& p, Decision count, Rng& rng) {
  std::uniform_int_distribution<Decision> pick(0, count - 1);
  std::bernoulli_distribution redraw(1.0 / 3);
  std::vector<Rule> rules = p.rules();
  for (Rule& r : rules) {
    if (redraw(rng)) {
      r.set_decision(pick(rng));
    }
  }
  return Policy(p.schema(), std::move(rules));
}

struct RandomSession {
  std::vector<Policy> teams;
  ResolutionPlan plan;
};

// A synth_policy base of 20-150 rules and K-1 = 1..3 perturbed teams; every
// third seed spreads the decisions over three or four decisions, on a base
// of at most 60 rules. Addresses are wildcarded less often than the synth
// default: method 2's greedy redundancy trim costs about one redundancy
// pass per removed rule, and the default's heavily overlapping rules make
// both many times larger, too slow for the sanitizer jobs.
std::vector<Policy> random_teams(std::uint64_t seed) {
  Rng rng(seed);
  const bool multi = seed % 3 == 0;
  SynthConfig config;
  config.num_rules = multi ? 20 + seed % 41 : 20 + (seed * 37) % 131;
  config.sip = {10, 30, 60};
  config.dip = {5, 60, 35};
  Policy base = synth_policy(config, rng);
  if (multi) {
    base = redecide(base, 3 + static_cast<Decision>(seed % 2), rng);
  }
  const std::size_t k = 2 + (seed % 7) % 3;
  std::vector<Policy> teams = {base};
  std::uniform_real_distribution<double> percent(2.0, 12.0);
  while (teams.size() < k) {
    teams.push_back(perturb_policy(base, percent(rng), rng));
  }
  if (multi) {
    // Perturbation flips toward accept/discard only; redraw one team so
    // the extra decisions also differ between teams.
    teams.back() = redecide(teams.back(), 4, rng);
  }
  return teams;
}

DecisionSet four_decisions() {
  DecisionSet set;
  set.add("accept_log");
  set.add("discard_log");
  return set;
}

class SessionOracle : public ::testing::TestWithParam<int> {};

TEST_P(SessionOracle, CompareAndResolveMatchTheTreePath) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<Policy> teams = random_teams(seed);
  const DecisionSet names = four_decisions();
  DiverseDesign session(names);
  for (std::size_t t = 0; t < teams.size(); ++t) {
    session.submit("t" + std::to_string(t), teams[t]);
  }

  const std::vector<Discrepancy> diffs = session.compare();
  ASSERT_EQ(diffs, test::tree_discrepancies(teams)) << "seed " << seed;

  Rng rng(seed + 1000);
  std::uniform_int_distribution<std::size_t> team_pick(0, teams.size() - 1);
  ResolutionPlan plan;
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    plan.push_back(adopt(i, diffs[i], team_pick(rng)));
  }
  std::shuffle(plan.begin(), plan.end(), rng);
  for (std::size_t base = 0; base < teams.size(); ++base) {
    for (const ResolutionMethod method :
         {ResolutionMethod::kCorrectedFdd, ResolutionMethod::kPrependAndTrim}) {
      const Policy got = session.resolve(plan, method, base);
      const Policy want = oracle_resolve(teams, plan, base, method);
      EXPECT_EQ(format_policy(got, names), format_policy(want, names))
          << "seed " << seed << ", K " << teams.size() << ", base " << base
          << ", method " << static_cast<int>(method);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionOracle, ::testing::Range(1, 51));

TEST(SessionOracleFixed, FreeFunctionsMatchTheSession) {
  // The free entry points are one-shot sessions; they must agree with a
  // long-lived session that compared first.
  const std::vector<Policy> teams = random_teams(5);
  DiverseDesign session((DecisionSet()));
  for (std::size_t t = 0; t < teams.size(); ++t) {
    session.submit("t" + std::to_string(t), teams[t]);
  }
  const ResolutionPlan plan = plan_by_majority(session.compare(), 0);
  for (std::size_t base = 0; base < teams.size(); ++base) {
    EXPECT_EQ(resolve_via_fdd(teams, plan, base).rules(),
              session.resolve(plan, ResolutionMethod::kCorrectedFdd, base)
                  .rules());
    EXPECT_EQ(
        resolve_via_corrections(teams, plan, base).rules(),
        session.resolve(plan, ResolutionMethod::kPrependAndTrim, base)
            .rules());
  }
}

}  // namespace
}  // namespace dfw
