// Redundancy detection/removal tests (resolution method 2's engine).
//
// The one-pass first/second-match kernel is checked against two slow
// oracles: brute force over every packet of a tiny schema, and the
// definitional per-rule rebuild (drop the rule, build its reduced FDD,
// compare) on synthetic fleet devices.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "gen/redundancy.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

Policy without_rule(const Policy& policy, std::size_t index) {
  Policy rest = policy;
  rest.erase(index);
  return rest;
}

// Brute force: rule i is redundant iff dropping it leaves every packet's
// first-match decision (or fall-through) unchanged; nothing is redundant
// in a policy that is not comprehensive or has a single rule.
std::vector<std::size_t> brute_force_redundant(const Policy& policy) {
  const std::vector<Packet> packets = test::all_packets(policy.schema());
  const auto decide = [](const Policy& p, const Packet& packet) {
    const std::optional<std::size_t> first = p.first_match(packet);
    return first ? std::optional<Decision>(p.rule(*first).decision())
                 : std::nullopt;
  };
  std::vector<std::size_t> result;
  if (policy.size() < 2 ||
      std::any_of(packets.begin(), packets.end(), [&](const Packet& p) {
        return !policy.first_match(p).has_value();
      })) {
    return result;
  }
  for (std::size_t i = 0; i < policy.size(); ++i) {
    const Policy rest = without_rule(policy, i);
    if (std::all_of(packets.begin(), packets.end(), [&](const Packet& p) {
          return decide(rest, p) == decide(policy, p);
        })) {
      result.push_back(i);
    }
  }
  return result;
}

// The per-rule rebuild that redundant_rules used before the one-pass
// kernel: one candidate FDD build, validation and full equivalence check
// per rule.
bool oracle_is_redundant(const Policy& policy, std::size_t index) {
  if (policy.size() < 2) {
    return false;
  }
  const Policy candidate = without_rule(policy, index);
  try {
    build_reduced_fdd(candidate).validate();
  } catch (const std::logic_error&) {
    return false;  // candidate not comprehensive -> mapping changed
  }
  return discrepancies(policy, candidate).empty();
}

std::vector<std::size_t> oracle_redundant_rules(const Policy& policy) {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < policy.size(); ++i) {
    if (oracle_is_redundant(policy, i)) {
      result.push_back(i);
    }
  }
  return result;
}

// The greedy back-to-front removal, one oracle check per step.
Policy oracle_remove_redundant(const Policy& policy) {
  Policy current = policy;
  bool removed = true;
  while (removed) {
    removed = false;
    for (std::size_t i = current.size(); i-- > 0;) {
      if (oracle_is_redundant(current, i)) {
        current.erase(i);
        removed = true;
      }
    }
  }
  return current;
}

Rule rule(const Schema& s, Interval x, Interval y, Decision d) {
  return Rule(s, {IntervalSet(x), IntervalSet(y)}, d);
}

TEST(Redundancy, DetectsShadowedRule) {
  const Schema s = tiny2();
  // Rule 2 is fully shadowed by rule 1 (upward redundancy).
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(2, 4), Interval(1, 3), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  EXPECT_FALSE(is_redundant(p, 0));
  EXPECT_TRUE(is_redundant(p, 1));
  EXPECT_FALSE(is_redundant(p, 2));
}

TEST(Redundancy, DetectsDownwardRedundantRule) {
  const Schema s = tiny2();
  // Rule 1 decides like the catch-all and nothing between them differs.
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kAccept)});
  EXPECT_TRUE(is_redundant(p, 0));
}

TEST(Redundancy, CatchAllIsNotRedundantWhenItDecidesTraffic) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  EXPECT_FALSE(is_redundant(p, 0));
  EXPECT_FALSE(is_redundant(p, 1));
}

TEST(Redundancy, RedundantRulesListsOriginalIndices) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 7), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     rule(s, Interval(3, 4), Interval(3, 4), kDiscard),
                     Rule::catch_all(s, kAccept)});
  const std::vector<std::size_t> redundant = redundant_rules(p);
  // Rules 2 and 3 are shadowed; the catch-all duplicates rule 1's
  // decision, so removing *either* one alone preserves semantics.
  EXPECT_EQ(redundant, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Redundancy, RemoveRedundantPreservesSemantics) {
  std::mt19937_64 rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    const Policy p = test::random_policy(tiny3(), 6, rng);
    const Policy trimmed = remove_redundant(p);
    EXPECT_LE(trimmed.size(), p.size());
    EXPECT_TRUE(equivalent(p, trimmed));
    // Nothing left to remove.
    EXPECT_TRUE(redundant_rules(trimmed).empty());
  }
}

TEST(Redundancy, DuplicateRulesCollapse) {
  const Schema s = tiny2();
  const Rule r = rule(s, Interval(0, 3), Interval(0, 3), kDiscard);
  const Policy p(s, {r, r, r, Rule::catch_all(s, kAccept)});
  const Policy trimmed = remove_redundant(p);
  EXPECT_EQ(trimmed.size(), 2u);
  EXPECT_TRUE(equivalent(p, trimmed));
}

TEST(Redundancy, SingleRulePolicyUntouched) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kAccept)});
  EXPECT_FALSE(is_redundant(p, 0));
  EXPECT_TRUE(redundant_rules(p).empty());
  EXPECT_EQ(remove_redundant(p).size(), 1u);
  // A lone rule that leaves packets undecided is not removable either.
  const Policy partial(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept)});
  EXPECT_FALSE(is_redundant(partial, 0));
  EXPECT_TRUE(redundant_rules(partial).empty());
}

TEST(Redundancy, NonComprehensivePolicyHasNoRedundantRules) {
  const Schema s = tiny2();
  // Rule 2 duplicates rule 1 and rule 3 is shadowed, but packets with
  // x in [6, 7] match nothing, so no removal is judged.
  const Rule r = rule(s, Interval(0, 5), Interval(0, 7), kAccept);
  const Policy p(s, {r, r, rule(s, Interval(1, 2), Interval(0, 3), kDiscard)});
  EXPECT_TRUE(brute_force_redundant(p).empty());
  EXPECT_TRUE(redundant_rules(p).empty());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_FALSE(is_redundant(p, i));
  }
  EXPECT_EQ(remove_redundant(p).rules(), p.rules());
}

TEST(Redundancy, MatchesBruteForceOnTinySchemas) {
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<std::size_t> size_pick(2, 10);
  std::uniform_int_distribution<int> decision_pick(0, 2);
  for (int trial = 0; trial < 2400; ++trial) {
    const Schema schema = trial % 2 == 0 ? tiny2() : tiny3();
    Policy p = test::random_policy(schema, size_pick(rng), rng);
    if (trial % 3 == 0) {
      // A third decision, so equal-decision fall-through is not just
      // "the other one of two".
      std::vector<Rule> rules = p.rules();
      for (Rule& r : rules) {
        r.set_decision(static_cast<Decision>(decision_pick(rng)));
      }
      p = Policy(schema, std::move(rules));
    }
    const std::vector<std::size_t> expected = brute_force_redundant(p);
    ASSERT_EQ(redundant_rules(p), expected) << "trial " << trial;
    for (std::size_t i = 0; i < p.size(); ++i) {
      ASSERT_EQ(is_redundant(p, i),
                std::binary_search(expected.begin(), expected.end(), i))
          << "trial " << trial << " rule " << i;
    }
  }
}

TEST(Redundancy, MatchesPerRuleRebuildOracleOnFleetDevices) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FleetSynthConfig config;
    config.sites = 3;
    config.base.num_rules = 20;
    config.seed = seed;
    for (const Policy& device : make_fleet(config)) {
      ASSERT_EQ(redundant_rules(device), oracle_redundant_rules(device))
          << "seed " << seed;
    }
  }
}

TEST(Redundancy, RemoveRedundantMatchesGreedyOracle) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const Policy p =
        test::random_policy(trial % 2 == 0 ? tiny2() : tiny3(), 8, rng);
    ASSERT_EQ(remove_redundant(p).rules(), oracle_remove_redundant(p).rules())
        << "trial " << trial;
  }
  FleetSynthConfig config;
  config.sites = 2;
  config.base.num_rules = 12;
  for (const Policy& device : make_fleet(config)) {
    EXPECT_EQ(remove_redundant(device).rules(),
              oracle_remove_redundant(device).rules());
  }
}

TEST(Redundancy, IndexOutOfRangeRejected) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kAccept)});
  EXPECT_THROW(is_redundant(p, 1), std::out_of_range);
}

}  // namespace
}  // namespace dfw
