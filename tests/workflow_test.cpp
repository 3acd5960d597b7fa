// DiverseDesign session tests: submission gating, comparison phases, and
// end-to-end resolution.

#include <gtest/gtest.h>

#include "diverse/workflow.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

TEST(Workflow, SubmitValidatesComprehensiveness) {
  DiverseDesign session((DecisionSet()));
  const Schema s = tiny2();
  const Policy partial(
      s, {Rule(s, {IntervalSet(Interval(0, 3)), IntervalSet(Interval(0, 7))},
               kAccept)});
  EXPECT_THROW(session.submit("team", partial), std::logic_error);
  EXPECT_EQ(session.team_count(), 0u);
}

TEST(Workflow, SubmitRejectsSchemaMismatch) {
  std::mt19937_64 rng(1);
  DiverseDesign session((DecisionSet()));
  session.submit("a", test::random_policy(tiny2(), 3, rng));
  EXPECT_THROW(session.submit("b", test::random_policy(tiny3(), 3, rng)),
               std::invalid_argument);
}

TEST(Workflow, CompareNeedsTwoTeams) {
  std::mt19937_64 rng(2);
  DiverseDesign session((DecisionSet()));
  EXPECT_THROW(session.compare(), std::logic_error);
  session.submit("a", test::random_policy(tiny2(), 3, rng));
  EXPECT_THROW(session.compare(), std::logic_error);
  EXPECT_THROW(session.cross_compare(), std::logic_error);
}

TEST(Workflow, SubmitAfterCompareComparesAgain) {
  // A session keeps its comparison for resolve; a later submit must
  // replace it, never serve the comparison of fewer teams.
  std::mt19937_64 rng(5);
  std::vector<Policy> teams;
  for (int i = 0; i < 3; ++i) {
    teams.push_back(test::random_policy(tiny3(), 5, rng));
  }
  DiverseDesign growing((DecisionSet()));
  growing.submit("t0", teams[0]);
  growing.submit("t1", teams[1]);
  (void)growing.compare();
  growing.submit("t2", teams[2]);
  EXPECT_EQ(growing.compare(), discrepancies_many(teams));
}

TEST(Workflow, CrossCompareCoversAllPairs) {
  std::mt19937_64 rng(3);
  DiverseDesign session((DecisionSet()));
  for (int i = 0; i < 3; ++i) {
    session.submit("t" + std::to_string(i),
                   test::random_policy(tiny3(), 4, rng));
  }
  const std::vector<PairwiseReport> reports = session.cross_compare();
  ASSERT_EQ(reports.size(), 3u);  // (0,1), (0,2), (1,2)
  EXPECT_EQ(reports[0].team_a, 0u);
  EXPECT_EQ(reports[0].team_b, 1u);
  EXPECT_EQ(reports[2].team_a, 1u);
  EXPECT_EQ(reports[2].team_b, 2u);
}

TEST(Workflow, CrossCompareMatchesPerPairTreeOracle) {
  // cross_compare shapes and compares the diagrams the session built at
  // submit; each pair's report must equal the tree pipeline run on that
  // pair of policies alone. Odd rounds compare directly first, so the
  // pairs run on an arena that already holds the direct shaping.
  Rng rng(2026);
  for (std::size_t k = 2; k <= 5; ++k) {
    for (int round = 0; round < 6; ++round) {
      std::vector<Policy> teams;
      if (round < 4) {
        SynthConfig config;
        config.num_rules = 10 + 15 * static_cast<std::size_t>(round);
        teams.push_back(synth_policy(config, rng));
        while (teams.size() < k) {
          teams.push_back(perturb_policy(teams.front(), 15.0, rng));
        }
      } else {
        while (teams.size() < k) {
          teams.push_back(test::random_policy(tiny3(), 6, rng));
        }
      }
      DiverseDesign session((DecisionSet()));
      for (std::size_t t = 0; t < k; ++t) {
        session.submit("t" + std::to_string(t), teams[t]);
      }
      if (round % 2 == 1) {
        (void)session.compare();
      }
      const std::vector<PairwiseReport> reports = session.cross_compare();
      ASSERT_EQ(reports.size(), k * (k - 1) / 2);
      std::size_t i = 0;
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a + 1; b < k; ++b, ++i) {
          EXPECT_EQ(reports[i].team_a, a);
          EXPECT_EQ(reports[i].team_b, b);
          EXPECT_TRUE(reports[i].complete);
          EXPECT_EQ(reports[i].discrepancies,
                    test::tree_discrepancies({teams[a], teams[b]}))
              << "K " << k << ", round " << round << ", pair " << a << ","
              << b;
        }
      }
      EXPECT_EQ(session.cross_compare(), reports);
    }
  }
}

TEST(Workflow, PairwiseUnionMatchesDirectComparison) {
  std::mt19937_64 rng(4);
  DiverseDesign session((DecisionSet()));
  for (int i = 0; i < 3; ++i) {
    session.submit("t" + std::to_string(i),
                   test::random_policy(tiny3(), 4, rng));
  }
  const std::vector<Discrepancy> direct = session.compare();
  const std::vector<PairwiseReport> pairs = session.cross_compare();
  // A packet is in some direct discrepancy iff it is in some pairwise one.
  for (const Packet& pkt : test::all_packets(tiny3())) {
    const auto in_any = [&](const std::vector<Discrepancy>& diffs) {
      for (const Discrepancy& d : diffs) {
        bool inside = true;
        for (std::size_t f = 0; f < pkt.size(); ++f) {
          inside = inside && d.conjuncts[f].contains(pkt[f]);
        }
        if (inside) {
          return true;
        }
      }
      return false;
    };
    bool in_pairwise = false;
    for (const PairwiseReport& r : pairs) {
      in_pairwise = in_pairwise || in_any(r.discrepancies);
    }
    EXPECT_EQ(in_any(direct), in_pairwise);
  }
}

TEST(Workflow, ResolveInFavourOfWinnerIsEquivalentToWinner) {
  std::mt19937_64 rng(5);
  DiverseDesign session((DecisionSet()));
  session.submit("a", test::random_policy(tiny3(), 5, rng));
  session.submit("b", test::random_policy(tiny3(), 5, rng));
  for (const ResolutionMethod method :
       {ResolutionMethod::kCorrectedFdd, ResolutionMethod::kPrependAndTrim}) {
    const Policy final_policy = session.resolve_in_favour_of(1, method, 0);
    EXPECT_TRUE(equivalent(final_policy, session.policy(1)));
  }
}

TEST(Workflow, MajorityVoteThroughTheSession) {
  // Two of three teams share a design; majority resolution reproduces it
  // through either method regardless of the base team.
  std::mt19937_64 rng(7);
  const Policy consensus = test::random_policy(tiny3(), 4, rng);
  const Policy outlier = test::random_policy(tiny3(), 4, rng);
  DiverseDesign session((DecisionSet()));
  session.submit("a", consensus);
  session.submit("b", outlier);
  session.submit("c", consensus);
  const ResolutionPlan plan = plan_by_majority(session.compare(), 0);
  for (const ResolutionMethod method :
       {ResolutionMethod::kCorrectedFdd, ResolutionMethod::kPrependAndTrim}) {
    const Policy final_policy = session.resolve(plan, method, 1);
    EXPECT_TRUE(equivalent(final_policy, consensus));
  }
}

TEST(Workflow, PolicyAccessorBounds) {
  DiverseDesign session((DecisionSet()));
  EXPECT_THROW(session.policy(0), std::out_of_range);
}

TEST(Workflow, ReportOnEquivalentTeamsSaysSo) {
  std::mt19937_64 rng(6);
  DiverseDesign session((DecisionSet()));
  const Policy p = test::random_policy(tiny2(), 4, rng);
  session.submit("a", p);
  session.submit("b", p);
  EXPECT_NE(session.report().find("equivalent"), std::string::npos);
}

}  // namespace
}  // namespace dfw
