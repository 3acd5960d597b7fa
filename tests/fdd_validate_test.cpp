// FDD invariant checking: validate() must pinpoint each violated property
// (consistency, completeness, ordering, domain containment), and accept
// hand-built diagrams that satisfy all of them. The arena's validate must
// report the first defect the tree's validate reports, message for message.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "fdd/arena.hpp"
#include "fdd/fdd.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;

std::unique_ptr<FddNode> leaf(Decision d) {
  return FddNode::make_terminal(d);
}

TEST(FddValidate, AcceptsWellFormedDiagram) {
  auto root = FddNode::make_internal(0);
  auto y0 = FddNode::make_internal(1);
  y0->edges.emplace_back(IntervalSet(Interval(0, 7)), leaf(kAccept));
  root->edges.emplace_back(IntervalSet(Interval(0, 3)), std::move(y0));
  auto y1 = FddNode::make_internal(1);
  y1->edges.emplace_back(IntervalSet(Interval(0, 2)), leaf(kDiscard));
  y1->edges.emplace_back(IntervalSet(Interval(3, 7)), leaf(kAccept));
  root->edges.emplace_back(IntervalSet(Interval(4, 7)), std::move(y1));
  const Fdd fdd(tiny2(), std::move(root));
  fdd.validate();
  EXPECT_EQ(fdd.evaluate({5, 1}), kDiscard);
}

TEST(FddValidate, DetectsConsistencyViolation) {
  auto root = FddNode::make_internal(0);
  root->edges.emplace_back(IntervalSet(Interval(0, 4)), leaf(kAccept));
  root->edges.emplace_back(IntervalSet(Interval(4, 7)), leaf(kDiscard));
  const Fdd fdd(Schema({{"x", Interval(0, 7), FieldKind::kInteger}}),
                std::move(root));
  EXPECT_THROW(fdd.validate(), std::logic_error);
}

TEST(FddValidate, DetectsCompletenessViolation) {
  auto root = FddNode::make_internal(0);
  root->edges.emplace_back(IntervalSet(Interval(0, 4)), leaf(kAccept));
  const Fdd fdd(Schema({{"x", Interval(0, 7), FieldKind::kInteger}}),
                std::move(root));
  EXPECT_THROW(fdd.validate(), std::logic_error);
  fdd.validate(/*require_complete=*/false);
}

TEST(FddValidate, DetectsFieldOrderViolation) {
  // y above x violates the schema's total order (Definition 4.1).
  auto root = FddNode::make_internal(1);
  auto child = FddNode::make_internal(0);
  child->edges.emplace_back(IntervalSet(Interval(0, 7)), leaf(kAccept));
  root->edges.emplace_back(IntervalSet(Interval(0, 7)), std::move(child));
  const Fdd fdd(tiny2(), std::move(root));
  EXPECT_THROW(fdd.validate(), std::logic_error);
}

TEST(FddValidate, DetectsRepeatedFieldOnPath) {
  auto root = FddNode::make_internal(0);
  auto child = FddNode::make_internal(0);  // same field again
  child->edges.emplace_back(IntervalSet(Interval(0, 7)), leaf(kAccept));
  root->edges.emplace_back(IntervalSet(Interval(0, 7)), std::move(child));
  const Fdd fdd(tiny2(), std::move(root));
  EXPECT_THROW(fdd.validate(), std::logic_error);
}

TEST(FddValidate, DetectsDomainEscape) {
  auto root = FddNode::make_internal(0);
  root->edges.emplace_back(IntervalSet(Interval(0, 9)), leaf(kAccept));
  const Fdd fdd(Schema({{"x", Interval(0, 7), FieldKind::kInteger}}),
                std::move(root));
  EXPECT_THROW(fdd.validate(), std::logic_error);
}

TEST(FddValidate, DetectsEmptyNonterminal) {
  auto root = FddNode::make_internal(0);
  const Fdd fdd(tiny2(), std::move(root));
  EXPECT_THROW(fdd.validate(), std::logic_error);
}

TEST(FddValidate, DetectsUnknownFieldIndex) {
  auto root = FddNode::make_internal(5);
  root->edges.emplace_back(IntervalSet(Interval(0, 7)), leaf(kAccept));
  const Fdd fdd(tiny2(), std::move(root));
  EXPECT_THROW(fdd.validate(), std::logic_error);
}

TEST(FddValidate, ConstantFddIsValid) {
  const Fdd fdd = Fdd::constant(tiny2(), kDiscard);
  fdd.validate();
  EXPECT_EQ(fdd.evaluate({0, 0}), kDiscard);
  EXPECT_EQ(fdd.path_count(), 1u);
}

TEST(FddValidate, NullRootRejected) {
  EXPECT_THROW(Fdd(tiny2(), nullptr), std::invalid_argument);
}

TEST(FddValidate, EvaluateRejectsWrongArity) {
  const Fdd fdd = Fdd::constant(tiny2(), kAccept);
  EXPECT_THROW(fdd.evaluate({1}), std::invalid_argument);
}

TEST(FddValidate, SemiIsomorphismIgnoresDecisionsOnly) {
  auto make = [](Decision left, Decision right) {
    auto root = FddNode::make_internal(0);
    root->edges.emplace_back(IntervalSet(Interval(0, 3)), leaf(left));
    root->edges.emplace_back(IntervalSet(Interval(4, 7)), leaf(right));
    return Fdd(Schema({{"x", Interval(0, 7), FieldKind::kInteger}}),
               std::move(root));
  };
  EXPECT_TRUE(semi_isomorphic(make(kAccept, kAccept),
                              make(kDiscard, kAccept)));
  EXPECT_TRUE(structurally_equal(make(kAccept, kDiscard),
                                 make(kAccept, kDiscard)));
  EXPECT_FALSE(structurally_equal(make(kAccept, kDiscard),
                                  make(kDiscard, kDiscard)));
}

/// The message validate() throws, or "" when the diagram is accepted.
std::string defect(const std::function<void()>& check) {
  try {
    check();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

/// A random partition of `domain` into 1-3 labels, each the union of one
/// or more of up to four contiguous pieces (so labels can have several
/// runs).
std::vector<IntervalSet> random_partition(const Interval& domain,
                                          std::mt19937_64& rng) {
  std::vector<Value> cuts{domain.lo()};
  std::uniform_int_distribution<Value> point(domain.lo() + 1, domain.hi());
  for (int i = 0; i < 3; ++i) {
    cuts.push_back(point(rng));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::uniform_int_distribution<std::size_t> pick(0, 2);
  std::vector<IntervalSet> labels(3);
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const Value hi = i + 1 < cuts.size() ? cuts[i + 1] - 1 : domain.hi();
    labels[pick(rng)].add(Interval(cuts[i], hi));
  }
  std::erase_if(labels, [](const IntervalSet& l) { return l.empty(); });
  return labels;
}

TEST(FddValidate, ArenaReportsTheTreesFirstDefect) {
  // Random DAGs of mostly well-formed nodes, salted with every label
  // defect an arena node can hold (overlap, gap, domain escape) and with
  // field-order violations. The tree validate of the expanded diagram is
  // the oracle: it visits the same edges in the same depth-first order.
  const Schema s = test::tiny3();
  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<std::size_t> field_pick(
      0, s.field_count() - 1);
  std::map<std::string, std::size_t> seen;
  for (int trial = 0; trial < 10000; ++trial) {
    FddArena arena(s);
    std::vector<ArenaNodeId> pool{arena.terminal(kAccept),
                                  arena.terminal(kDiscard)};
    for (int n = 0; n < 8; ++n) {
      const std::size_t f = field_pick(rng);
      const Interval domain = s.domain(f);
      std::vector<IntervalSet> labels = random_partition(domain, rng);
      const int roll = pct(rng);
      if (roll < 4 && labels.size() > 1) {
        labels.pop_back();  // gap
      } else if (roll < 8) {
        std::uniform_int_distribution<Value> point(domain.lo(), domain.hi());
        const Value v = point(rng);
        labels.push_back(IntervalSet(Interval(v, v)));  // overlap
      } else if (roll < 11) {
        labels.back().add(Interval(domain.hi(), domain.hi() + 2));
      }
      std::vector<ArenaNodeId> below;
      for (const ArenaNodeId id : pool) {
        if (arena.is_terminal(id) || arena.field(id) > f) {
          below.push_back(id);
        }
      }
      std::vector<ArenaEdge> edges;
      for (const IntervalSet& label : labels) {
        const std::vector<ArenaNodeId>& from = pct(rng) < 3 ? pool : below;
        std::uniform_int_distribution<std::size_t> target(0, from.size() - 1);
        edges.push_back({arena.intern(label), from[target(rng)]});
      }
      pool.push_back(arena.internal(f, std::move(edges)));
    }
    const ArenaNodeId root = pool.back();
    const Fdd tree = arena.to_fdd(root);
    for (const bool complete : {true, false}) {
      const std::string expected =
          defect([&] { tree.validate(complete); });
      ASSERT_EQ(defect([&] { arena.validate(root, complete); }), expected)
          << "trial " << trial;
      std::string kind = "accepted";
      for (const char* k : {"consistency", "completeness", "exceeds",
                            "order"}) {
        if (expected.find(k) != std::string::npos) {
          kind = k;
        }
      }
      ++seen[kind];
    }
  }
  // Every outcome occurs: acceptance and each kind of defect.
  for (const char* kind : {"accepted", "consistency", "completeness",
                           "exceeds", "order"}) {
    EXPECT_GT(seen[kind], 100u) << kind;
  }
}

}  // namespace
}  // namespace dfw
