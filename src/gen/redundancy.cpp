#include "gen/redundancy.hpp"

#include <algorithm>
#include <stdexcept>

#include "rt/govern.hpp"

namespace dfw {
namespace {

// The second-match diagram: a full-depth partial FDD built by the Fig. 7
// append in rule order, whose terminals record the first matching rule of
// their packets. Removing rule i changes exactly the packets it matches
// first, which then fall through to their second match; so i is redundant
// iff every terminal whose first match is i gets a second match with i's
// decision, decided as each second match arrives. A subtree is final
// (saturated) once every packet below has its second match; all saturated
// subtrees are one shared sentinel node, which later appends skip and
// edge splits share instead of copying. Once the root saturates, every
// remaining rule is decided without being appended.
class MatchDiagram {
 public:
  MatchDiagram(const Policy& policy, RunContext* context)
      : policy_(policy),
        depth_(policy.schema().field_count()),
        context_(context),
        kept_(policy.size(), false) {
    add(Node{});  // kSaturated
    root_ = add(Node{});
    for (std::size_t i = 0; i < policy_.size() && root_ != kSaturated;
         ++i) {
      root_ = append(root_, 0, i);
    }
  }

  // Indices (ascending) of the redundant rules (none when the policy is
  // not comprehensive).
  std::vector<std::size_t> redundant() {
    if (!finish(root_, 0)) {
      return {};
    }
    std::vector<std::size_t> result;
    for (std::size_t i = 0; i < policy_.size(); ++i) {
      if (!kept_[i]) {
        result.push_back(i);
      }
    }
    return result;
  }

 private:
  static constexpr std::size_t kSaturated = 0;

  struct Edge {
    IntervalSet label;
    std::size_t target = 0;
  };
  struct Node {
    std::vector<Edge> edges;  // empty at a terminal
    IntervalSet covered;      // union of the edge labels
    std::size_t first = 0;    // terminal: the first matching rule
  };

  std::size_t add(Node node) {
    govern::charge_nodes(context_);
    nodes_.push_back(std::move(node));
    return nodes_.size() - 1;
  }

  bool saturated(const Node& node, std::size_t field) const {
    return node.covered == policy_.schema().domain_set(field) &&
           std::all_of(node.edges.begin(), node.edges.end(),
                       [](const Edge& e) { return e.target == kSaturated; });
  }

  // Fresh decision path of `rule` from `field` down: the packets under it
  // match no earlier rule, so `rule` is their first match (and the path,
  // awaiting their second, is never saturated).
  std::size_t path(std::size_t rule, std::size_t field) {
    if (field == depth_) {
      return add(Node{{}, {}, rule});
    }
    Node node;
    node.covered = policy_.rule(rule).conjunct(field);
    node.edges.push_back({node.covered, path(rule, field + 1)});
    return add(std::move(node));
  }

  // Subgraph replication for an edge split.
  std::size_t clone(std::size_t v) {
    if (v == kSaturated) {
      return v;
    }
    Node copy = nodes_[v];
    for (Edge& e : copy.edges) {
      e.target = clone(e.target);
    }
    return add(std::move(copy));
  }

  // True iff appending `rule` at v (labeled `field`) would change the
  // diagram: some packet of the rule below v is unmatched or, at a
  // terminal, not yet saturated.
  bool reaches(std::size_t v, std::size_t field, std::size_t rule) const {
    govern::checkpoint(context_);
    if (field == depth_) {
      return true;
    }
    const Node& node = nodes_[v];
    const IntervalSet& s = policy_.rule(rule).conjunct(field);
    if (!node.covered.contains(s)) {
      return true;
    }
    return std::any_of(node.edges.begin(), node.edges.end(),
                       [&](const Edge& e) {
                         return e.target != kSaturated &&
                                e.label.overlaps(s) &&
                                reaches(e.target, field + 1, rule);
                       });
  }

  // APPEND of Fig. 7 at the unsaturated node v (labeled `field`), in
  // place; returns v, or kSaturated once v is. An edge the rule only
  // partly covers is split only when the rule reaches below it, so a
  // rule that changes nothing copies nothing. Indices, not references:
  // add() grows nodes_.
  std::size_t append(std::size_t v, std::size_t field, std::size_t rule) {
    govern::checkpoint(context_);
    if (field == depth_) {
      // The second match of the terminal's packets.
      const std::size_t first = nodes_[v].first;
      if (policy_.rule(rule).decision() != policy_.rule(first).decision()) {
        kept_[first] = true;
      }
      return kSaturated;
    }
    const IntervalSet& s = policy_.rule(rule).conjunct(field);
    const std::size_t original_edges = nodes_[v].edges.size();
    for (std::size_t k = 0; k < original_edges; ++k) {
      const std::size_t target = nodes_[v].edges[k].target;
      if (target == kSaturated || !nodes_[v].edges[k].label.overlaps(s)) {
        continue;
      }
      if (s.contains(nodes_[v].edges[k].label)) {
        const std::size_t appended = append(target, field + 1, rule);
        nodes_[v].edges[k].target = appended;
        continue;
      }
      if (!reaches(target, field + 1, rule)) {
        continue;
      }
      IntervalSet common = nodes_[v].edges[k].label.intersect(s);
      nodes_[v].edges[k].label = nodes_[v].edges[k].label.subtract(common);
      const std::size_t appended = append(clone(target), field + 1, rule);
      nodes_[v].edges.push_back({std::move(common), appended});
    }
    if (!nodes_[v].covered.contains(s)) {
      IntervalSet uncovered = s.subtract(nodes_[v].covered);
      const std::size_t fresh = path(rule, field + 1);
      nodes_[v].covered = nodes_[v].covered.unite(uncovered);
      nodes_[v].edges.push_back({std::move(uncovered), fresh});
    }
    return saturated(nodes_[v], field) ? kSaturated : v;
  }

  // Keeps the first rule of every terminal left without a second match;
  // false iff some packet matches no rule at all.
  bool finish(std::size_t v, std::size_t field) {
    if (v == kSaturated) {
      return true;
    }
    const Node& node = nodes_[v];
    if (field == depth_) {
      kept_[node.first] = true;
      return true;
    }
    if (node.covered != policy_.schema().domain_set(field)) {
      return false;
    }
    return std::all_of(
        node.edges.begin(), node.edges.end(),
        [&](const Edge& e) { return finish(e.target, field + 1); });
  }

  const Policy& policy_;
  const std::size_t depth_;
  RunContext* context_;
  std::vector<Node> nodes_;
  std::size_t root_ = 0;
  // Removing the rule changes some packet's decision.
  std::vector<bool> kept_;
};

}  // namespace

bool is_redundant(const Policy& policy, std::size_t index) {
  return is_redundant(policy, index, nullptr);
}

bool is_redundant(const Policy& policy, std::size_t index,
                  RunContext* context) {
  if (index >= policy.size()) {
    throw std::out_of_range("is_redundant: index out of range");
  }
  const std::vector<std::size_t> redundant = redundant_rules(policy, context);
  return std::binary_search(redundant.begin(), redundant.end(), index);
}

std::vector<std::size_t> redundant_rules(const Policy& policy) {
  return redundant_rules(policy, nullptr);
}

std::vector<std::size_t> redundant_rules(const Policy& policy,
                                         RunContext* context) {
  if (policy.size() < 2) {
    return {};  // the only rule of a policy is never removable
  }
  return MatchDiagram(policy, context).redundant();
}

Policy remove_redundant(const Policy& policy) {
  // Greedy back to front: each step removes the highest rule redundant in
  // the current policy below the last removal; past the front, the next
  // sweep starts again at the back.
  Policy current = policy;
  std::size_t cursor = current.size();
  for (;;) {
    const std::vector<std::size_t> redundant = redundant_rules(current);
    if (redundant.empty()) {
      return current;
    }
    const auto below =
        std::lower_bound(redundant.begin(), redundant.end(), cursor);
    cursor = below == redundant.begin() ? redundant.back() : *(below - 1);
    current.erase(cursor);
  }
}

}  // namespace dfw
