#include "gen/redundancy.hpp"

#include <algorithm>
#include <stdexcept>

#include "rt/govern.hpp"

namespace dfw {
namespace {

// The first/second-match diagram: a full-depth partial FDD built by the
// Fig. 7 append in rule order, whose terminals record the first matching
// rule of their packets and whether a second rule matches them yet.
// Removing rule i changes exactly the packets it matches first, which
// then fall through to their second match; so i is redundant iff every
// terminal whose first match is i gets a second match with i's decision.
// That is decided as each second match arrives, so a terminal is final
// (saturated) from then on and later appends skip it.
class MatchDiagram {
 public:
  MatchDiagram(const Policy& policy, RunContext* context)
      : policy_(policy),
        depth_(policy.schema().field_count()),
        context_(context),
        needed_(policy.size(), false) {
    govern::charge_nodes(context_);
    nodes_.emplace_back();  // the root: field 0, no edges yet
  }

  // Indices (ascending) of the redundant rules; empty when the policy is
  // not comprehensive.
  std::vector<std::size_t> redundant_rules() {
    for (std::size_t i = 0; i < policy_.size(); ++i) {
      if (nodes_[0].saturated) {
        break;  // every packet has two matches: later rules are all dead
      }
      append(0, 0, i);
    }
    if (!finish(0, 0)) {
      return {};
    }
    std::vector<std::size_t> result;
    for (std::size_t i = 0; i < policy_.size(); ++i) {
      if (!needed_[i]) {
        result.push_back(i);
      }
    }
    return result;
  }

 private:
  struct Edge {
    IntervalSet label;
    std::size_t target = 0;
  };
  struct Node {
    std::vector<Edge> edges;  // empty at a terminal
    IntervalSet covered;      // union of the edge labels
    std::size_t first = 0;    // terminal: the first matching rule
    bool saturated = false;   // every packet below has a second match
  };

  // Fresh decision path of `rule` from `field` down: the packets under it
  // match no earlier rule, so `rule` is their first match.
  std::size_t path(std::size_t rule, std::size_t field) {
    govern::charge_nodes(context_);
    Node node;
    if (field == depth_) {
      node.first = rule;
    } else {
      node.covered = policy_.rule(rule).conjunct(field);
      node.edges.push_back({node.covered, path(rule, field + 1)});
    }
    nodes_.push_back(std::move(node));
    return nodes_.size() - 1;
  }

  // Subgraph replication for an edge split. A saturated subtree never
  // changes again, so the copy shares it instead of replicating it.
  std::size_t clone(std::size_t v) {
    if (nodes_[v].saturated) {
      return v;
    }
    govern::charge_nodes(context_);
    Node copy = nodes_[v];
    for (Edge& e : copy.edges) {
      e.target = clone(e.target);
    }
    nodes_.push_back(std::move(copy));
    return nodes_.size() - 1;
  }

  // APPEND of Fig. 7 at node v (labeled `field`). Indices, not references:
  // path() and clone() grow nodes_.
  void append(std::size_t v, std::size_t field, std::size_t rule) {
    govern::checkpoint(context_);
    if (field == depth_) {
      // Reached only unsaturated, so this is the second match.
      Node& terminal = nodes_[v];
      terminal.saturated = true;
      if (policy_.rule(rule).decision() !=
          policy_.rule(terminal.first).decision()) {
        needed_[terminal.first] = true;
      }
      return;
    }
    const IntervalSet& s = policy_.rule(rule).conjunct(field);
    const IntervalSet uncovered = s.subtract(nodes_[v].covered);
    const std::size_t original_edges = nodes_[v].edges.size();
    for (std::size_t k = 0; k < original_edges; ++k) {
      std::size_t target = nodes_[v].edges[k].target;
      if (nodes_[target].saturated) {
        continue;  // later rules never decide anything below
      }
      IntervalSet common = nodes_[v].edges[k].label.intersect(s);
      if (common.empty()) {
        continue;
      }
      if (common != nodes_[v].edges[k].label) {
        nodes_[v].edges[k].label = nodes_[v].edges[k].label.subtract(common);
        target = clone(target);
        nodes_[v].edges.push_back({std::move(common), target});
      }
      append(target, field + 1, rule);
    }
    if (!uncovered.empty()) {
      const std::size_t fresh = path(rule, field + 1);
      nodes_[v].covered = nodes_[v].covered.unite(uncovered);
      nodes_[v].edges.push_back({uncovered, fresh});
    }
    Node& node = nodes_[v];
    node.saturated =
        node.covered == policy_.schema().domain_set(field) &&
        std::all_of(node.edges.begin(), node.edges.end(),
                    [&](const Edge& e) { return nodes_[e.target].saturated; });
  }

  // Marks the first rule of every terminal left without a second match as
  // needed; false iff some packet matches no rule at all.
  bool finish(std::size_t v, std::size_t field) {
    const Node& node = nodes_[v];
    if (node.saturated) {
      return true;
    }
    if (field == depth_) {
      needed_[node.first] = true;
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
  std::vector<bool> needed_;
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
  return MatchDiagram(policy, context).redundant_rules();
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
