#include "fdd/arena.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "rt/fault.hpp"
#include "rt/govern.hpp"

namespace dfw {
namespace {

constexpr ArenaNodeId kNoNode = static_cast<ArenaNodeId>(-1);

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_label(const IntervalSet& s) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const Interval& iv : s.intervals()) {
    h = mix(h, iv.lo());
    h = mix(h, iv.hi());
  }
  return h;
}

std::uint64_t pack_pair(ArenaNodeId a, ArenaNodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

struct IdVectorHash {
  std::size_t operator()(const std::vector<ArenaNodeId>& v) const {
    std::uint64_t h = 0xb7e151628aed2a6bull;
    for (const ArenaNodeId id : v) {
      h = mix(h, id);
    }
    return static_cast<std::size_t>(h);
  }
};

bool wildcard(const Schema& schema, const Rule& rule, std::size_t field) {
  return rule.conjunct(field) == schema.domain_set(field);
}

}  // namespace

FddArena::FddArena(Schema schema) : schema_(std::move(schema)) {}

void FddArena::UniqueTable::insert(std::size_t slot, std::uint64_t hash,
                                   std::uint32_t id) {
  slots_[slot] = {hash, id};
  if (++size_ * 2 <= slots_.size()) {
    return;
  }
  std::vector<Slot> old(std::size_t{1} << ++bits_);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id != kEmpty) {
      std::size_t i = home(s.hash);
      while (slots_[i].id != kEmpty) {
        i = (i + 1) & mask;
      }
      slots_[i] = s;
    }
  }
}

ArenaLabelId FddArena::intern(const IntervalSet& label) {
  ++stats_.label_queries;
  const std::uint64_t h = hash_label(label);
  const std::size_t slot = label_table_.find(
      h, [&](ArenaLabelId id) { return labels_[id] == label; });
  if (const ArenaLabelId id = label_table_.id(slot);
      id != UniqueTable::kEmpty) {
    ++stats_.label_hits;
    return id;
  }
  // Charge before materialising: a breach leaves the tables untouched.
  govern::charge_label_bytes(
      govern_, label.intervals().size() * sizeof(Interval) + sizeof(label));
  const ArenaLabelId id = static_cast<ArenaLabelId>(labels_.size());
  labels_.push_back(label);
  label_table_.insert(slot, h, id);
  stats_.unique_labels = labels_.size();
  return id;
}

bool FddArena::record_equals(const NodeRecord& r, std::uint32_t field,
                             Decision decision,
                             std::span<const ArenaEdge> edges) const {
  return r.field == field && r.decision == decision &&
         r.edge_count == edges.size() &&
         std::equal(edges.begin(), edges.end(),
                    edge_pool_.begin() + r.edge_begin);
}

ArenaNodeId FddArena::intern_node(std::uint32_t field, Decision decision,
                                  std::span<const ArenaEdge> edges) {
  ++stats_.node_queries;
  std::uint64_t h = mix(0x13198a2e03707344ull, field);
  h = mix(h, decision);
  for (const ArenaEdge& e : edges) {
    h = mix(h, e.label);
    h = mix(h, e.target);
  }
  const std::size_t slot = node_table_.find(h, [&](ArenaNodeId id) {
    return record_equals(nodes_[id], field, decision, edges);
  });
  if (const ArenaNodeId id = node_table_.id(slot);
      id != UniqueTable::kEmpty) {
    ++stats_.node_hits;
    return id;
  }
  // Node creation is the arena's unit of memory growth and of forward
  // progress: charge the node budget and take the amortized cancellation/
  // deadline checkpoint here, before the tables are touched. The fault
  // site sits at the same point — an injected allocation failure unwinds
  // exactly where a real budget breach (or bad_alloc) would.
  govern::charge_nodes(govern_);
  govern::checkpoint(govern_);
  fault::hit(faults_, fault::sites::kArenaAlloc);
  const ArenaNodeId id = static_cast<ArenaNodeId>(nodes_.size());
  NodeRecord record;
  record.field = field;
  record.decision = decision;
  record.edge_begin = static_cast<std::uint32_t>(edge_pool_.size());
  record.edge_count = static_cast<std::uint32_t>(edges.size());
  edge_pool_.insert(edge_pool_.end(), edges.begin(), edges.end());
  nodes_.push_back(record);
  node_table_.insert(slot, h, id);
  stats_.unique_nodes = nodes_.size();
  return id;
}

ArenaNodeId FddArena::terminal(Decision d) {
  return intern_node(kArenaTerminalField, d, {});
}

ArenaNodeId FddArena::internal(std::size_t field,
                               std::vector<ArenaEdge> edges) {
  return internal_run(field, edges);
}

ArenaNodeId FddArena::internal_run(std::size_t field,
                                   std::span<ArenaEdge> edges) {
  if (field >= schema_.field_count()) {
    throw std::invalid_argument("FddArena::internal: unknown field index");
  }
  if (edges.empty()) {
    throw std::invalid_argument("FddArena::internal: node needs an edge");
  }
  std::sort(edges.begin(), edges.end(),
            [this](const ArenaEdge& a, const ArenaEdge& b) {
              return labels_[a.label].min() < labels_[b.label].min();
            });
  return intern_node(static_cast<std::uint32_t>(field), kAccept, edges);
}

ArenaNodeId FddArena::canonical(std::size_t field,
                                std::vector<ArenaEdge> edges) {
  return canonical_run(field, edges);
}

ArenaNodeId FddArena::canonical_run(std::size_t field,
                                    std::span<ArenaEdge> edges) {
  // Sibling merge: children are canonical, so id equality is semantic
  // equality, and edges pointing at the same child unite their labels.
  bool any_shared = false;
  for (std::size_t i = 1; i < edges.size() && !any_shared; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (edges[i].target == edges[j].target) {
        any_shared = true;
        break;
      }
    }
  }
  if (any_shared) {
    // In order of first appearance, each target keeps one edge, labelled
    // with the union of its edges' labels (re-interned even when alone, so
    // the label-table counters do not depend on how the merge is done).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const ArenaNodeId target = edges[i].target;
      if (target == kNoNode) {
        continue;  // folded into an earlier edge
      }
      std::optional<IntervalSet> merged;
      for (std::size_t j = i + 1; j < edges.size(); ++j) {
        if (edges[j].target == target) {
          if (!merged) {
            merged = labels_[edges[i].label];
          }
          for (const Interval& iv : labels_[edges[j].label].intervals()) {
            merged->add(iv);
          }
          edges[j].target = kNoNode;
        }
      }
      edges[kept++] = {intern(merged ? *merged : labels_[edges[i].label]),
                       target};
    }
    edges = edges.first(kept);
  }
  // Splice: a single edge spanning the whole domain decides nothing.
  if (edges.size() == 1 &&
      labels_[edges[0].label] == schema_.domain_set(field)) {
    return edges[0].target;
  }
  return internal_run(field, edges);
}

std::size_t FddArena::reachable_node_count(ArenaNodeId root) const {
  std::vector<ArenaNodeId> stack{root};
  std::unordered_map<ArenaNodeId, bool> seen;
  std::size_t count = 0;
  while (!stack.empty()) {
    const ArenaNodeId id = stack.back();
    stack.pop_back();
    if (seen[id]) {
      continue;
    }
    seen[id] = true;
    ++count;
    for (const ArenaEdge& e : edges(id)) {
      stack.push_back(e.target);
    }
  }
  return count;
}

std::size_t FddArena::expanded_node_count(ArenaNodeId root) const {
  std::unordered_map<ArenaNodeId, std::size_t> memo;
  const auto visit = [&](auto&& self, ArenaNodeId id) -> std::size_t {
    const auto it = memo.find(id);
    if (it != memo.end()) {
      return it->second;
    }
    std::size_t total = 1;
    for (const ArenaEdge& e : edges(id)) {
      const std::size_t sub = self(self, e.target);
      total = (total > SIZE_MAX - sub) ? SIZE_MAX : total + sub;
    }
    memo.emplace(id, total);
    return total;
  };
  return visit(visit, root);
}

ArenaNodeId FddArena::from_tree_impl(const FddNode& node, bool canonicalize) {
  if (node.is_terminal()) {
    return terminal(node.decision);
  }
  std::vector<ArenaEdge> out;
  out.reserve(node.edges.size());
  for (const FddEdge& e : node.edges) {
    const ArenaNodeId child = from_tree_impl(*e.target, canonicalize);
    out.push_back({intern(e.label), child});
  }
  return canonicalize ? canonical(node.field, std::move(out))
                      : internal(node.field, std::move(out));
}

ArenaNodeId FddArena::from_tree(const FddNode& node) {
  return from_tree_impl(node, false);
}

ArenaNodeId FddArena::from_tree_canonical(const FddNode& node) {
  return from_tree_impl(node, true);
}

ArenaNodeId FddArena::canonicalize(ArenaNodeId root) {
  if (is_terminal(root)) {
    return root;
  }
  if (const auto it = canonical_cache_.find(root);
      it != canonical_cache_.end()) {
    return it->second;
  }
  // Children first, as from_tree_canonical does; edges() is re-read after
  // every recursion because interning may grow the edge pool.
  std::vector<ArenaEdge> out;
  out.reserve(edges(root).size());
  for (std::size_t i = 0; i < edges(root).size(); ++i) {
    const ArenaEdge e = edges(root)[i];
    out.push_back({e.label, canonicalize(e.target)});
  }
  const ArenaNodeId result = canonical(field(root), std::move(out));
  canonical_cache_.emplace(root, result);
  return result;
}

std::unique_ptr<FddNode> FddArena::to_tree(ArenaNodeId root) const {
  // Expansion un-shares the DAG, so a compact diagram can still explode
  // here: every tree node built is charged, shared subdiagrams once per
  // reference.
  govern::charge_nodes(govern_);
  govern::checkpoint(govern_);
  if (is_terminal(root)) {
    return FddNode::make_terminal(decision(root));
  }
  auto node = FddNode::make_internal(field(root));
  const std::span<const ArenaEdge> out = edges(root);
  node->edges.reserve(out.size());
  for (const ArenaEdge& e : out) {
    node->edges.emplace_back(labels_[e.label], to_tree(e.target));
  }
  return node;
}

Fdd FddArena::to_fdd(ArenaNodeId root) const {
  return Fdd(schema_, to_tree(root));
}

// ---------------------------------------------------------------------------
// Construction (Fig. 7) with copy-on-write appends.

namespace {

/// Per-rule state for one append pass: the memo makes appending the same
/// rule to a shared subdiagram an O(1) lookup, the path cache builds the
/// rule's decision path once per suffix instead of once per branch, and
/// the per-field wildcard flags and off-conjunct sets are computed once
/// per rule instead of once per visit.
struct AppendCtx {
  const Rule& rule;
  std::vector<char> wild;                               // per-field wildcard
  std::vector<IntervalSet> outside;                     // domain \ conjunct
  std::unordered_map<std::uint64_t, ArenaNodeId> memo;  // (node, field) keys
  std::vector<ArenaNodeId> path;                        // per-field suffix
};

}  // namespace

ArenaNodeId FddArena::append_rule(ArenaNodeId root, const Rule& rule) {
  if (rule.conjuncts().size() != schema_.field_count()) {
    throw std::invalid_argument("append_rule: rule arity mismatch");
  }
  const std::size_t d = schema_.field_count();
  AppendCtx ctx{rule, std::vector<char>(d), std::vector<IntervalSet>(d), {},
                std::vector<ArenaNodeId>(d + 1, kNoNode)};
  for (std::size_t f = 0; f < d; ++f) {
    ctx.wild[f] = wildcard(schema_, rule, f);
    if (!ctx.wild[f]) {
      ctx.outside[f] = schema_.domain_set(f).subtract(rule.conjunct(f));
    }
  }
  // An append unwound by a breach leaves its frames' entries behind; each
  // frame reads only its own suffix, so this just reclaims them.
  edge_stack_.clear();
  covered_runs_.clear();

  // Decision path for conjuncts[field..d-1] -> decision, wildcards skipped
  // (the canonical form would splice them out anyway).
  const auto build_path = [&](auto&& self, std::size_t f) -> ArenaNodeId {
    if (ctx.path[f] != kNoNode) {
      return ctx.path[f];
    }
    ArenaNodeId result;
    if (f == d) {
      result = terminal(rule.decision());
    } else if (ctx.wild[f]) {
      result = self(self, f + 1);
    } else {
      const ArenaNodeId child = self(self, f + 1);
      ArenaEdge run[] = {{intern(rule.conjunct(f)), child}};
      result = canonical_run(f, run);
    }
    ctx.path[f] = result;
    return result;
  };

  // APPEND(v, rule) of Fig. 7 on ids: instead of cloning the subdiagram a
  // case-3 split copies, both halves reference it by id and only the half
  // the rule reaches is rebuilt (copy-on-write).
  const auto append = [&](auto&& self, ArenaNodeId v,
                          std::size_t from) -> ArenaNodeId {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(v) << 32) | from;
    if (const auto it = ctx.memo.find(key); it != ctx.memo.end()) {
      ++stats_.append_cache_hits;
      return it->second;
    }
    ++stats_.append_cache_misses;
    govern::checkpoint(govern_);
    const std::size_t rank = is_terminal(v) ? d : field(v);
    std::size_t g = from;
    while (g < rank && ctx.wild[g]) {
      ++g;
    }
    ArenaNodeId result;
    if (g < rank) {
      // Node insertion: the diagram skipped field g but the rule
      // constrains it. A full-domain node is materialised and immediately
      // split against the conjunct; the off-conjunct half keeps `v` by
      // reference.
      const ArenaNodeId tail = self(self, v, g + 1);
      const ArenaLabelId inside = intern(rule.conjunct(g));
      ArenaEdge run[] = {{inside, tail}, {intern(ctx.outside[g]), v}};
      result = canonical_run(g, run);
    } else if (is_terminal(v)) {
      // A packet reaching a terminal was decided by an earlier (higher
      // priority) rule; the appended rule never applies there.
      result = v;
    } else {
      // The new edge run is built on top of edge_stack_, and the runs of
      // the labels S overlaps on top of covered_runs_; recursive visits
      // push above both and pop back before returning. The node record is
      // immutable, but the recursion grows (and may move) edge_pool_ and
      // labels_, so both are re-read by index, never held across a call.
      const std::size_t f = field(v);
      const IntervalSet& s = rule.conjunct(f);
      const Value s_lo = s.intervals().front().lo();
      const Value s_hi = s.intervals().back().hi();
      const NodeRecord node = nodes_[v];
      const std::size_t edge_base = edge_stack_.size();
      const std::size_t runs_base = covered_runs_.size();
      for (std::uint32_t i = 0; i < node.edge_count; ++i) {
        const ArenaEdge e = edge_pool_[node.edge_begin + i];
        const IntervalSet& lab = labels_[e.label];
        // The bounds test settles most disjoint edges without a sweep.
        if (lab.empty() || lab.intervals().back().hi() < s_lo ||
            lab.intervals().front().lo() > s_hi || !lab.overlaps(s)) {
          edge_stack_.push_back(e);  // case (1): untouched, shared by id
          continue;
        }
        covered_runs_.insert(covered_runs_.end(), lab.intervals().begin(),
                             lab.intervals().end());
        if (s.contains(lab)) {
          // case (2): edge fully inside S — recurse.
          const ArenaNodeId child = self(self, e.target, f + 1);
          edge_stack_.push_back({e.label, child});
        } else {
          // case (3): split; the outside half shares the old subdiagram.
          const IntervalSet common = lab.intersect(s);
          const ArenaLabelId outside = intern(lab.subtract(s));
          edge_stack_.push_back({outside, e.target});
          const ArenaLabelId inside = intern(common);
          const ArenaNodeId child = self(self, e.target, f + 1);
          edge_stack_.push_back({inside, child});
        }
      }
      // The part of S no edge covers gets the rule's own path. The node's
      // labels are disjoint, so their runs merge by lo() into one sorted
      // list and a single sweep subtracts them all.
      const std::span<Interval> covered =
          std::span(covered_runs_).subspan(runs_base);
      std::sort(covered.begin(), covered.end(),
                [](const Interval& a, const Interval& b) {
                  return a.lo() < b.lo();
                });
      const IntervalSet uncovered = s.subtract_runs(covered);
      covered_runs_.erase(covered_runs_.begin() + runs_base,
                          covered_runs_.end());
      if (!uncovered.empty()) {
        const ArenaLabelId rest = intern(uncovered);
        const ArenaNodeId tail = build_path(build_path, f + 1);
        edge_stack_.push_back({rest, tail});
      }
      result = canonical_run(f, std::span(edge_stack_).subspan(edge_base));
      edge_stack_.resize(edge_base);
    }
    ctx.memo.emplace(key, result);
    return result;
  };

  return append(append, root, 0);
}

ArenaNodeId FddArena::build_reduced(const Policy& policy,
                                     std::vector<std::size_t>* dead) {
  if (!(policy.schema() == schema_)) {
    throw std::invalid_argument("FddArena::build_reduced: schema mismatch");
  }
  // The partial FDD of the first rule is its lone decision path (Fig. 6),
  // built bottom-up with wildcard fields skipped; every further rule is
  // appended at the root. Canonical node creation keeps each intermediate
  // maximally reduced, so no interleaved reduce passes (and none of their
  // re-hashing) are needed.
  const Rule& r0 = policy.rule(0);
  ArenaNodeId root = terminal(r0.decision());
  for (std::size_t f = schema_.field_count(); f-- > 0;) {
    if (!wildcard(schema_, r0, f)) {
      root = canonical(f, {{intern(r0.conjunct(f)), root}});
    }
  }
  // Rule 0's conjuncts are nonempty, so it is never dead.
  if (dead != nullptr) {
    dead->clear();
  }
  for (std::size_t i = 1; i < policy.size(); ++i) {
    const ArenaNodeId next = append_rule(root, policy.rule(i));
    if (dead != nullptr && next == root) {
      dead->push_back(i);
    }
    root = next;
  }
  return root;
}

// ---------------------------------------------------------------------------
// Shaping (Fig. 10) memoised on node-id pairs.

std::pair<ArenaNodeId, ArenaNodeId> FddArena::shape_pair(ArenaNodeId a,
                                                         ArenaNodeId b) {
  if (a == b) {
    // Identical subdiagrams are already semi-isomorphic and aligned.
    return {a, b};
  }
  const std::uint64_t key = pack_pair(a, b);
  if (const auto it = shape_cache_.find(key); it != shape_cache_.end()) {
    ++stats_.shape_cache_hits;
    return it->second;
  }
  ++stats_.shape_cache_misses;
  govern::checkpoint(govern_);
  // Step 1 (label alignment by node insertion): terminals rank after every
  // field, the earlier label absorbs the other under a full-domain edge.
  const auto rank = [this](ArenaNodeId n) {
    return is_terminal(n) ? std::numeric_limits<std::uint64_t>::max()
                          : static_cast<std::uint64_t>(field(n));
  };
  ArenaNodeId x = a;
  ArenaNodeId y = b;
  while (rank(x) != rank(y)) {
    if (rank(x) < rank(y)) {
      const std::size_t f = field(x);
      y = internal(f, {{intern(schema_.domain_set(f)), y}});
    } else {
      const std::size_t f = field(y);
      x = internal(f, {{intern(schema_.domain_set(f)), x}});
    }
  }
  std::pair<ArenaNodeId, ArenaNodeId> result;
  if (is_terminal(x)) {
    result = {x, y};
  } else {
    // Step 2: common refinement of the two edge partitions, fragments of
    // one edge *pair* kept merged (same optimisation as the tree path).
    // Where the tree version clones the source subtree for every fragment
    // but the last, ids are simply referenced again.
    struct Fragment {
      IntervalSet label;
      ArenaNodeId a_child;
      ArenaNodeId b_child;
    };
    const std::span<const ArenaEdge> xv = edges(x);
    const std::span<const ArenaEdge> yv = edges(y);
    const std::vector<ArenaEdge> xe(xv.begin(), xv.end());
    const std::vector<ArenaEdge> ye(yv.begin(), yv.end());
    std::vector<Fragment> fragments;
    for (const ArenaEdge& ea : xe) {
      for (const ArenaEdge& eb : ye) {
        IntervalSet common = labels_[ea.label].intersect(labels_[eb.label]);
        if (!common.empty()) {
          fragments.push_back({std::move(common), ea.target, eb.target});
        }
      }
    }
    std::sort(fragments.begin(), fragments.end(),
              [](const Fragment& p, const Fragment& q) {
                return p.label.min() < q.label.min();
              });
    std::vector<ArenaEdge> a_edges;
    std::vector<ArenaEdge> b_edges;
    a_edges.reserve(fragments.size());
    b_edges.reserve(fragments.size());
    const std::size_t f = field(x);
    for (const Fragment& frag : fragments) {
      const auto [ca, cb] = shape_pair(frag.a_child, frag.b_child);
      const ArenaLabelId lid = intern(frag.label);
      a_edges.push_back({lid, ca});
      b_edges.push_back({lid, cb});
    }
    result = {internal(f, std::move(a_edges)),
              internal(f, std::move(b_edges))};
  }
  shape_cache_.emplace(key, result);
  return result;
}

void FddArena::shape_all(std::vector<ArenaNodeId>& roots) {
  if (roots.empty()) {
    throw std::invalid_argument("shape_all: no FDDs");
  }
  // Pass 1: funnel every refinement into roots[0]. Pass 2: roots[0] is now
  // the common refinement; re-aligning the others splits only their edges.
  for (std::size_t i = 1; i < roots.size(); ++i) {
    std::tie(roots[0], roots[i]) = shape_pair(roots[0], roots[i]);
  }
  for (std::size_t i = 1; i + 1 < roots.size(); ++i) {
    std::tie(roots[0], roots[i]) = shape_pair(roots[0], roots[i]);
  }
}

bool FddArena::semi_isomorphic(ArenaNodeId a, ArenaNodeId b) {
  if (a == b) {
    return true;
  }
  const std::uint64_t key = pack_pair(a, b);
  if (const auto it = equiv_cache_.find(key); it != equiv_cache_.end()) {
    ++stats_.equiv_cache_hits;
    return it->second;
  }
  ++stats_.equiv_cache_misses;
  govern::checkpoint(govern_);
  bool result = true;
  if (is_terminal(a) != is_terminal(b)) {
    result = false;
  } else if (is_terminal(a)) {
    result = true;  // decisions may differ
  } else if (field(a) != field(b) ||
             edges(a).size() != edges(b).size()) {
    result = false;
  } else {
    const std::span<const ArenaEdge> ea = edges(a);
    const std::span<const ArenaEdge> eb = edges(b);
    for (std::size_t i = 0; i < ea.size() && result; ++i) {
      // Interned labels: id equality is set equality.
      result = ea[i].label == eb[i].label &&
               semi_isomorphic(ea[i].target, eb[i].target);
    }
  }
  equiv_cache_.emplace(key, result);
  return result;
}

// ---------------------------------------------------------------------------
// Comparison (Section 5) with identical-subdiagram pruning.

std::vector<Discrepancy> FddArena::compare(
    const std::vector<ArenaNodeId>& roots) {
  std::vector<Discrepancy> out;
  compare_into(roots, out);
  return out;
}

void FddArena::compare_into(const std::vector<ArenaNodeId>& roots,
                            std::vector<Discrepancy>& out) {
  if (roots.empty()) {
    throw std::invalid_argument("FddArena::compare: no roots");
  }
  for (std::size_t i = 1; i < roots.size(); ++i) {
    if (!semi_isomorphic(roots[0], roots[i])) {
      throw std::invalid_argument(
          "FddArena::compare: diagrams are not pairwise semi-isomorphic");
    }
  }
  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema_.field_count());
  for (std::size_t i = 0; i < schema_.field_count(); ++i) {
    conjuncts.emplace_back(schema_.domain(i));
  }
  // Memo: an id tuple whose subdiagrams agree everywhere contributes no
  // discrepancy from any path prefix, so it is walked once and pruned on
  // every later encounter. Tuples that do disagree must be re-walked (the
  // records carry the path predicate), but those are exactly the regions
  // the output has to spell out anyway.
  std::unordered_map<std::vector<ArenaNodeId>, bool, IdVectorHash> memo;
  const auto walk = [&](auto&& self,
                        const std::vector<ArenaNodeId>& nodes) -> bool {
    // The walk materialises no nodes, so it carries its own checkpoint;
    // unwinding mid-walk leaves the discrepancies found so far in `out`.
    govern::checkpoint(govern_);
    const ArenaNodeId first = nodes.front();
    if (std::all_of(nodes.begin(), nodes.end(),
                    [&](ArenaNodeId n) { return n == first; })) {
      return false;  // one shared subdiagram: trivially no disagreement
    }
    if (is_terminal(first)) {
      // Terminals are hash-consed per decision, so unequal ids mean the
      // decisions are not all equal.
      Discrepancy d;
      d.conjuncts = conjuncts;
      d.decisions.reserve(nodes.size());
      for (const ArenaNodeId n : nodes) {
        d.decisions.push_back(decision(n));
      }
      out.push_back(std::move(d));
      return true;
    }
    if (const auto it = memo.find(nodes); it != memo.end()) {
      ++stats_.compare_cache_hits;
      if (!it->second) {
        return false;
      }
    } else {
      ++stats_.compare_cache_misses;
    }
    const std::size_t f = field(first);
    const std::size_t edge_count = edges(first).size();
    bool found = false;
    std::vector<ArenaNodeId> children(nodes.size());
    for (std::size_t e = 0; e < edge_count; ++e) {
      conjuncts[f] = labels_[edges(first)[e].label];
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        children[k] = edges(nodes[k])[e].target;
      }
      found |= self(self, children);
    }
    conjuncts[f] = schema_.domain_set(f);
    memo.insert_or_assign(nodes, found);
    return found;
  };
  walk(walk, roots);
}

ArenaNodeId FddArena::correct(const std::vector<ArenaNodeId>& roots,
                              std::size_t base,
                              const std::vector<Decision>& agreed) {
  if (roots.empty() || base >= roots.size()) {
    throw std::invalid_argument("FddArena::correct: no such base diagram");
  }
  std::size_t next = 0;
  // Tuples proven discrepancy-free, as in compare_into's memo: they keep
  // the base id and are pruned on every later encounter.
  std::unordered_set<std::vector<ArenaNodeId>, IdVectorHash> clean;
  const auto walk = [&](auto&& self,
                        const std::vector<ArenaNodeId>& nodes) -> ArenaNodeId {
    govern::checkpoint(govern_);
    const ArenaNodeId first = nodes.front();
    if (std::all_of(nodes.begin(), nodes.end(),
                    [&](ArenaNodeId n) { return n == first; })) {
      return nodes[base];
    }
    if (is_terminal(first)) {
      if (next >= agreed.size()) {
        throw std::logic_error("FddArena::correct: more discrepancies than "
                               "agreed decisions");
      }
      return terminal(agreed[next++]);
    }
    if (clean.count(nodes) != 0) {
      return nodes[base];
    }
    const std::size_t before = next;
    const std::size_t edge_count = edges(first).size();
    std::vector<ArenaEdge> out;
    out.reserve(edge_count);
    std::vector<ArenaNodeId> children(nodes.size());
    for (std::size_t e = 0; e < edge_count; ++e) {
      // edges() is re-read after every recursion: interning may grow the
      // edge pool.
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        children[k] = edges(nodes[k])[e].target;
      }
      const ArenaNodeId child = self(self, children);
      out.push_back({edges(nodes[base])[e].label, child});
    }
    if (next == before) {
      clean.insert(nodes);
      return nodes[base];
    }
    return internal(field(first), std::move(out));
  };
  const ArenaNodeId result = walk(walk, roots);
  if (next != agreed.size()) {
    throw std::logic_error(
        "FddArena::correct: fewer discrepancies than agreed decisions");
  }
  return result;
}

Decision FddArena::evaluate(ArenaNodeId root, const Packet& p) const {
  if (p.size() != schema_.field_count()) {
    throw std::invalid_argument("FddArena::evaluate: packet arity mismatch");
  }
  ArenaNodeId node = root;
  while (!is_terminal(node)) {
    ArenaNodeId next = kNoNode;
    for (const ArenaEdge& e : edges(node)) {
      if (labels_[e.label].contains(p[field(node)])) {
        next = e.target;
        break;
      }
    }
    if (next == kNoNode) {
      throw std::logic_error(
          "FddArena::evaluate: packet falls off a partial FDD");
    }
    node = next;
  }
  return decision(node);
}

void FddArena::validate(ArenaNodeId root, bool require_complete) const {
  // Consistency, completeness, domain, and emptiness are per-node facts;
  // ordering reduces to the per-edge check field(target) > field(node).
  // All are checked once per unique reachable node, and the first defect
  // in depth-first edge order is the one reported.
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<Interval> runs;  // one node's label runs, reused
  const auto visit = [&](auto&& self, ArenaNodeId id) -> void {
    if (seen[id]) {
      return;
    }
    seen[id] = 1;
    govern::checkpoint(govern_);
    if (is_terminal(id)) {
      return;
    }
    const std::size_t f = field(id);
    const IntervalSet& domain = schema_.domain_set(f);
    const std::span<const ArenaEdge> out = edges(id);
    runs.clear();
    for (const ArenaEdge& e : out) {
      const std::vector<Interval>& ivs = labels_[e.label].intervals();
      runs.insert(runs.end(), ivs.begin(), ivs.end());
    }
    std::sort(runs.begin(), runs.end(),
              [](const Interval& a, const Interval& b) {
                return a.lo() < b.lo();
              });
    // Two labels overlap iff two runs adjacent in lo() order do. Only then
    // is the union walk below needed to find the first edge that overlaps
    // an earlier one; it throws before the completeness check is reached.
    const bool overlap =
        std::adjacent_find(runs.begin(), runs.end(),
                           [](const Interval& a, const Interval& b) {
                             return b.lo() <= a.hi();
                           }) != runs.end();
    // Disjoint runs inside the domain cover it iff nothing is left over.
    const bool complete =
        !require_complete || domain.subtract_runs(runs).empty();
    IntervalSet covered;
    for (const ArenaEdge& e : out) {
      const IntervalSet& lab = labels_[e.label];
      if (lab.empty()) {
        throw std::logic_error("FDD: empty edge label");
      }
      if (!domain.contains(lab)) {
        throw std::logic_error("FDD: edge label exceeds domain of field " +
                               schema_.field(f).name);
      }
      if (overlap) {
        if (covered.overlaps(lab)) {
          throw std::logic_error("FDD: consistency violated at field " +
                                 schema_.field(f).name);
        }
        covered = covered.unite(lab);
      }
      if (!is_terminal(e.target) && field(e.target) <= f) {
        throw std::logic_error(
            "FDD: field order violated on a path (field " +
            schema_.field(field(e.target)).name + ")");
      }
      self(self, e.target);
    }
    if (!complete) {
      throw std::logic_error("FDD: completeness violated at field " +
                             schema_.field(f).name);
    }
  };
  visit(visit, root);
}

void FddArena::for_each_path(
    ArenaNodeId root,
    const std::function<void(const std::vector<IntervalSet>&, Decision)>& fn)
    const {
  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema_.field_count());
  for (std::size_t i = 0; i < schema_.field_count(); ++i) {
    conjuncts.emplace_back(schema_.domain(i));
  }
  const auto visit = [&](auto&& self, ArenaNodeId id) -> void {
    govern::checkpoint(govern_);
    if (is_terminal(id)) {
      fn(conjuncts, decision(id));
      return;
    }
    const std::size_t f = field(id);
    for (const ArenaEdge& e : edges(id)) {
      conjuncts[f] = labels_[e.label];
      self(self, e.target);
    }
    conjuncts[f] = schema_.domain_set(f);
  };
  visit(visit, root);
}

// ---------------------------------------------------------------------------
// Generation (gen/generate.hpp semantics) off the DAG.

Policy FddArena::generate(ArenaNodeId root) {
  // Number of rules gen would emit for a subdiagram — the election metric.
  // On trees this recomputation is O(nodes * depth); memoised by id it is
  // O(unique nodes) for the whole walk.
  const auto rule_cost = [&](auto&& self, ArenaNodeId id) -> std::size_t {
    if (is_terminal(id)) {
      return 1;
    }
    if (const auto it = rule_cost_cache_.find(id);
        it != rule_cost_cache_.end()) {
      return it->second;
    }
    std::size_t total = 0;
    for (const ArenaEdge& e : edges(id)) {
      total += self(self, e.target);
    }
    rule_cost_cache_.emplace(id, total);
    return total;
  };

  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema_.field_count());
  for (std::size_t i = 0; i < schema_.field_count(); ++i) {
    conjuncts.emplace_back(schema_.domain(i));
  }
  std::vector<Rule> rules;
  const auto gen = [&](auto&& self, ArenaNodeId id) -> void {
    govern::checkpoint(govern_);
    if (is_terminal(id)) {
      // Every emitted rule is a unit of output growth: charge it so a
      // rule-blowup budget caps generation from a pathological diagram.
      govern::charge_rules(govern_);
      rules.emplace_back(schema_, conjuncts, decision(id));
      return;
    }
    // Elect the default branch: highest rule cost, ties broken toward the
    // larger value region (mirrors the tree generator exactly).
    const std::span<const ArenaEdge> out = edges(id);
    std::size_t default_edge = 0;
    std::size_t best_cost = 0;
    Value best_width = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t cost = rule_cost(rule_cost, out[i].target);
      const Value width = labels_[out[i].label].size();
      if (cost > best_cost || (cost == best_cost && width > best_width)) {
        best_cost = cost;
        best_width = width;
        default_edge = i;
      }
    }
    const std::size_t f = field(id);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i == default_edge) {
        continue;
      }
      conjuncts[f] = labels_[out[i].label];
      self(self, out[i].target);
    }
    conjuncts[f] = schema_.domain_set(f);
    self(self, out[default_edge].target);
  };
  gen(gen, root);
  return Policy(schema_, std::move(rules));
}

}  // namespace dfw
