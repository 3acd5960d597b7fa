#include "fdd/compare.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "fdd/arena.hpp"

namespace dfw {
namespace {

// Lockstep walk over N semi-isomorphic subtrees accumulating the common
// path predicate; emits a record at terminals with disagreeing decisions.
// Governed walks checkpoint here; unwinding leaves the discrepancies found
// so far in `out` (caller-owned), which is what partial reports surface.
void walk(const Schema& schema, const std::vector<const FddNode*>& nodes,
          std::vector<IntervalSet>& conjuncts, std::vector<Discrepancy>& out,
          RunContext* ctx) {
  govern::checkpoint(ctx);
  const FddNode* first = nodes.front();
  if (first->is_terminal()) {
    const bool all_equal =
        std::all_of(nodes.begin(), nodes.end(), [&](const FddNode* n) {
          return n->decision == first->decision;
        });
    if (!all_equal) {
      Discrepancy d;
      d.conjuncts = conjuncts;
      d.decisions.reserve(nodes.size());
      for (const FddNode* n : nodes) {
        d.decisions.push_back(n->decision);
      }
      out.push_back(std::move(d));
    }
    return;
  }
  for (std::size_t e = 0; e < first->edges.size(); ++e) {
    conjuncts[first->field] = first->edges[e].label;
    std::vector<const FddNode*> children;
    children.reserve(nodes.size());
    for (const FddNode* n : nodes) {
      children.push_back(n->edges[e].target.get());
    }
    walk(schema, children, conjuncts, out, ctx);
  }
  conjuncts[first->field] = IntervalSet(schema.domain(first->field));
}

void compare_impl(const Schema& schema,
                  const std::vector<const FddNode*>& roots, RunContext* ctx,
                  std::vector<Discrepancy>& out) {
  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema.field_count());
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    conjuncts.emplace_back(schema.domain(i));
  }
  walk(schema, roots, conjuncts, out, ctx);
}

// Whole pipeline on ids: build canonical diagrams, validate, shape, and
// compare without ever expanding a tree. Canonical construction makes the
// diagrams reduced; shaping and comparison memoise inside the arena. The
// obs sink sees the four phases plus one "build_reduced_fdd" span per
// policy; the arena's lifetime stats land in the registry even when a
// governance breach unwinds mid-phase.
void arena_discrepancies(const std::vector<const Policy*>& policies,
                         RunContext* ctx, const ObsOptions& obs,
                         std::vector<Discrepancy>& out) {
  FddArena arena(policies.front()->schema());
  arena.set_context(ctx);
  struct StatsFlush {
    const FddArena& arena;
    MetricsRegistry* metrics;
    ~StatsFlush() {
      if (metrics != nullptr) {
        absorb(*metrics, arena.stats());
      }
    }
  } flush{arena, obs.metrics};
  std::vector<ArenaNodeId> roots;
  roots.reserve(policies.size());
  {
    PhaseSpan phase(obs, "construct");
    for (std::size_t i = 0; i < policies.size(); ++i) {
      ScopedSpan span(obs.tracer, "build_reduced_fdd", "rules",
                      policies[i]->size(), "policy", i);
      roots.push_back(arena.build_reduced(*policies[i]));
    }
  }
  {
    PhaseSpan phase(obs, "validate");
    for (const ArenaNodeId root : roots) {
      arena.validate(root);  // rejects non-comprehensive inputs up front
    }
  }
  {
    PhaseSpan phase(obs, "shape");
    arena.shape_all(roots);
  }
  PhaseSpan phase(obs, "compare");
  arena.compare_into(roots, out);
}

}  // namespace

std::vector<Discrepancy> compare_fdds(const Fdd& a, const Fdd& b,
                                      const CompareOptions& options) {
  if (!semi_isomorphic(a, b)) {
    throw std::invalid_argument("compare_fdds: FDDs are not semi-isomorphic");
  }
  std::vector<Discrepancy> out;
  compare_impl(a.schema(), {&a.root(), &b.root()}, options.run.context, out);
  return out;
}

std::vector<Discrepancy> compare_fdds_many(const std::vector<Fdd>& fdds,
                                           const CompareOptions& options) {
  if (fdds.empty()) {
    throw std::invalid_argument("compare_fdds_many: no FDDs");
  }
  std::vector<const FddNode*> roots;
  roots.reserve(fdds.size());
  for (std::size_t i = 1; i < fdds.size(); ++i) {
    if (!semi_isomorphic(fdds[0], fdds[i])) {
      throw std::invalid_argument(
          "compare_fdds_many: FDDs are not pairwise semi-isomorphic");
    }
  }
  for (const Fdd& f : fdds) {
    roots.push_back(&f.root());
  }
  std::vector<Discrepancy> out;
  compare_impl(fdds[0].schema(), roots, options.run.context, out);
  return out;
}

namespace {

void discrepancies_many_into(const std::vector<Policy>& policies,
                             const CompareOptions& options,
                             std::vector<Discrepancy>& out) {
  if (policies.empty()) {
    throw std::invalid_argument("discrepancies_many: no policies");
  }
  std::vector<const Policy*> inputs;
  inputs.reserve(policies.size());
  for (const Policy& p : policies) {
    inputs.push_back(&p);
  }
  arena_discrepancies(inputs, options.run.context, options.run.obs, out);
}

CompareOutcome run_governed(
    const std::function<void(std::vector<Discrepancy>&)>& pipeline) {
  CompareOutcome outcome;
  try {
    pipeline(outcome.discrepancies);
  } catch (const Error& e) {
    // Governance cuts (cancel/deadline/budget) become a partial report;
    // anything else — bad inputs, internal faults — is a real error and
    // keeps propagating.
    outcome.complete = false;
    outcome.status = e.code();
    outcome.message = e.what();
  }
  return outcome;
}

}  // namespace

std::vector<Discrepancy> discrepancies(const Policy& a, const Policy& b,
                                       const CompareOptions& options) {
  std::vector<Discrepancy> out;
  arena_discrepancies({&a, &b}, options.run.context, options.run.obs, out);
  return out;
}

std::vector<Discrepancy> discrepancies_many(
    const std::vector<Policy>& policies, const CompareOptions& options) {
  std::vector<Discrepancy> out;
  discrepancies_many_into(policies, options, out);
  return out;
}

CompareOutcome discrepancies_governed(const Policy& a, const Policy& b,
                                      const CompareOptions& options) {
  return run_governed([&](std::vector<Discrepancy>& out) {
    arena_discrepancies({&a, &b}, options.run.context, options.run.obs, out);
  });
}

CompareOutcome discrepancies_many_governed(
    const std::vector<Policy>& policies, const CompareOptions& options) {
  return run_governed([&](std::vector<Discrepancy>& out) {
    discrepancies_many_into(policies, options, out);
  });
}

bool equivalent(const Policy& a, const Policy& b) {
  return discrepancies(a, b).empty();
}

Value discrepancy_packet_count(const Discrepancy& d) {
  Value total = 1;
  for (const IntervalSet& s : d.conjuncts) {
    const Value n = s.size();
    if (n != 0 && total > UINT64_MAX / n) {
      return UINT64_MAX;
    }
    total *= n;
  }
  return total;
}

}  // namespace dfw
