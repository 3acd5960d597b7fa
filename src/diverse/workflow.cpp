#include "diverse/workflow.hpp"

#include <algorithm>
#include <stdexcept>

#include "diverse/discrepancy.hpp"
#include "gen/redundancy.hpp"
#include "obs/metrics.hpp"
#include "rt/fault.hpp"

namespace dfw {
namespace {

// Absorbs what one session operation added to the arena's counters, also
// when a breach unwinds the operation: a lifetime total absorbed per
// operation would count every earlier operation again.
class ArenaStatsDelta {
 public:
  ArenaStatsDelta(const FddArena& arena, MetricsRegistry* metrics)
      : arena_(arena), metrics_(metrics), before_(arena.stats_snapshot()) {}
  ~ArenaStatsDelta() {
    if (metrics_ != nullptr) {
      absorb(*metrics_, arena_.stats() - before_);
    }
  }

  ArenaStatsDelta(const ArenaStatsDelta&) = delete;
  ArenaStatsDelta& operator=(const ArenaStatsDelta&) = delete;

 private:
  const FddArena& arena_;
  MetricsRegistry* metrics_;
  ArenaStats before_;
};

// Validates the plan against the session's discrepancy list and returns
// agreed decisions indexed by discrepancy position.
std::vector<Decision> agreed_by_index(
    const std::vector<Discrepancy>& discrepancies,
    const ResolutionPlan& plan) {
  std::vector<bool> covered(discrepancies.size(), false);
  std::vector<Decision> agreed(discrepancies.size(), kAccept);
  for (const Resolution& r : plan) {
    if (r.discrepancy_index >= discrepancies.size()) {
      throw std::invalid_argument("resolution: discrepancy index out of range");
    }
    if (covered[r.discrepancy_index]) {
      throw std::invalid_argument("resolution: discrepancy resolved twice");
    }
    covered[r.discrepancy_index] = true;
    agreed[r.discrepancy_index] = r.agreed;
  }
  if (!std::all_of(covered.begin(), covered.end(),
                   [](bool b) { return b; })) {
    throw std::invalid_argument("resolution: some discrepancy left unresolved");
  }
  return agreed;
}

}  // namespace

DiverseDesign::DiverseDesign(DecisionSet decisions, WorkflowOptions options)
    : decisions_(std::move(decisions)), options_(options) {}

std::size_t DiverseDesign::submit(std::string team_name, Policy policy) {
  const ObsOptions& obs = options_.run.obs;
  ScopedSpan span(obs.tracer, "workflow.submit", "team", policies_.size());
  if (!policies_.empty() && !(policy.schema() == policies_[0].schema())) {
    throw std::invalid_argument("submit: schema differs from earlier teams");
  }
  // Phase-boundary fault site: fires before any construction state exists.
  fault::hit(options_.run.faults, fault::sites::kConstructPhase);
  if (policies_.empty()) {
    // A fresh arena per session, over the first team's schema; a first
    // submission that failed leaves nothing behind.
    arena_ = std::make_unique<FddArena>(policy.schema());
    arena_->set_context(options_.run.context);
    arena_->set_faults(options_.run.faults);
  }
  ArenaStatsDelta delta(*arena_, obs.metrics);
  // Comprehensiveness gate: a rule sequence must cover every packet to
  // serve as a firewall (Section 3.1). Governed sessions bound this build
  // too — a hostile submission must not hang the design phase.
  ArenaNodeId root;
  {
    PhaseSpan phase(obs, "construct");
    ScopedSpan build(obs.tracer, "build_reduced_fdd", "rules", policy.size(),
                     "policy", policies_.size());
    root = arena_->build_reduced(policy);
  }
  {
    PhaseSpan phase(obs, "validate");
    arena_->validate(root);
  }
  names_.push_back(std::move(team_name));
  policies_.push_back(std::move(policy));
  roots_.push_back(root);
  comparison_.reset();
  return policies_.size() - 1;
}

const Policy& DiverseDesign::policy(std::size_t team) const {
  if (team >= policies_.size()) {
    throw std::out_of_range("policy: no such team");
  }
  return policies_[team];
}

void DiverseDesign::require_two_teams(const char* what) const {
  if (policies_.size() < 2) {
    throw std::logic_error(std::string(what) + ": need at least two teams");
  }
}

void DiverseDesign::run_comparison(Comparison& out) const {
  const ObsOptions& obs = options_.run.obs;
  ArenaStatsDelta delta(*arena_, obs.metrics);
  out.shaped = roots_;
  {
    PhaseSpan phase(obs, "shape");
    arena_->shape_all(out.shaped);
  }
  PhaseSpan phase(obs, "compare");
  arena_->compare_into(out.shaped, out.discrepancies);
}

const DiverseDesign::Comparison& DiverseDesign::comparison() const {
  if (!comparison_) {
    Comparison c;
    run_comparison(c);
    comparison_ = std::move(c);
  }
  return *comparison_;
}

std::vector<Discrepancy> DiverseDesign::compare() const {
  require_two_teams("compare");
  ScopedSpan span(options_.run.obs.tracer, "workflow.compare", "teams",
                  policies_.size());
  return comparison().discrepancies;
}

CompareOutcome DiverseDesign::compare_governed() const {
  require_two_teams("compare");
  ScopedSpan span(options_.run.obs.tracer, "workflow.compare", "teams",
                  policies_.size());
  CompareOutcome outcome;
  if (!comparison_) {
    Comparison c;
    try {
      run_comparison(c);
    } catch (const Error& e) {
      // Governance cuts (cancel/deadline/budget) become a partial report;
      // anything else — bad inputs, internal faults — keeps propagating.
      outcome.discrepancies = std::move(c.discrepancies);
      outcome.complete = false;
      outcome.status = e.code();
      outcome.message = e.what();
      return outcome;
    }
    comparison_ = std::move(c);
  }
  outcome.discrepancies = comparison_->discrepancies;
  return outcome;
}

std::vector<PairwiseReport> DiverseDesign::cross_compare() const {
  require_two_teams("cross_compare");
  const ObsOptions& obs = options_.run.obs;
  RunContext* ctx = options_.run.context;
  ScopedSpan span(obs.tracer, "workflow.cross_compare", "teams",
                  policies_.size());
  ArenaStatsDelta delta(*arena_, obs.metrics);
  // Each pair shapes and compares the two stored roots in the session
  // arena: no team's diagram is rebuilt, and the arena's memo caches carry
  // over from pair to pair.
  std::vector<PairwiseReport> reports;
  reports.reserve(policies_.size() * (policies_.size() - 1) / 2);
  for (std::size_t a = 0; a < policies_.size(); ++a) {
    for (std::size_t b = a + 1; b < policies_.size(); ++b) {
      ScopedSpan pair_span(obs.tracer, "pair", "team_a", a, "team_b", b);
      PairwiseReport& report = reports.emplace_back();
      report.team_a = a;
      report.team_b = b;
      const auto compare_pair = [&] {
        std::pair<ArenaNodeId, ArenaNodeId> shaped;
        {
          PhaseSpan phase(obs, "shape");
          shaped = arena_->shape_pair(roots_[a], roots_[b]);
        }
        PhaseSpan phase(obs, "compare");
        arena_->compare_into({shaped.first, shaped.second},
                             report.discrepancies);
      };
      if (ctx == nullptr) {
        compare_pair();
        continue;
      }
      // Governed session: each pair absorbs its own governance cut into a
      // per-pair status, so one breached pair never torpedoes the others'
      // reports. A pair starting after the shared context already aborted
      // is marked with the abort's cause without doing any work.
      if (ctx->aborted()) {
        report.complete = false;
        report.status = ctx->abort_code();
        continue;
      }
      try {
        compare_pair();
      } catch (const Error& e) {
        report.complete = false;
        report.status = e.code();
      }
    }
  }
  return reports;
}

std::string DiverseDesign::report() const {
  if (options_.comparison == ComparisonMode::kCross) {
    std::string out;
    for (const PairwiseReport& pair : cross_compare()) {
      out += "== " + names_[pair.team_a] + " vs " + names_[pair.team_b] +
             " ==\n";
      out += format_discrepancy_report(
          policies_[0].schema(), decisions_, pair.discrepancies,
          {names_[pair.team_a], names_[pair.team_b]});
    }
    return out;
  }
  return format_discrepancy_report(policies_[0].schema(), decisions_,
                                   compare(), names_);
}

Policy DiverseDesign::resolve(const ResolutionPlan& plan) const {
  return resolve(plan, options_.resolution, options_.base_team);
}

Policy DiverseDesign::resolve(const ResolutionPlan& plan,
                              ResolutionMethod method,
                              std::size_t base_team) const {
  ScopedSpan span(options_.run.obs.tracer, "workflow.resolve", "base_team",
                  base_team);
  if (policies_.size() < 2) {
    throw std::invalid_argument("resolution: need at least two policies");
  }
  if (base_team >= policies_.size()) {
    throw std::invalid_argument("resolve: no such team");
  }
  const Comparison& c = comparison();
  const std::vector<Decision> agreed = agreed_by_index(c.discrepancies, plan);
  switch (method) {
    case ResolutionMethod::kCorrectedFdd: {
      // Method 1 (Section 6.1): correct the base team's shaped diagram at
      // every discrepant terminal, then generate rules from its reduced
      // image.
      const ObsOptions& obs = options_.run.obs;
      ArenaStatsDelta delta(*arena_, obs.metrics);
      const ArenaNodeId corrected =
          arena_->correct(c.shaped, base_team, agreed);
      PhaseSpan phase(obs, "generate");
      Policy out = arena_->generate(arena_->canonicalize(corrected));
      if (obs.metrics != nullptr) {
        obs.metrics->counter("gen.rules_emitted").add(out.size());
      }
      return out;
    }
    case ResolutionMethod::kPrependAndTrim: {
      // Method 2 (Section 6.2): prepend the resolutions the base team got
      // wrong; the discrepancy predicates are pairwise disjoint (distinct
      // decision paths), so their relative order is immaterial.
      const Policy& base = policies_[base_team];
      std::vector<Rule> rules;
      for (std::size_t i = 0; i < c.discrepancies.size(); ++i) {
        if (c.discrepancies[i].decisions[base_team] != agreed[i]) {
          rules.emplace_back(base.schema(), c.discrepancies[i].conjuncts,
                             agreed[i]);
        }
      }
      rules.insert(rules.end(), base.rules().begin(), base.rules().end());
      return remove_redundant(Policy(base.schema(), std::move(rules)));
    }
  }
  throw std::invalid_argument("resolve: unknown method");
}

Policy DiverseDesign::resolve_in_favour_of(std::size_t winner) const {
  return resolve_in_favour_of(winner, options_.resolution,
                              options_.base_team);
}

Policy DiverseDesign::resolve_in_favour_of(std::size_t winner,
                                           ResolutionMethod method,
                                           std::size_t base_team) const {
  const std::vector<Discrepancy> all = compare();
  ResolutionPlan plan;
  plan.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    plan.push_back(adopt(i, all[i], winner));
  }
  return resolve(plan, method, base_team);
}

}  // namespace dfw
