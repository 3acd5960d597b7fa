#include "diverse/resolve.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "diverse/workflow.hpp"

namespace dfw {
namespace {

// The free entry points are one-shot sessions: one code path, whichever
// way resolution is reached.
Policy resolve_in_session(const std::vector<Policy>& policies,
                          const ResolutionPlan& plan, std::size_t base_team,
                          const ObsOptions& obs, ResolutionMethod method) {
  WorkflowOptions options;
  options.run.obs = obs;
  DiverseDesign session(DecisionSet(), options);
  for (std::size_t i = 0; i < policies.size(); ++i) {
    session.submit("team" + std::to_string(i + 1), policies[i]);
  }
  return session.resolve(plan, method, base_team);
}

}  // namespace

Resolution adopt(std::size_t discrepancy_index, const Discrepancy& d,
                 std::size_t winner_team) {
  if (winner_team >= d.decisions.size()) {
    throw std::invalid_argument("adopt: no such team");
  }
  return Resolution{discrepancy_index, d.decisions[winner_team]};
}

ResolutionPlan plan_by_majority(
    const std::vector<Discrepancy>& discrepancies,
    std::size_t arbiter_team) {
  ResolutionPlan plan;
  plan.reserve(discrepancies.size());
  for (std::size_t i = 0; i < discrepancies.size(); ++i) {
    const std::vector<Decision>& votes = discrepancies[i].decisions;
    if (arbiter_team >= votes.size()) {
      throw std::invalid_argument("plan_by_majority: no such arbiter team");
    }
    Decision best = votes[arbiter_team];
    std::size_t best_count = 0;
    for (const Decision candidate : votes) {
      const std::size_t count = static_cast<std::size_t>(
          std::count(votes.begin(), votes.end(), candidate));
      // Strict majority beats the arbiter; ties keep the arbiter's pick.
      const std::size_t arbiter_count = static_cast<std::size_t>(
          std::count(votes.begin(), votes.end(), votes[arbiter_team]));
      if (count > best_count && count > arbiter_count) {
        best = candidate;
        best_count = count;
      }
    }
    plan.push_back({i, best});
  }
  return plan;
}

Policy resolve_via_fdd(const std::vector<Policy>& policies,
                       const ResolutionPlan& plan, std::size_t base_team) {
  return resolve_via_fdd(policies, plan, base_team, ObsOptions{});
}

Policy resolve_via_fdd(const std::vector<Policy>& policies,
                       const ResolutionPlan& plan, std::size_t base_team,
                       const ObsOptions& obs) {
  return resolve_in_session(policies, plan, base_team, obs,
                            ResolutionMethod::kCorrectedFdd);
}

Policy resolve_via_corrections(const std::vector<Policy>& policies,
                               const ResolutionPlan& plan,
                               std::size_t base_team) {
  return resolve_via_corrections(policies, plan, base_team, ObsOptions{});
}

Policy resolve_via_corrections(const std::vector<Policy>& policies,
                               const ResolutionPlan& plan,
                               std::size_t base_team, const ObsOptions& obs) {
  return resolve_in_session(policies, plan, base_team, obs,
                            ResolutionMethod::kPrependAndTrim);
}

}  // namespace dfw
