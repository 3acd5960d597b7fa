// The three-phase diverse-design workflow (paper, Section 2).
//
// A DiverseDesign session collects the team firewalls from the design
// phase, runs the comparison phase (construct -> shape -> compare), and
// drives the resolution phase to a final, unanimously agreed firewall.
// Cross comparison of all pairs (Section 7.3) is offered alongside the
// direct N-way comparison.
//
// Construction dominates the pipeline (Fig. 13), so a session builds each
// team's diagram exactly once: submit() interns it into one session-wide
// FddArena (fdd/arena.hpp) and validates it there, direct comparison
// shapes and compares copies of the stored roots, and resolution reuses
// the shaped roots and the discrepancy list of that comparison. Teams
// perturbed from a common base share interned nodes, and the arena's memo
// caches carry over from one phase to the next.
//
// Cross comparison (Section 7.3) runs over the same stored diagrams: each
// pair shapes and compares its two teams' roots in the session arena.
//
// Session-wide knobs travel in WorkflowOptions: the resolution method and
// base team, and the comparison mode the report uses. A session is
// single-threaded, like its arena: call one member at a time.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "diverse/resolve.hpp"
#include "fdd/arena.hpp"
#include "fdd/compare.hpp"
#include "fw/policy.hpp"

namespace dfw {

/// Which resolution method generates the final firewall (Section 6).
enum class ResolutionMethod {
  kCorrectedFdd,   ///< method 1: correct an FDD, regenerate rules
  kPrependAndTrim, ///< method 2: prepend corrections, remove redundancy
};

/// How the comparison phase reports (Section 7.3): one direct N-way pass
/// over all teams, or every unordered pair separately.
enum class ComparisonMode {
  kDirect,
  kCross,
};

/// Session-wide options for a DiverseDesign run.
struct WorkflowOptions {
  /// Shared execution knobs (rt/run_options.hpp), honoured by the whole
  /// session. `run.executor` drives nothing: every phase works on the
  /// session arena, serially. `run.context` (borrowed, nullable) governs
  /// submission builds, comparison, and resolution alike: with a context
  /// set, cross_compare() reports per-pair status instead of throwing and
  /// compare_governed() returns partial results; the plain entry points
  /// let the dfw::Error propagate. `run.faults` (borrowed, nullable) is
  /// hit at the construct phase of every submit and at every node the
  /// session arena materialises. `run.obs` (borrowed, nullable sinks)
  /// observes the session: submissions run under "workflow.submit" spans
  /// holding the "construct" and "validate" phases, the comparison phase
  /// under "workflow.compare" (the "shape" and "compare" phases) or
  /// "workflow.cross_compare" with one "pair" span per unordered pair
  /// (each holding its own "shape" and "compare" phases), and resolution
  /// under "workflow.resolve" (the "generate" phase for method 1). The
  /// session arena's counters land in the registry once per operation, as
  /// that operation's delta.
  RunOptions run = {};
  ResolutionMethod resolution = ResolutionMethod::kCorrectedFdd;
  /// Team whose rule sequence seeds the resolution phase.
  std::size_t base_team = 0;
  ComparisonMode comparison = ComparisonMode::kDirect;
};

/// One pairwise comparison result from cross comparison. In a governed
/// session a pair cut short by cancellation/deadline/budget carries
/// complete = false and the cause in `status`; its discrepancies are the
/// partial findings up to the cut (empty when the pair never started).
struct PairwiseReport {
  std::size_t team_a = 0;
  std::size_t team_b = 0;
  std::vector<Discrepancy> discrepancies;
  bool complete = true;
  ErrorCode status = ErrorCode::kOk;

  friend bool operator==(const PairwiseReport&,
                         const PairwiseReport&) = default;
};

class DiverseDesign {
 public:
  /// Starts a session over the given decision vocabulary.
  explicit DiverseDesign(DecisionSet decisions, WorkflowOptions options = {});

  const WorkflowOptions& options() const { return options_; }

  /// Design phase: registers one team's firewall. All firewalls must share
  /// a schema and be comprehensive: the team's diagram is built into the
  /// session arena once and validated there. Returns the team index.
  std::size_t submit(std::string team_name, Policy policy);

  std::size_t team_count() const { return policies_.size(); }
  const Policy& policy(std::size_t team) const;
  const std::vector<std::string>& team_names() const { return names_; }
  const DecisionSet& decisions() const { return decisions_; }

  /// Comparison phase, direct N-way (Section 7.3): shapes the stored
  /// diagrams to a common refinement and walks them in lockstep. Requires
  /// >= 2 teams. The result is kept until the next submit, so repeated
  /// calls and resolve() reuse it.
  std::vector<Discrepancy> compare() const;

  /// Governed direct comparison: a breach of options().context becomes a
  /// partial CompareOutcome (complete = false, discrepancies found so
  /// far) instead of an exception. With a null context this is compare()
  /// wrapped in an always-complete outcome.
  CompareOutcome compare_governed() const;

  /// Comparison phase, cross comparison: one report per unordered pair,
  /// ordered (0,1), (0,2), ..., (K-2,K-1). Each pair shapes and compares
  /// the two stored diagrams in the session arena, so a report equals
  /// discrepancies() on the two teams' policies without rebuilding them.
  /// Not kept: every call compares again.
  std::vector<PairwiseReport> cross_compare() const;

  /// Human-readable report, Table-3 style, honouring
  /// options().comparison: one table for kDirect, one per pair for kCross.
  std::string report() const;

  /// Resolution phase: given an agreed decision per discrepancy (indices
  /// into compare()'s result), produce the final firewall using
  /// options().resolution and options().base_team. Runs the comparison
  /// first when none is kept. Requires >= 2 teams.
  Policy resolve(const ResolutionPlan& plan) const;
  /// Same, with the session options overridden per call.
  Policy resolve(const ResolutionPlan& plan, ResolutionMethod method,
                 std::size_t base_team = 0) const;

  /// Shortcut: resolve every discrepancy in favour of team `winner`.
  /// The result is then equivalent to `policy(winner)` but expressed
  /// through the chosen method — useful for testing and for adopting a
  /// reference team wholesale.
  Policy resolve_in_favour_of(std::size_t winner) const;
  Policy resolve_in_favour_of(std::size_t winner,
                              ResolutionMethod method,
                              std::size_t base_team) const;

 private:
  /// A complete direct comparison: the shaped (pairwise semi-isomorphic)
  /// roots and the discrepancies of their lockstep walk.
  struct Comparison {
    std::vector<ArenaNodeId> shaped;
    std::vector<Discrepancy> discrepancies;
  };

  void require_two_teams(const char* what) const;
  /// Shapes and compares into `out`; a breach leaves the partial
  /// discrepancy list in out.discrepancies.
  void run_comparison(Comparison& out) const;
  /// The kept comparison, computed on first use.
  const Comparison& comparison() const;

  DecisionSet decisions_;
  WorkflowOptions options_;
  std::vector<std::string> names_;
  std::vector<Policy> policies_;
  /// Session arena, created at the first submit. compare() and resolve()
  /// are const but intern shaped and corrected nodes into it; ids never
  /// change, so the stored roots stay valid.
  std::unique_ptr<FddArena> arena_;
  std::vector<ArenaNodeId> roots_;  ///< one reduced root per team
  mutable std::optional<Comparison> comparison_;
};

}  // namespace dfw
