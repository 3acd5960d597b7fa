// Semantics-preserving policy simplification (the static-analysis pass of
// Diekmann et al., "Semantics-Preserving Simplification of Real-World
// Firewall Rule Sets", recast over this library's rule model).
//
// Real rule sets accrete garbage: rules jointly masked by the rules above
// them, adjacent rules that are one rule written as two, same-decision
// runs full of subsumed special cases. simplify_policy rewrites a policy
// into a smaller one with three transforms, each individually
// order-of-evaluation sound (they preserve the policy's packet-to-decision
// mapping, including the fall-through set of non-comprehensive policies):
//
//   dead elimination   rules no packet ever first-matches, detected
//                      exactly: a rule is dead iff appending it leaves
//                      the canonical arena root unchanged (the test
//                      behind analysis/anomaly.hpp dead_rules and
//                      dfw-lint's dead-rules pass)
//   adjacent merge     neighbouring rules with one decision that differ
//                      in exactly one field fold into one rule whose
//                      differing conjunct is the union
//   run coalescing     within a maximal run of consecutive same-decision
//                      rules, order is immaterial; rules subsumed by a
//                      run sibling are dropped and non-adjacent
//                      single-field pairs are merged
//
// The pass iterates the transforms to a fixpoint, then *proves* the
// result. One hash-consed FddArena serves the whole pass: each round's
// dead-rule scan builds the round's rules in it, so the first round's
// root is the original policy's and the last, unchanged round's root is
// the result's. Id equality of canonical roots IS semantic equality, so
// the proof compares those two ids — backed up by an explicit shape +
// compare walk reporting zero discrepancies. A policy
// is never returned unproven: if the proof is refuted (an internal bug)
// or cut short by governance, the ORIGINAL policy comes back and the
// report says so.
//
// What the pass proved about the policy it returns comes back with it
// (PolicyFacts): the fixpoint's last dead-rule scan and the reduced FDD
// of its root, so a later analysis of the same policy (dfw-lint, the
// fleet pipeline) starts from them instead of recomputing them.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fdd/fdd.hpp"
#include "fw/policy.hpp"
#include "rt/govern.hpp"
#include "rt/run_options.hpp"

namespace dfw {

/// Per-run knobs, in the library's options-struct idiom.
struct SimplifyOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.context` governs
  /// the whole pass: the pass's arena charges every interned node and
  /// label byte, and it and the transform scans take amortized
  /// checkpoints. A breach aborts the pass — the outcome carries the
  /// ORIGINAL policy, complete = false, and the breach's code. `run.obs`:
  /// the pass runs under a "simplify" phase span holding one "dead_rules"
  /// span per round that ran dead elimination; it counts rules removed
  /// into "simplify.rules_removed", and proven / aborted passes into
  /// "simplify.proof.proven" / "simplify.aborted". `run.executor`
  /// is accepted for uniformity but unused — one policy simplifies
  /// serially (fleets parallelize across policies, tools/dfw_fleet).
  RunOptions run = {};

  /// Transform toggles; disabling all three makes the pass an (optionally
  /// proof-checked) identity. With `eliminate_dead` off the outcome
  /// carries no facts.
  bool eliminate_dead = true;
  bool merge_adjacent = true;
  bool coalesce_runs = true;

  /// Prove the rewrite equivalent by arena-backed FDD comparison. Off
  /// skips the proof (ProofStatus::kSkipped) — for callers that re-prove
  /// in aggregate, e.g. a randomized harness.
  bool prove = true;

  /// Fixpoint bound: transform rounds stop after this many passes even if
  /// the policy is still shrinking (each round removes at least one rule,
  /// so the bound only matters for adversarial inputs).
  std::size_t max_passes = 16;
};

/// How the equivalence proof of a simplification ended.
enum class ProofStatus {
  kProven,   ///< canonical arena roots identical; compare walk agrees
  kSkipped,  ///< proof disabled, or no transform changed the policy
  kAborted,  ///< governance breach mid-proof; original policy returned
  kRefuted,  ///< proof found a discrepancy (internal bug); original
             ///< policy returned
};

/// Stable identifier string, e.g. "proven".
const char* to_string(ProofStatus status);

/// Per-transform application counts.
struct SimplifyStats {
  std::size_t dead_eliminated = 0;   ///< rules removed by dead elimination
  std::size_t adjacent_merged = 0;   ///< merges of neighbouring rule pairs
  std::size_t run_subsumed = 0;      ///< in-run subsumption removals
  std::size_t run_merged = 0;        ///< in-run non-adjacent merges
};

/// What simplify_policy did, machine-readable (the fleet report embeds
/// one per device).
struct SimplifyReport {
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  std::size_t passes = 0;  ///< fixpoint rounds that ran (0 = untouched)
  SimplifyStats stats;
  ProofStatus proof = ProofStatus::kSkipped;
  /// Number of discrepancies the proof's compare walk reported. Proven
  /// simplifications always show zero; nonzero means kRefuted.
  std::size_t proof_discrepancies = 0;
  bool complete = true;
  ErrorCode status = ErrorCode::kOk;
  std::string message;  ///< empty when complete; Error::what() otherwise
};

/// Facts simplify_policy established about the policy it returned, for
/// analyses of that same policy to reuse (lint::LintInput::facts). Facts
/// exist only when the fixpoint ended on a round whose dead elimination
/// removed nothing and no other transform changed the rules: that round's
/// scan built exactly the returned policy.
struct PolicyFacts {
  /// Indices (ascending) of the policy's dead rules, as dead_rules()
  /// reports them; empty, since the last scan found none.
  std::vector<std::size_t> dead_rules;
  /// The policy's reduced FDD, expanded from the last scan's root in the
  /// pass's arena. Identical to build_reduced_fdd(policy).
  Fdd fdd;
};

/// The outcome: the (possibly) simplified policy plus the report. When
/// the report is not complete, or the proof was refuted, `policy` is the
/// unmodified input.
struct SimplifyOutcome {
  Policy policy;
  SimplifyReport report;
  /// What the pass proved about `policy`. Unset when `max_passes` ran out
  /// before the fixpoint, when the proof was refuted or aborted, and when
  /// dead elimination is off.
  std::optional<PolicyFacts> facts;
};

/// Simplifies `policy` (see the header comment for the transform set and
/// the proof contract). Works on non-comprehensive policies too — every
/// transform preserves the fall-through set, and the proof degrades to
/// canonical-root identity (which is exact for partial functions as
/// well). Governance breaches are absorbed into the report; other
/// exceptions propagate.
SimplifyOutcome simplify_policy(const Policy& policy,
                                const SimplifyOptions& options = {});

}  // namespace dfw
