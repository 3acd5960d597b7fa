// Redundant-rule detection and removal (the paper's ref [19], "Complete
// Redundancy Detection in Firewalls"), used by discrepancy-resolution
// method 2 (Section 6.2).
//
// A rule is redundant iff removing it does not change the firewall's
// mapping from packets to decisions. One pass decides every rule at once:
// the Fig. 7 append builds a single partial FDD in rule order whose
// terminals record each packet class's first matching rule and the
// decision of its second; rule i is redundant iff every terminal it
// matches first falls through to the same decision (a rule that matches
// first nowhere is dead, hence redundant). Removal is greedy back to
// front, re-deciding against the shrinking policy so the final sequence
// has no redundant rule left (a maximal removal set).
//
// Dead rules are decided elsewhere, by the canonical FddArena build
// (analysis/anomaly.hpp dead_rules, FddArena::build_reduced).

#pragma once

#include <cstddef>
#include <vector>

#include "fw/policy.hpp"

namespace dfw {

class RunContext;

/// True iff rules()[index] is redundant in `policy` — removing it leaves
/// the packet-to-decision mapping unchanged. False whenever the policy
/// is not comprehensive or has fewer than two rules; throws
/// std::out_of_range unless index < size(). The governed variant
/// checkpoints and charges the diagram's nodes against `context`
/// (borrowed, nullable); a breach throws dfw::Error.
bool is_redundant(const Policy& policy, std::size_t index);
bool is_redundant(const Policy& policy, std::size_t index,
                  RunContext* context);

/// Indices (ascending) of rules redundant *in the original policy*, each
/// decided independently (empty where is_redundant is always false).
/// Note removing several at once is not always sound; use
/// remove_redundant for that. Same governed-variant contract as
/// is_redundant.
std::vector<std::size_t> redundant_rules(const Policy& policy);
std::vector<std::size_t> redundant_rules(const Policy& policy,
                                         RunContext* context);

/// Returns an equivalent policy from which redundant rules have been
/// removed greedily (back to front, re-testing after each removal) until
/// none remains.
Policy remove_redundant(const Policy& policy);

}  // namespace dfw
