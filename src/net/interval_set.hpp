// Normalized sets of disjoint intervals.
//
// FDD edge labels are "nonempty sets of integers" (paper, Section 2,
// property 3). We represent such a set canonically as a sorted vector of
// pairwise-disjoint, non-adjacent intervals, so that structural equality of
// labels coincides with set equality — the property both the shaping and the
// comparison algorithms rely on.

#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "net/interval.hpp"

namespace dfw {

/// A (possibly empty) set of uint64_t values stored as a canonical run of
/// disjoint, non-adjacent, sorted intervals.
///
/// Invariant: for consecutive members a, b: a.hi() + 1 < b.lo().
class IntervalSet {
 public:
  IntervalSet() = default;
  /*implicit*/ IntervalSet(Interval iv) { add(iv); }
  IntervalSet(std::initializer_list<Interval> ivs) {
    for (const Interval& iv : ivs) {
      add(iv);
    }
  }

  bool empty() const { return intervals_.empty(); }

  /// Number of maximal runs (not the number of values).
  std::size_t run_count() const { return intervals_.size(); }

  /// Number of values, saturating at UINT64_MAX.
  Value size() const;

  const std::vector<Interval>& intervals() const { return intervals_; }

  bool contains(Value v) const;
  bool contains(const IntervalSet& other) const;

  /// Smallest member; requires !empty().
  Value min() const;
  /// Largest member; requires !empty().
  Value max() const;

  /// Inserts every value of `iv`, merging runs as needed.
  void add(Interval iv);

  IntervalSet unite(const IntervalSet& other) const;
  IntervalSet intersect(const IntervalSet& other) const;
  /// Set difference this \ other.
  IntervalSet subtract(const IntervalSet& other) const;
  /// Set difference this \ (union of `runs`), where `runs` are pairwise
  /// disjoint and sorted by lo() but, unlike a set's runs, may be
  /// adjacent — e.g. the runs of several disjoint sets merged by lo().
  IntervalSet subtract_runs(std::span<const Interval> runs) const;

  bool overlaps(const IntervalSet& other) const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

  /// Renders "{[a, b], [c], ...}".
  std::string to_string() const;

 private:
  std::vector<Interval> intervals_;
};

}  // namespace dfw
