#include "net/interval_set.hpp"

#include <algorithm>

namespace dfw {

Value IntervalSet::size() const {
  Value total = 0;
  for (const Interval& iv : intervals_) {
    const Value n = iv.size();
    if (total > UINT64_MAX - n) {
      return UINT64_MAX;
    }
    total += n;
  }
  return total;
}

bool IntervalSet::contains(Value v) const {
  // Binary search over the sorted runs: find the first run ending >= v.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), v,
      [](const Interval& iv, Value x) { return iv.hi() < x; });
  return it != intervals_.end() && it->contains(v);
}

bool IntervalSet::contains(const IntervalSet& other) const {
  // Runs are maximal, so each run of `other` lies inside a single run of
  // this set or is not contained at all.
  std::size_t i = 0;
  for (const Interval& iv : other.intervals_) {
    while (i < intervals_.size() && intervals_[i].hi() < iv.lo()) {
      ++i;
    }
    if (i == intervals_.size() || intervals_[i].lo() > iv.lo() ||
        intervals_[i].hi() < iv.hi()) {
      return false;
    }
  }
  return true;
}

bool IntervalSet::overlaps(const IntervalSet& other) const {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    if (intervals_[i].hi() < other.intervals_[j].lo()) {
      ++i;
    } else if (other.intervals_[j].hi() < intervals_[i].lo()) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

Value IntervalSet::min() const {
  if (empty()) {
    throw std::logic_error("IntervalSet::min on empty set");
  }
  return intervals_.front().lo();
}

Value IntervalSet::max() const {
  if (empty()) {
    throw std::logic_error("IntervalSet::max on empty set");
  }
  return intervals_.back().hi();
}

void IntervalSet::add(Interval iv) {
  // Find the span of existing runs mergeable with iv and collapse them.
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) {
        return a.hi() < b.lo() && !a.mergeable(b);
      });
  auto last = first;
  Interval merged = iv;
  while (last != intervals_.end() && merged.mergeable(*last)) {
    merged = merged.merge(*last);
    ++last;
  }
  if (first == last) {
    intervals_.insert(first, merged);
  } else {
    *first = merged;
    intervals_.erase(first + 1, last);
  }
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  IntervalSet result = *this;
  for (const Interval& iv : other.intervals_) {
    result.add(iv);
  }
  return result;
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  IntervalSet result;
  // Classic two-pointer sweep over two sorted disjoint runs.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    if (auto common = a.intersect(b)) {
      result.intervals_.push_back(*common);
    }
    if (a.hi() < b.hi()) {
      ++i;
    } else {
      ++j;
    }
  }
  return result;
}

IntervalSet IntervalSet::subtract(const IntervalSet& other) const {
  return subtract_runs(other.intervals_);
}

IntervalSet IntervalSet::subtract_runs(std::span<const Interval> runs) const {
  // One sweep: the gaps runs leave inside each of our runs are the output.
  // Adjacent runs leave no gap, so they need no merging first.
  IntervalSet result;
  std::size_t j = 0;
  for (const Interval& a : intervals_) {
    Value lo = a.lo();
    bool open = true;  // [lo, a.hi()] still pending output
    while (j < runs.size() && runs[j].hi() < a.lo()) {
      ++j;
    }
    std::size_t k = j;
    while (open && k < runs.size() && runs[k].lo() <= a.hi()) {
      const Interval& b = runs[k];
      if (b.lo() > lo) {
        result.intervals_.push_back(Interval(lo, b.lo() - 1));
      }
      if (b.hi() >= a.hi()) {
        open = false;
      } else {
        lo = std::max(lo, b.hi() + 1);
      }
      ++k;
    }
    if (open) {
      result.intervals_.push_back(Interval(lo, a.hi()));
    }
  }
  return result;
}

std::string IntervalSet::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += intervals_[i].to_string();
  }
  out += "}";
  return out;
}

}  // namespace dfw
