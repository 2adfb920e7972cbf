#include "sched/weighted_cut.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedsched::sched {

namespace {

bool precedes(const CutRecord& a, const CutRecord& b) {
  return a.key < b.key || (a.key == b.key && a.user < b.user);
}

std::uint64_t weight_of(const CutRecord* first, const CutRecord* last) {
  std::uint64_t w = 0;
  for (; first != last; ++first) w += first->weight;
  return w;
}

// Below this many records the remaining range is sorted and scanned.
constexpr std::size_t kSortBelow = 32;

}  // namespace

WeightedCut weighted_cut(std::span<CutRecord> records, std::uint64_t target) {
  CutRecord* const begin = records.data();
  CutRecord* first = begin;
  CutRecord* last = begin + records.size();
  std::uint64_t range_weight = weight_of(first, last);
  if (target == 0 || target > range_weight) {
    throw std::invalid_argument("weighted_cut: target outside (0, total weight]");
  }
  // Invariant: the records in [begin, first) precede the cut and weigh
  // `before`; the cut lies in [first, last), which weighs range_weight, and
  // 0 < target - before <= range_weight.
  std::uint64_t before = 0;
  while (static_cast<std::size_t>(last - first) > kSortBelow) {
    const auto m = static_cast<std::size_t>(last - first);
    const double frac =
        static_cast<double>(target - before) / static_cast<double>(range_weight);
    // Interpolated pivot: the rank the target would have if weights were
    // equal, pushed past it toward the nearer end so that the target most
    // likely falls in the shorter side, which becomes the next range.
    const double margin = static_cast<double>(m) / 32.0 + 16.0;
    const double rank = frac * static_cast<double>(m) + (frac < 0.5 ? margin : -margin);
    const auto k = static_cast<std::size_t>(
        std::clamp(rank, 0.0, static_cast<double>(m - 1)));
    CutRecord* const pivot = first + k;
    std::nth_element(first, pivot, last, precedes);
    // Sum the shorter side; the other follows from range_weight.
    const std::uint64_t left =
        k <= m / 2 ? weight_of(first, pivot)
                   : range_weight - pivot->weight - weight_of(pivot + 1, last);
    const std::uint64_t want = target - before;
    if (want <= left) {
      last = pivot;
      range_weight = left;
    } else if (want <= left + pivot->weight) {
      return {static_cast<std::size_t>(pivot - begin), before + left};
    } else {
      before += left + pivot->weight;
      range_weight -= left + pivot->weight;
      first = pivot + 1;
    }
  }
  std::sort(first, last, precedes);
  for (CutRecord* r = first;; ++r) {
    if (target - before <= r->weight) {
      return {static_cast<std::size_t>(r - begin), before};
    }
    before += r->weight;
  }
}

}  // namespace fedsched::sched
