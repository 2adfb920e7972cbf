#pragma once
// Weighted selection over per-client records — the kernel behind the fleet
// planners' shard orders. Both fed_lbap_bucketed's surplus trim and
// fed_minenergy's greedy pop shards in an order that is a sort of per-client
// runs: each run offers `weight` of one client's shards at one `key`, and the
// planner takes shards in (key, client id) order until `target` are taken.
// Sorting the records would answer that in O(n log n); weighted_cut answers
// it in expected O(n) by locating only the record where the running weight
// first reaches the target.

#include <cstddef>
#include <cstdint>
#include <span>

namespace fedsched::sched {

/// One client's run: `weight` units offered at `key`, ordered by (key, user).
struct CutRecord {
  double key = 0.0;
  std::uint32_t user = 0;
  std::uint32_t weight = 0;
};

struct WeightedCut {
  /// Position of the cut record after weighted_cut has permuted the span.
  std::size_t index = 0;
  /// Total weight of the records ordered before the cut record.
  std::uint64_t weight_before = 0;
};

/// Finds the record at which the cumulative weight, in ascending
/// (key, user) order, first reaches `target`: weight_before < target <=
/// weight_before + records[index].weight. Permutes `records` so that
/// [0, index) holds exactly the records ordered before it (in no particular
/// order) and (index, end) the records ordered after it. Keys must not be
/// NaN and (key, user) pairs must be distinct. Throws std::invalid_argument
/// unless 1 <= target <= total weight. Expected O(n): std::nth_element
/// around an interpolated pivot, never a full sort.
WeightedCut weighted_cut(std::span<CutRecord> records, std::uint64_t target);

}  // namespace fedsched::sched
