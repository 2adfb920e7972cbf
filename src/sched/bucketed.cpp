#include "sched/bucketed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "sched/weighted_cut.hpp"

namespace fedsched::sched {

namespace {

void validate(const LinearCosts& costs, std::size_t total_shards,
              std::size_t buckets, const char* who) {
  if (total_shards == 0) throw std::invalid_argument(std::string(who) + ": zero shards");
  if (buckets == 0) throw std::invalid_argument(std::string(who) + ": zero buckets");
  if (costs.total_capacity() < total_shards) {
    throw std::invalid_argument(std::string(who) +
                                ": user capacities cannot host the dataset");
  }
}

/// Calls f with user j's marginal costs C_jk - C_j(k-1) for k = load..1,
/// the order in which the trim pops its shards.
template <typename F>
void for_each_marginal(const LinearCosts& costs, std::size_t j, std::size_t load, F&& f) {
  double upper = costs.cost(j, load);
  for (std::size_t k = load; k >= 1; --k) {
    const double lower = k > 1 ? costs.cost(j, k - 1) : 0.0;
    f(upper - lower);
    upper = lower;
  }
}

// Surplus trim, same rule as the exact path: `surplus` times, drop the shard
// of the user whose current marginal cost is largest, lowest user id on
// ties. A user's marginal can grow as its load shrinks: its last shard
// re-enters at cost(j, 1) = base + slope, above the slope, and the float
// differences cost(j, k) - cost(j, k-1) wobble by ulps. The pop order is
// still a sort. Key the shard a user gives up at load k with the running
// minimum of its marginals at loads L_j..k, and cut each user's pops into
// runs of equal key. A run's first marginal is its key; when it is popped it
// is the largest current marginal (ties at higher ids), and every later
// marginal of the run is >= the key while no other user's marginal moves, so
// the user keeps winning to the run's end. The next marginal then starts
// the user's next run, at a strictly smaller key. Pops are thus a merge of
// per-user runs with decreasing keys: shards go in (key desc, user asc,
// position asc) order, and the trim removes the first `surplus` of it, which
// is one weighted cut over every busy user's runs. A run starts only at a
// new running minimum, so users have few of them (1.0-1.5 per busy user on
// the 1M-client fleets measured).
void trim_surplus(const LinearCosts& costs, std::vector<std::size_t>& shards,
                  std::size_t surplus) {
  // A run holds at least one shard, so the shard count bounds the runs.
  // Reserving that bound spares the regrowth copies; the pages past the
  // last run written are never touched.
  std::vector<CutRecord> runs;
  runs.reserve(std::accumulate(shards.begin(), shards.end(), std::size_t{0}));
  for (std::size_t j = 0; j < shards.size(); ++j) {
    if (shards[j] == 0) continue;
    const auto user = static_cast<std::uint32_t>(j);
    double key = std::numeric_limits<double>::infinity();
    std::uint32_t run = 0;
    for_each_marginal(costs, j, shards[j], [&](double m) {
      if (m < key) {
        // Keys are negated: weighted_cut orders ascending, the trim descending.
        if (run > 0) runs.push_back({-key, user, run});
        key = m;
        run = 0;
      }
      ++run;
    });
    runs.push_back({-key, user, run});
  }
  const WeightedCut cut = weighted_cut(runs, surplus);
  for (std::size_t i = 0; i < cut.index; ++i) shards[runs[i].user] -= runs[i].weight;
  shards[runs[cut.index].user] -= surplus - cut.weight_before;
}

}  // namespace

BucketedLbapResult fed_lbap_bucketed(const LinearCosts& costs,
                                     std::size_t total_shards, std::size_t buckets,
                                     obs::TraceWriter* trace) {
  validate(costs, total_shards, buckets, "fed_lbap_bucketed");
  const std::size_t n = costs.users();
  const double lo = costs.min_single_shard_cost();
  const double hi = costs.max_full_cost(total_shards);
  const double width = (hi - lo) / static_cast<double>(buckets);

  // Boundary i of the histogram, i in [0, buckets]. The last boundary is
  // pinned to hi itself so accumulated rounding in lo + width*i can never
  // leave the top of the cost range outside the search domain.
  const auto boundary = [&](std::size_t i) {
    return i == buckets ? hi : lo + width * static_cast<double>(i);
  };

  // Binary search the smallest feasible boundary. boundary(buckets) == hi is
  // always feasible once total capacity hosts the dataset (every user's
  // budget at hi is at least min(capacity_j, total_shards)), and the exact
  // c* lies in (chosen - width, chosen], so the quantized threshold
  // overshoots the optimum by less than one bucket width.
  std::size_t lo_i = 0, hi_i = buckets;
  std::size_t iterations = 0;
  while (lo_i < hi_i) {
    const std::size_t mid = lo_i + (hi_i - lo_i) / 2;
    ++iterations;
    if (costs.total_budget(boundary(mid), total_shards) >= total_shards) {
      hi_i = mid;
    } else {
      lo_i = mid + 1;
    }
  }
  const double threshold = boundary(lo_i);

  BucketedLbapResult result;
  result.buckets = buckets;
  result.bucket_width = width;
  result.search_iterations = iterations;
  result.threshold_seconds = threshold;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n);
  std::size_t assigned = 0;
  for (std::size_t j = 0; j < n; ++j) {
    shards[j] = costs.max_shards_within(j, threshold);
    assigned += shards[j];
  }

  if (assigned > total_shards) {
    result.trimmed_shards = assigned - total_shards;
    trim_surplus(costs, shards, result.trimmed_shards);
  }

  double actual = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (shards[j] > 0) actual = std::max(actual, costs.cost(j, shards[j]));
  }
  result.makespan_seconds = actual;

  if (trace != nullptr && trace->enabled()) {
    // Unlike sched_lbap, no per-user shard list: at fleet scale that array is
    // the whole trace.
    common::JsonObject ev;
    ev.field("ev", "sched_lbap_bucketed")
        .field("users", n)
        .field("total_shards", total_shards)
        .field("buckets", buckets)
        .field("bucket_width_s", width)
        .field("threshold_s", result.threshold_seconds)
        .field("iterations", result.search_iterations)
        .field("trimmed", result.trimmed_shards)
        .field("makespan_s", result.makespan_seconds);
    trace->write(ev);
  }
  return result;
}

BucketedMinAvgResult fed_minavg_bucketed(const LinearCosts& costs,
                                         std::size_t total_shards,
                                         std::size_t buckets,
                                         obs::TraceWriter* trace) {
  validate(costs, total_shards, buckets, "fed_minavg_bucketed");
  const std::size_t n = costs.users();
  const double lo = costs.min_single_shard_cost();
  const double hi = costs.max_full_cost(total_shards);
  const double width = (hi - lo) / static_cast<double>(buckets);

  // Every candidate cost cost(j, l_j + 1) the greedy ever evaluates lies in
  // [lo, hi], so bucket_of never clips below 0.
  const auto bucket_of = [&](double c) -> std::size_t {
    if (width <= 0.0) return 0;
    const double b = std::floor((c - lo) / width);
    if (b <= 0.0) return 0;
    return std::min<std::size_t>(static_cast<std::size_t>(b), buckets - 1);
  };

  BucketedMinAvgResult result;
  result.buckets = buckets;
  result.bucket_width = width;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n, 0);

  // Per-bucket min-heaps of client ids with lazy deletion: an entry is live
  // while the client's *current* candidate bucket still matches. Candidate
  // costs only grow with load (Property 1), so clients migrate to higher
  // buckets and the cursor over non-empty buckets never moves backwards.
  constexpr std::size_t kClosed = static_cast<std::size_t>(-1);
  using MinIdHeap =
      std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                          std::greater<std::uint32_t>>;
  std::vector<MinIdHeap> heap(buckets);
  std::vector<std::size_t> current_bucket(n, kClosed);
  for (std::size_t j = 0; j < n; ++j) {
    if (costs.capacity(j) == 0) continue;
    current_bucket[j] = bucket_of(costs.cost(j, 1));
    heap[current_bucket[j]].push(static_cast<std::uint32_t>(j));
  }

  std::size_t cursor = 0;
  while (result.steps < total_shards) {
    while (cursor < buckets && heap[cursor].empty()) ++cursor;
    if (cursor >= buckets) {
      throw std::logic_error("fed_minavg_bucketed: heaps drained early");
    }
    const std::size_t j = heap[cursor].top();
    heap[cursor].pop();
    if (current_bucket[j] != cursor) continue;  // stale entry
    ++shards[j];
    ++result.steps;
    if (shards[j] < costs.capacity(j)) {
      current_bucket[j] = bucket_of(costs.cost(j, shards[j] + 1));
      heap[current_bucket[j]].push(static_cast<std::uint32_t>(j));
    } else {
      current_bucket[j] = kClosed;
    }
  }

  for (std::size_t j = 0; j < n; ++j) {
    if (shards[j] == 0) continue;
    const double c = costs.cost(j, shards[j]);
    result.total_time_seconds += c;
    result.makespan_seconds = std::max(result.makespan_seconds, c);
  }

  if (trace != nullptr && trace->enabled()) {
    common::JsonObject ev;
    ev.field("ev", "sched_minavg_bucketed")
        .field("users", n)
        .field("total_shards", total_shards)
        .field("buckets", buckets)
        .field("bucket_width_s", width)
        .field("steps", result.steps)
        .field("total_s", result.total_time_seconds)
        .field("makespan_s", result.makespan_seconds);
    trace->write(ev);
  }
  return result;
}

}  // namespace fedsched::sched
