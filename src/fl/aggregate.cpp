#include "fl/aggregate.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedsched::fl {

void survivor_weighted_average(std::vector<float>& aggregate,
                               const std::vector<std::vector<float>>& locals,
                               const std::vector<char>& trained,
                               const std::vector<std::size_t>& share_sizes,
                               std::size_t survivor_samples,
                               ClientExecutor& executor) {
  if (survivor_samples == 0) {
    throw std::invalid_argument("survivor_weighted_average: zero survivor samples");
  }
  const std::size_t n_users = trained.size();
  std::fill(aggregate.begin(), aggregate.end(), 0.0f);
  executor.for_each_block(aggregate.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = 0; u < n_users; ++u) {
      if (!trained[u]) continue;
      const float weight = static_cast<float>(share_sizes[u]) /
                           static_cast<float>(survivor_samples);
      const float* local = locals[u].data();
      for (std::size_t i = lo; i < hi; ++i) aggregate[i] += weight * local[i];
    }
  });
}

std::vector<double> flat_weighted_sum(std::span<const std::uint32_t> members,
                                      std::span<const std::uint32_t> weights,
                                      std::size_t dim, const UpdateFn& update_into) {
  if (members.size() != weights.size()) {
    throw std::invalid_argument("flat_weighted_sum: misaligned members/weights");
  }
  std::vector<double> result(dim, 0.0);
  std::vector<double> buf(dim);
  for (std::size_t m = 0; m < members.size(); ++m) {
    update_into(members[m], buf);
    const double w = static_cast<double>(weights[m]);
    for (std::size_t i = 0; i < dim; ++i) result[i] += w * buf[i];
  }
  return result;
}

std::vector<double> tree_weighted_sum(std::span<const std::uint32_t> members,
                                      std::span<const std::uint32_t> weights,
                                      std::size_t dim, const UpdateFn& update_into,
                                      std::size_t group_size,
                                      common::ThreadPool* pool) {
  if (members.size() != weights.size()) {
    throw std::invalid_argument("tree_weighted_sum: misaligned members/weights");
  }
  std::vector<double> result(dim, 0.0);
  if (members.empty() || dim == 0) return result;

  const std::size_t groups =
      common::ThreadPool::grain_chunks(members.size(), group_size);
  std::vector<std::vector<double>> partials(groups);
  const auto accumulate_group = [&](std::size_t g, std::size_t lo, std::size_t hi) {
    auto& partial = partials[g];
    partial.assign(dim, 0.0);
    std::vector<double> buf(dim);
    for (std::size_t m = lo; m < hi; ++m) {
      update_into(members[m], buf);
      const double w = static_cast<double>(weights[m]);
      for (std::size_t i = 0; i < dim; ++i) partial[i] += w * buf[i];
    }
  };

  common::parallel_for_chunks(pool, 0, members.size(), groups, accumulate_group);

  // Combine shard-group partials in group order on one thread: the only
  // cross-group arithmetic, and it never depends on the pool.
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < dim; ++i) result[i] += partials[g][i];
  }
  return result;
}

}  // namespace fedsched::fl
