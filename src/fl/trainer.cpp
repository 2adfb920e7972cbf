#include "fl/trainer.hpp"

#include <numeric>
#include <vector>

#include "nn/loss.hpp"

namespace fedsched::fl {

EpochStats train_epoch(nn::Model& model, nn::Sgd& sgd, const data::Dataset& ds,
                       std::span<const std::size_t> indices, std::size_t batch_size,
                       common::Rng& rng) {
  EpochStats stats;
  if (indices.empty()) return stats;
  std::vector<std::size_t> order(indices.begin(), indices.end());
  rng.shuffle(order);

  tensor::Tensor batch;
  std::vector<std::uint16_t> labels;
  nn::LossResult loss;
  double loss_sum = 0.0;
  for (std::size_t start = 0; start < order.size(); start += batch_size) {
    const std::size_t count = std::min(batch_size, order.size() - start);
    ds.fill_batch(std::span(order).subspan(start, count), batch, labels);
    nn::softmax_cross_entropy(model.forward(batch, /*train=*/true), labels, loss);
    model.backward(loss.grad);
    sgd.step(model);
    loss_sum += loss.loss;
    ++stats.batches;
    stats.samples += count;
  }
  stats.mean_loss = loss_sum / static_cast<double>(stats.batches);
  return stats;
}

EpochStats train_centralized(nn::Model& model, nn::Sgd& sgd, const data::Dataset& ds,
                             std::size_t epochs, std::size_t batch_size,
                             common::Rng& rng) {
  std::vector<std::size_t> all(ds.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  EpochStats stats;
  for (std::size_t e = 0; e < epochs; ++e) {
    stats = train_epoch(model, sgd, ds, all, batch_size, rng);
  }
  return stats;
}

}  // namespace fedsched::fl
