#include "fl/gossip_runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fl/trainer.hpp"

namespace fedsched::fl {

const char* topology_name(Topology topology) noexcept {
  switch (topology) {
    case Topology::kRing: return "ring";
    case Topology::kComplete: return "complete";
  }
  return "?";
}

std::vector<std::vector<std::size_t>> build_topology(Topology topology,
                                                     std::size_t n) {
  if (n == 0) throw std::invalid_argument("build_topology: no clients");
  std::vector<std::vector<std::size_t>> neighbors(n);
  switch (topology) {
    case Topology::kRing:
      for (std::size_t u = 0; u < n; ++u) {
        if (n == 1) break;
        const std::size_t prev = (u + n - 1) % n;
        const std::size_t next = (u + 1) % n;
        neighbors[u].push_back(prev);
        if (next != prev) neighbors[u].push_back(next);
      }
      break;
    case Topology::kComplete:
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = 0; v < n; ++v) {
          if (v != u) neighbors[u].push_back(v);
        }
      }
      break;
  }
  return neighbors;
}

GossipRunner::GossipRunner(const data::Dataset& train, const data::Dataset& test,
                           nn::ModelSpec model_spec, device::ModelDesc device_model,
                           std::vector<device::PhoneModel> phones,
                           device::NetworkType network, GossipConfig config)
    : train_(train),
      test_(test),
      model_spec_(model_spec),
      device_model_(std::move(device_model)),
      phones_(std::move(phones)),
      network_(network),
      config_(config),
      executor_(model_spec, config.parallelism) {
  if (phones_.empty()) throw std::invalid_argument("GossipRunner: no devices");
}

GossipRunResult GossipRunner::run(const data::Partition& partition) {
  const std::size_t n = phones_.size();
  if (partition.users() != n) {
    throw std::invalid_argument("GossipRunner::run: partition/device count mismatch");
  }
  bool any_data = false;
  for (const auto& share : partition.user_indices) any_data |= !share.empty();
  if (!any_data) throw std::invalid_argument("GossipRunner::run: empty partition");

  const auto neighbors = build_topology(config_.topology, n);
  std::vector<device::Device> devices;
  devices.reserve(n);
  for (device::PhoneModel phone : phones_) devices.emplace_back(phone, network_);
  std::vector<nn::Sgd> optimizers(n, nn::Sgd(config_.sgd));
  common::Rng rng(config_.seed ^ 0x5151515151ULL);

  // Every client starts from the same initialization (a shared seed model,
  // as decentralized training assumes).
  common::Rng init_rng(config_.seed);
  nn::Model seed_model = nn::build_model(model_spec_, init_rng);
  std::vector<std::vector<float>> params(n, seed_model.flat_params());

  // Share sizes weight the mixing and order the executor's claims (largest
  // first).
  std::vector<std::size_t> share_sizes(n);
  for (std::size_t u = 0; u < n; ++u) share_sizes[u] = partition.user_indices[u].size();
  const auto& link = device::link_of(network_);
  const double upload_s = device::upload_seconds(link, device_model_.size_mb);
  const double download_s = device::download_seconds(link, device_model_.size_mb);

  GossipRunResult result;
  std::vector<double> client_loss(n, 0.0);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    RoundRecord record;
    record.round = round;
    record.client_seconds.assign(n, 0.0);

    // 1. Local training on each client's own parameters — clients only
    // write their own slots, so they run concurrently.
    std::vector<std::vector<float>> trained = params;
    executor_.for_each_client(n, [&](std::size_t u, nn::Model& worker) {
      const auto& share = partition.user_indices[u];
      if (share.empty()) return;
      // Time: one epoch + one upload + `degree` neighbor downloads.
      const double downloads = static_cast<double>(neighbors[u].size()) * download_s;
      record.client_seconds[u] =
          devices[u].train(device_model_, share.size()) + upload_s + downloads;

      // fork() is const and never advances `rng`: the stream depends only on
      // (round, client), whichever lane runs it.
      common::Rng client_rng = rng.fork(round * n + u);
      worker.set_flat_params(params[u]);
      const auto stats = train_epoch(worker, optimizers[u], train_, share,
                                     config_.batch_size, client_rng);
      client_loss[u] = stats.mean_loss;
      trained[u] = worker.flat_params();
    }, share_sizes);

    double loss_sum = 0.0;
    std::size_t loss_users = 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (share_sizes[u] == 0) continue;
      loss_sum += client_loss[u];
      ++loss_users;
    }

    // 2. Gossip averaging over closed neighborhoods, weighted by data size.
    // Every mixed[u] reads the frozen `trained` snapshot and sums its
    // neighborhood in fixed order, so the mixing parallelizes per client.
    // Dataless clients mix their neighbors but weigh 0.
    std::vector<std::vector<float>> mixed(n);
    executor_.for_each_block(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) {
        double total_weight = static_cast<double>(share_sizes[u]);
        std::vector<float> acc(trained[u].size(), 0.0f);
        auto accumulate = [&](std::size_t v, double w) {
          for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i] += static_cast<float>(w) * trained[v][i];
          }
        };
        accumulate(u, static_cast<double>(share_sizes[u]));
        for (std::size_t v : neighbors[u]) {
          const double w = static_cast<double>(share_sizes[v]);
          total_weight += w;
          accumulate(v, w);
        }
        if (total_weight <= 0.0) {
          mixed[u] = trained[u];  // isolated, dataless client keeps its params
          continue;
        }
        for (float& x : acc) x /= static_cast<float>(total_weight);
        mixed[u] = std::move(acc);
      }
    });
    params = std::move(mixed);

    record.round_seconds =
        *std::max_element(record.client_seconds.begin(), record.client_seconds.end());
    record.mean_train_loss = loss_users ? loss_sum / static_cast<double>(loss_users) : 0.0;
    result.total_seconds += record.round_seconds;
    record.cumulative_seconds = result.total_seconds;
    result.rounds.push_back(std::move(record));
  }

  // Final evaluation of every client's model + consensus gap. Each client's
  // accuracy and pairwise-gap row is independent; the mean and max reduce
  // serially in client order.
  result.client_accuracy.resize(n);
  executor_.for_each_client(n, [&](std::size_t u, nn::Model& worker) {
    worker.set_flat_params(params[u]);
    result.client_accuracy[u] = worker.accuracy(test_.images(), test_.labels());
  });
  double acc_sum = 0.0;
  for (std::size_t u = 0; u < n; ++u) acc_sum += result.client_accuracy[u];
  result.mean_accuracy = acc_sum / static_cast<double>(n);

  std::vector<double> row_gap(n, 0.0);
  executor_.for_each_block(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        double sq = 0.0;
        for (std::size_t i = 0; i < params[u].size(); ++i) {
          const double diff = params[u][i] - params[v][i];
          sq += diff * diff;
        }
        row_gap[u] = std::max(row_gap[u], std::sqrt(sq));
      }
    }
  });
  for (double gap : row_gap) result.consensus_gap = std::max(result.consensus_gap, gap);
  return result;
}

}  // namespace fedsched::fl
