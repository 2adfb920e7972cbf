#include "fl/async_runner.hpp"

#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "fl/trainer.hpp"

namespace fedsched::fl {

double AsyncRunResult::mean_staleness() const {
  if (updates.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& u : updates) sum += static_cast<double>(u.staleness);
  return sum / static_cast<double>(updates.size());
}

std::size_t AsyncRunResult::updates_from(std::size_t client) const {
  std::size_t count = 0;
  for (const auto& u : updates) count += (u.client == client);
  return count;
}

AsyncRunner::AsyncRunner(const data::Dataset& train, const data::Dataset& test,
                         nn::ModelSpec model_spec, device::ModelDesc device_model,
                         std::vector<device::PhoneModel> phones,
                         device::NetworkType network, AsyncConfig config)
    : train_(train),
      test_(test),
      device_model_(std::move(device_model)),
      phones_(std::move(phones)),
      network_(network),
      config_(config),
      executor_(model_spec, config.parallelism) {
  if (phones_.empty()) throw std::invalid_argument("AsyncRunner: no devices");
  common::Rng init_rng(config_.seed);
  global_ = nn::build_model(model_spec, init_rng);
}

AsyncRunResult AsyncRunner::run(const data::Partition& partition) {
  if (partition.users() != phones_.size()) {
    throw std::invalid_argument("AsyncRunner::run: partition/device count mismatch");
  }
  const std::size_t n = phones_.size();

  std::vector<nn::Sgd> optimizers(n, nn::Sgd(config_.sgd));
  common::Rng rng(config_.seed ^ 0xA5A5A5A5ULL);

  // Event = a client finishing a round trip at a simulated instant.
  struct Event {
    double time_s;
    std::size_t client;
    bool operator>(const Event& other) const { return time_s > other.time_s; }
  };

  // Phase 1 — simulate the merge timeline. Round-trip durations come from
  // the device simulators alone (they never depend on trained parameters),
  // so the full order of merges is known before any training happens. That
  // order is what makes the parallel phase deterministic: merges are applied
  // in timeline order no matter when their training finishes.
  std::vector<Event> merges;
  {
    std::vector<device::Device> devices;
    devices.reserve(n);
    for (device::PhoneModel phone : phones_) devices.emplace_back(phone, network_);

    // One round trip of client u launched at `start_s`: download, one local
    // epoch on the device, upload.
    auto trip = [&](std::size_t u, double start_s) -> Event {
      const double comm_s = devices[u].comm_seconds(device_model_);
      const double busy_s =
          comm_s + devices[u].train(device_model_, partition.user_indices[u].size());
      return {start_s + busy_s, u};
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    bool any_data = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (partition.user_indices[u].empty()) continue;
      any_data = true;
      queue.push(trip(u, 0.0));
    }
    if (!any_data) throw std::invalid_argument("AsyncRunner::run: empty partition");

    while (!queue.empty() && queue.top().time_s <= config_.horizon_seconds) {
      const Event event = queue.top();
      queue.pop();
      merges.push_back(event);
      // The client pulls the fresh model and starts its next round trip.
      queue.push(trip(event.client, event.time_s));
    }
  }

  // Per-client chain of merge indices: training for merge k may start as
  // soon as the client's previous merge was applied.
  const std::size_t n_merges = merges.size();
  std::vector<std::size_t> next_merge(n_merges, n_merges);
  std::vector<std::size_t> first_merge(n, n_merges);
  {
    std::vector<std::size_t> last_seen(n, n_merges);
    for (std::size_t k = 0; k < n_merges; ++k) {
      const std::size_t u = merges[k].client;
      if (first_merge[u] == n_merges) {
        first_merge[u] = k;
      } else {
        next_merge[last_seen[u]] = k;
      }
      last_seen[u] = k;
    }
  }

  AsyncRunResult result;
  std::vector<float> global_params = global_.flat_params();

  // Phase 2 — training in waves. A client trains from the parameters it
  // pulled at launch; merges that land while it is in flight do not affect
  // it (that is exactly the staleness the runner models). So training merge
  // k is a pure function of its pulled snapshot, its client's optimizer and
  // rng.fork(k + 1) (fork() never advances the parent, so the index alone
  // determines the stream), and merges still apply in timeline order. When
  // the next merge to apply is untrained, one wave trains every launched,
  // untrained merge in parallel. A wave holds each client at most once: a
  // client launches its next merge only after its previous one applied.
  std::vector<std::vector<float>> pulled(n_merges);
  std::vector<std::vector<float>> locals(n_merges);
  std::vector<std::size_t> wave;  // launched, untrained merges
  auto launch = [&](std::size_t k) {
    pulled[k] = global_params;
    wave.push_back(k);
  };
  auto train_wave = [&] {
    executor_.for_each_client(wave.size(), [&](std::size_t i, nn::Model& worker) {
      const std::size_t k = wave[i];
      const std::size_t u = merges[k].client;
      common::Rng client_rng = rng.fork(k + 1);
      worker.set_flat_params(pulled[k]);
      (void)train_epoch(worker, optimizers[u], train_, partition.user_indices[u],
                        config_.batch_size, client_rng);
      locals[k] = worker.flat_params();
      pulled[k] = {};
    });
    wave.clear();
  };
  for (std::size_t u = 0; u < n; ++u) {
    if (first_merge[u] < n_merges) launch(first_merge[u]);
  }

  std::vector<std::size_t> base_version(n, 0);
  for (std::size_t k = 0; k < n_merges; ++k) {
    const std::size_t u = merges[k].client;
    if (locals[k].empty()) train_wave();  // merge k is in the open wave
    const std::vector<float> local = std::move(locals[k]);

    const std::size_t staleness = k - base_version[u];
    const double mix = config_.base_mix /
                       std::pow(1.0 + static_cast<double>(staleness), config_.damping);
    for (std::size_t i = 0; i < global_params.size(); ++i) {
      global_params[i] = static_cast<float>((1.0 - mix) * global_params[i] +
                                            mix * local[i]);
    }
    result.updates.push_back({merges[k].time_s, u, staleness, mix});
    result.elapsed_seconds = merges[k].time_s;
    base_version[u] = k + 1;

    if (next_merge[k] < n_merges) launch(next_merge[k]);
  }

  global_.set_flat_params(global_params);
  result.final_accuracy = global_.accuracy(test_.images(), test_.labels());
  return result;
}

}  // namespace fedsched::fl
