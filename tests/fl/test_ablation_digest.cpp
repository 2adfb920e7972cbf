// Ablation-bit pins: one FNV-1a digest over every result field of the gossip
// and async runners, at the exact setups of bench/ablation_topology and
// bench/ablation_sync_async (Testbed II, LeNet on mnist-like data, default
// scale). The benches print their tables to 3 decimals, so a change that
// moves a low bit of a round time, a mixing weight or an accuracy cannot
// show there; it shows here. Each run is pinned at parallelism 1 and 4,
// which must give the same bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/fedsched.hpp"
#include "fl/async_runner.hpp"
#include "fl/checkpoint/codec.hpp"
#include "fl/gossip_runner.hpp"

namespace fedsched::fl {
namespace {

/// Raw little-endian bytes of every pinned field, hashed at the end.
class Digest {
 public:
  void add(double x) { bytes_.append(reinterpret_cast<const char*>(&x), sizeof x); }
  void add(std::size_t x) { bytes_.append(reinterpret_cast<const char*>(&x), sizeof x); }
  [[nodiscard]] std::uint64_t value() const { return checkpoint::fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

/// Fed-LBAP shard weights for Testbed II at the paper's 600 shards of 100.
std::vector<double> lbap_weights(const std::vector<device::PhoneModel>& phones) {
  const auto users = core::build_profiles(phones, device::lenet_desc(),
                                          device::NetworkType::kWifi, 60'000);
  const auto lbap = sched::fed_lbap(users, 600, 100);
  std::vector<double> weights;
  for (std::size_t k : lbap.assignment.shards_per_user) {
    weights.push_back(static_cast<double>(k));
  }
  return weights;
}

// bench/ablation_topology at its default scale: 900 samples, 8 rounds,
// seed 83, the Fed-LBAP partition.
std::uint64_t gossip_digest(Topology topology, std::size_t parallelism) {
  const auto phones = device::testbed(2);
  const auto train = data::generate_balanced(data::mnist_like(), 900, 80);
  const auto test = data::generate_balanced(data::mnist_like(), 300, 81);
  common::Rng rng(82);
  const auto partition = data::partition_with_sizes_iid(
      train, data::proportional_sizes(train.size(), lbap_weights(phones)), rng);

  GossipConfig config;
  config.rounds = 8;
  config.topology = topology;
  config.seed = 83;
  config.parallelism = parallelism;
  GossipRunner runner(train, test, nn::ModelSpec{}, device::lenet_desc(), phones,
                      device::NetworkType::kWifi, config);
  const GossipRunResult result = runner.run(partition);

  Digest d;
  d.add(result.rounds.size());
  for (const RoundRecord& r : result.rounds) {
    for (double s : r.client_seconds) d.add(s);
    d.add(r.round_seconds);
  }
  for (double acc : result.client_accuracy) d.add(acc);
  d.add(result.mean_accuracy);
  d.add(result.consensus_gap);
  d.add(result.total_seconds);
  return d.value();
}

// bench/ablation_sync_async at its default scale: 1200 samples, the async
// horizon set to what sync FedAvg (8 rounds, seed 63) needs on the Equal
// split, async seed 64.
struct SyncAsyncSetup {
  std::vector<device::PhoneModel> phones = device::testbed(2);
  data::Dataset train = data::generate_balanced(data::mnist_like(), 1200, 60);
  data::Dataset test = data::generate_balanced(data::mnist_like(), 300, 61);
  data::Partition equal_partition;
  data::Partition lbap_partition;
  double horizon = 0.0;

  SyncAsyncSetup() {
    common::Rng rng(62);
    equal_partition = data::partition_equal_iid(train, phones.size(), rng);
    lbap_partition = data::partition_with_sizes_iid(
        train, data::proportional_sizes(train.size(), lbap_weights(phones)), rng);
    FlConfig sync_config;
    sync_config.rounds = 8;
    sync_config.seed = 63;
    FedAvgRunner sync(train, test, nn::ModelSpec{}, device::lenet_desc(), phones,
                      device::NetworkType::kWifi, sync_config);
    horizon = sync.run(equal_partition).total_seconds;
  }
};

const SyncAsyncSetup& sync_async_setup() {
  static const SyncAsyncSetup setup;
  return setup;
}

std::uint64_t async_digest(bool lbap, std::size_t parallelism) {
  const SyncAsyncSetup& s = sync_async_setup();
  AsyncConfig config;
  config.horizon_seconds = s.horizon;
  config.seed = 64;
  config.parallelism = parallelism;
  AsyncRunner runner(s.train, s.test, nn::ModelSpec{}, device::lenet_desc(), s.phones,
                     device::NetworkType::kWifi, config);
  const AsyncRunResult result =
      runner.run(lbap ? s.lbap_partition : s.equal_partition);

  Digest d;
  d.add(result.updates.size());
  for (const AsyncUpdateRecord& u : result.updates) {
    d.add(u.time_s);
    d.add(u.client);
    d.add(u.staleness);
    d.add(u.mix_weight);
  }
  d.add(result.final_accuracy);
  d.add(result.elapsed_seconds);
  return d.value();
}

constexpr std::uint64_t kGossipRing = 0xb26c162e0974ca49ULL;
constexpr std::uint64_t kGossipComplete = 0xd9be8fe84017d6f0ULL;
constexpr std::uint64_t kAsyncEqual = 0xb06e9e0fa212552eULL;
constexpr std::uint64_t kAsyncLbap = 0x7fd9793f1507c167ULL;

TEST(AblationDigest, GossipRingSerial) {
  EXPECT_EQ(gossip_digest(Topology::kRing, 1), kGossipRing);
}

TEST(AblationDigest, GossipRingFourLanes) {
  EXPECT_EQ(gossip_digest(Topology::kRing, 4), kGossipRing);
}

TEST(AblationDigest, GossipCompleteSerial) {
  EXPECT_EQ(gossip_digest(Topology::kComplete, 1), kGossipComplete);
}

TEST(AblationDigest, GossipCompleteFourLanes) {
  EXPECT_EQ(gossip_digest(Topology::kComplete, 4), kGossipComplete);
}

TEST(AblationDigest, AsyncEqualSerial) { EXPECT_EQ(async_digest(false, 1), kAsyncEqual); }

TEST(AblationDigest, AsyncEqualFourLanes) { EXPECT_EQ(async_digest(false, 4), kAsyncEqual); }

TEST(AblationDigest, AsyncLbapSerial) { EXPECT_EQ(async_digest(true, 1), kAsyncLbap); }

TEST(AblationDigest, AsyncLbapFourLanes) { EXPECT_EQ(async_digest(true, 4), kAsyncLbap); }

}  // namespace
}  // namespace fedsched::fl
