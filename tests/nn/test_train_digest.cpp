// Training-bit pins: the FNV-1a digest of the flat parameters after real
// training, for the shapes the production runs use. Any kernel change that
// moves one bit of a conv, pool, dense, loss or optimizer step moves these
// digests, so a speed-up that claims to keep bits is checked here in tier-1
// rather than only by the end-to-end benchmark's pins.
//
// Covered: LeNet on the mnist-like set (1x12x12) and VGG6 on the cifar-like
// set (3x16x16), batch 20 with a ragged tail batch, plain SGD and momentum
// with weight decay; plus a short Table III-shaped FedAvg run (Testbed II,
// LeNet, Fed-LBAP shares) at parallelism 1 and 4, which must pin the same
// bits, and a VGG6 FedAvg round at parallelism 4, where client lanes and the
// conv layers' chunks fork on the same pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string_view>
#include <vector>

#include "coord/train_job.hpp"
#include "data/synth.hpp"
#include "fl/checkpoint/codec.hpp"
#include "fl/runner.hpp"
#include "fl/trainer.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace fedsched::nn {
namespace {

std::uint64_t digest_of(const std::vector<float>& params) {
  return fl::checkpoint::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(params.data()), params.size() * sizeof(float)));
}

struct EpochCase {
  Arch arch;
  SgdConfig sgd;
};

/// Two epochs of fl::train_epoch over `samples` rows at batch 20; returns
/// the parameter digest.
std::uint64_t train_digest(const EpochCase& c, std::size_t samples) {
  const data::SynthConfig ds_config =
      c.arch == Arch::kLeNet ? data::mnist_like() : data::cifar_like();
  const data::Dataset ds = data::generate_balanced(ds_config, samples, 91);
  ModelSpec spec;
  spec.arch = c.arch;
  spec.in_channels = ds_config.channels;
  spec.in_h = ds_config.height;
  spec.in_w = ds_config.width;
  common::Rng init(92);
  Model model = build_model(spec, init);
  Sgd sgd(c.sgd);
  std::vector<std::size_t> indices(ds.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  common::Rng rng(93);
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)fl::train_epoch(model, sgd, ds, indices, 20, rng);
  }
  return digest_of(model.flat_params());
}

constexpr SgdConfig kPlain{.learning_rate = 0.05f, .momentum = 0.0f, .weight_decay = 0.0f};
constexpr SgdConfig kMomentumDecay{
    .learning_rate = 0.02f, .momentum = 0.9f, .weight_decay = 5e-4f};

// 250 and 130 samples: 250 % 20 == 130 % 20 == 10, so every epoch ends with
// a ragged batch of 10 and the next epoch starts at 20 again.

TEST(TrainDigest, LeNetMnistPlainSgd) {
  EXPECT_EQ(train_digest({Arch::kLeNet, kPlain}, 250), 0x5eff74c4de2a3e60ULL);
}

TEST(TrainDigest, LeNetMnistMomentumWeightDecay) {
  EXPECT_EQ(train_digest({Arch::kLeNet, kMomentumDecay}, 250), 0x4a52361f25a58f59ULL);
}

TEST(TrainDigest, Vgg6CifarPlainSgd) {
  EXPECT_EQ(train_digest({Arch::kVgg6, kPlain}, 130), 0xe60843678ab5bbdfULL);
}

TEST(TrainDigest, Vgg6CifarMomentumWeightDecay) {
  EXPECT_EQ(train_digest({Arch::kVgg6, kMomentumDecay}, 130), 0x0fe26156c8925961ULL);
}

/// coord::build_train_job on Testbed II phones with Fed-LBAP shares, then
/// FedAvgRunner::run.
std::uint64_t fedavg_digest(coord::TrainRunSpec spec, std::size_t parallelism) {
  spec.testbed = 2;
  spec.policy = "fed-lbap";
  spec.parallelism = parallelism;
  const coord::TrainJob job = coord::build_train_job(spec, nullptr);
  fl::FedAvgRunner runner(job.train, job.test, job.model_spec, job.desc, job.phones,
                          device::NetworkType::kWifi, job.config);
  (void)runner.run(job.partition);
  return digest_of(runner.global_model().flat_params());
}

/// Table III in miniature: LeNet on mnist-like data.
coord::TrainRunSpec table3() {
  return {.dataset = "mnist", .model = "LeNet", .samples = 1200, .rounds = 2, .seed = 94};
}

TEST(TrainDigest, Table3FedAvgSerial) {
  EXPECT_EQ(fedavg_digest(table3(), 1), 0xafe3ed7860637efcULL);
}

TEST(TrainDigest, Table3FedAvgFourLanes) {
  EXPECT_EQ(fedavg_digest(table3(), 4), 0xafe3ed7860637efcULL);
}

TEST(TrainDigest, Vgg6FedAvgFourLanes) {
  // The same bits as a serial run (0x57df71745d10e2d6 at parallelism 1 too).
  const coord::TrainRunSpec vgg6{
      .dataset = "cifar", .model = "VGG6", .samples = 600, .rounds = 1, .seed = 95};
  EXPECT_EQ(fedavg_digest(vgg6, 4), 0x57df71745d10e2d6ULL);
}

}  // namespace
}  // namespace fedsched::nn
