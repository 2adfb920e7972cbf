#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "nn/models.hpp"

namespace fedsched::nn {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the cases as parallel processes.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("fedsched_serialize_test_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(SerializeTest, WeightsRoundTrip) {
  common::Rng rng(1);
  Model source = build_lenet(ModelSpec{}, rng);
  save_weights(source, path("model.bin"));

  common::Rng rng2(99);  // different init, same topology
  Model target = build_lenet(ModelSpec{}, rng2);
  EXPECT_NE(target.flat_params(), source.flat_params());
  load_weights(target, path("model.bin"));
  EXPECT_EQ(target.flat_params(), source.flat_params());
}

TEST_F(SerializeTest, FingerprintDetectsArchitectureMismatch) {
  common::Rng rng(2);
  Model lenet = build_lenet(ModelSpec{}, rng);
  Model wider = build_lenet(ModelSpec{.width = 2}, rng);
  Model mlp = build_mlp(144, {32}, 10, rng);
  EXPECT_NE(layout_fingerprint(lenet), layout_fingerprint(wider));
  EXPECT_NE(layout_fingerprint(lenet), layout_fingerprint(mlp));

  save_weights(lenet, path("lenet.bin"));
  EXPECT_THROW(load_weights(wider, path("lenet.bin")), std::runtime_error);
  EXPECT_THROW(load_weights(mlp, path("lenet.bin")), std::runtime_error);
}

TEST_F(SerializeTest, SameTopologySameFingerprint) {
  common::Rng a(3), b(4);
  Model m1 = build_vgg6(ModelSpec{.arch = Arch::kVgg6}, a);
  Model m2 = build_vgg6(ModelSpec{.arch = Arch::kVgg6}, b);
  EXPECT_EQ(layout_fingerprint(m1), layout_fingerprint(m2));
}

TEST_F(SerializeTest, RejectsGarbageAndMissing) {
  common::Rng rng(5);
  Model model = build_mlp(4, {}, 2, rng);
  std::ofstream(path("junk.bin")) << "not a model";
  EXPECT_THROW(load_weights(model, path("junk.bin")), std::runtime_error);
  EXPECT_THROW(load_weights(model, path("missing.bin")), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  common::Rng rng(6);
  Model model = build_mlp(8, {16}, 4, rng);
  save_weights(model, path("model.bin"));
  const auto size = std::filesystem::file_size(path("model.bin"));
  std::filesystem::resize_file(path("model.bin"), size - 8);
  EXPECT_THROW(load_weights(model, path("model.bin")), std::runtime_error);
}

TEST_F(SerializeTest, CreatesParentDirectories) {
  common::Rng rng(7);
  Model model = build_mlp(4, {}, 2, rng);
  save_weights(model, path("a/b/c/model.bin"));
  EXPECT_NO_THROW(load_weights(model, path("a/b/c/model.bin")));
}

TEST_F(SerializeTest, LoadedModelPredictsIdentically) {
  common::Rng rng(8);
  Model source = build_lenet(ModelSpec{}, rng);
  save_weights(source, path("model.bin"));
  common::Rng rng2(9);
  Model target = build_lenet(ModelSpec{}, rng2);
  load_weights(target, path("model.bin"));

  common::Rng xrng(10);
  const tensor::Tensor x = tensor::Tensor::randn({4, 144}, xrng);
  const auto ya = source.forward(x, false);
  const auto yb = target.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

}  // namespace
}  // namespace fedsched::nn
