// Checkpoint robustness: a mangled checkpoint file must be rejected with a
// clean std::runtime_error — never a crash, a huge allocation, a partial
// restore, or silent acceptance. Exercises every corruption class the v2
// loader defends against: truncation at every prefix length, single bit
// flips at every byte, wrong magic, wrong version, and a lying payload-size
// field.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "fl/checkpoint/checkpoint.hpp"

namespace fedsched::fl::checkpoint {
namespace {

namespace fs = std::filesystem;

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the cases as parallel processes.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("fedsched_ckpt_corruption_") + info->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "run.ckpt").string();
    save_checkpoint(make_state(), path_);
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 24u);  // header + non-empty payload
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // A small but fully-populated state: every optional section present so
  // corruption can land in any of them.
  static RunState make_state() {
    RunState state;
    state.seed = 7;
    state.rounds_completed = 2;
    state.model_fingerprint = 0xfeedbeefULL;
    state.global_params = {0.25f, -1.5f, 3.0f};
    state.velocities = {{0.1f}, {}, {0.2f, 0.3f}};
    state.device_clock_s = {10.0, 20.0, 30.0};
    state.device_temp_c = {25.0, 31.5, 28.0};
    state.battery_soc = {0.9, 0.8, 0.7};
    state.partition.user_indices = {{0, 1}, {2}, {3, 4, 5}};
    RoundRecord round;
    round.round = 0;
    round.round_seconds = 12.5;
    round.client_seconds = {1.0, 2.0, 3.0};
    round.client_faults = {FaultKind::kNone, FaultKind::kCrash, FaultKind::kNone};
    round.replicas_assigned = 1;
    round.replicas_won = 1;
    state.rounds.push_back(round);
    state.total_seconds = 12.5;
    state.recovery_active = true;
    state.health.clients.resize(3);
    state.health.planned_multiplier = {1.0, 1.2, 0.9};
    state.health.has_plan = true;
    state.replanner_shards = {2, 2, 2};
    state.replication_active = true;
    replication::ShareResolution res;
    res.owner = 1;
    res.arrived = true;
    res.rescued = true;
    res.winner = 2;
    res.finish_s = 9.5;
    res.replicas = 1;
    res.replicas_completed = 1;
    state.replica_log.push_back(res);
    state.rng_words = {1, 2, 3, 4};
    state.trace_prefix = "{\"ev\":\"round\"}\n";
    state.trace_events = 1;
    return state;
  }

  std::string write_variant(const std::string& name,
                            const std::string& contents) const {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    return path;
  }

  fs::path dir_;
  std::string path_;
  std::string bytes_;
};

TEST_F(CheckpointCorruption, IntactFileRoundTrips) {
  const RunState loaded = load_checkpoint(path_);
  EXPECT_EQ(loaded.seed, 7u);
  EXPECT_EQ(loaded.rounds_completed, 2u);
  EXPECT_EQ(loaded.global_params.size(), 3u);
  EXPECT_TRUE(loaded.replication_active);
  ASSERT_EQ(loaded.replica_log.size(), 1u);
  EXPECT_EQ(loaded.replica_log[0].winner, 2u);
  EXPECT_EQ(loaded.trace_prefix, "{\"ev\":\"round\"}\n");
}

TEST_F(CheckpointCorruption, EveryTruncationRejected) {
  // Cut the file at every prefix length, including zero. The loader must
  // throw a runtime_error for each — short header, short payload, and the
  // boundary cases in between.
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    const std::string path =
        write_variant("trunc.ckpt", bytes_.substr(0, len));
    EXPECT_THROW((void)load_checkpoint(path), std::runtime_error)
        << "prefix of " << len << " bytes was accepted";
  }
}

TEST_F(CheckpointCorruption, EverySingleBitFlipRejected) {
  // Flip one bit in every byte of the file. The payload checksum (or the
  // header validation, for the first 24 bytes) must catch all of them —
  // there is no position where a flipped bit loads silently.
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::string mangled = bytes_;
    mangled[i] = static_cast<char>(mangled[i] ^ 0x10);
    const std::string path = write_variant("flip.ckpt", mangled);
    EXPECT_THROW((void)load_checkpoint(path), std::runtime_error)
        << "bit flip at byte " << i << " was accepted";
  }
}

TEST_F(CheckpointCorruption, WrongMagicRejectedWithCleanMessage) {
  std::string mangled = bytes_;
  mangled[0] = 'X';
  const std::string path = write_variant("magic.ckpt", mangled);
  try {
    (void)load_checkpoint(path);
    FAIL() << "wrong magic was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("not a fedsched checkpoint"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(CheckpointCorruption, FutureVersionRejectedWithCleanMessage) {
  std::string mangled = bytes_;
  mangled[4] = static_cast<char>(kFormatVersion + 1);  // little-endian LSB
  const std::string path = write_variant("version.ckpt", mangled);
  try {
    (void)load_checkpoint(path);
    FAIL() << "future format version was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("format version"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(CheckpointCorruption, HugePayloadSizeRejectedNotAllocated) {
  // Lie in the payload-size field: claim ~2^60 bytes. The loader must reject
  // the mismatch against the actual file size instead of trusting the field
  // (which would OOM via a giant read or resize).
  std::string mangled = bytes_;
  for (std::size_t i = 0; i < 8; ++i) {
    mangled[8 + i] = static_cast<char>(i == 7 ? 0x10 : 0x00);
  }
  const std::string path = write_variant("size.ckpt", mangled);
  EXPECT_THROW((void)load_checkpoint(path), std::runtime_error);
}

TEST_F(CheckpointCorruption, GarbageAndEmptyFilesRejected) {
  EXPECT_THROW((void)load_checkpoint(write_variant("empty.ckpt", "")),
               std::runtime_error);
  EXPECT_THROW(
      (void)load_checkpoint(write_variant("garbage.ckpt",
                                          std::string(512, '\x5a'))),
      std::runtime_error);
  EXPECT_THROW((void)load_checkpoint((dir_ / "missing.ckpt").string()),
               std::runtime_error);
}

TEST_F(CheckpointCorruption, TrailingGarbageRejected) {
  // Extra bytes after a valid payload mean the size/checksum header no
  // longer describes the file; accepting them would mask concatenation bugs.
  const std::string path = write_variant("trailing.ckpt", bytes_ + "extra");
  EXPECT_THROW((void)load_checkpoint(path), std::runtime_error);
}

}  // namespace
}  // namespace fedsched::fl::checkpoint
