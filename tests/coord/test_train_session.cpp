// FSC1 train checkpoint and resident-session contract, the twin of
// test_fleet_session.cpp:
//   * a resident TrainSession and one reopened from FSC1 before every round
//     (run_train_step) write byte-identical traces, checkpoints and results,
//     with per-round evaluation, at parallelism 1 and 4;
//   * a resident session never reads its checkpoint: with ckpt.bin deleted
//     after every step it still finishes byte-identical;
//   * a checkpoint one round ahead of the acknowledged count (the torn state
//     a crash between checkpoint rename and meta write leaves) replays its
//     trace, mid-run and at the final round, instead of re-simulating;
//   * a truncated or bit-flipped FSC1 fails the restore with
//     std::runtime_error;
//   * a finished coordinator train run leaves only the files the registry
//     names in its run directory.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "coord/coordinator.hpp"
#include "coord/registry.hpp"
#include "coord/train_job.hpp"

namespace fedsched::coord {
namespace {

namespace fs = std::filesystem;

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CoordTrainSession : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("fedsched_train_session_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(base_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (base_ / name).string();
  }
  [[nodiscard]] std::string bytes(const std::string& name) const {
    return read_file(path(name), "test: " + name);
  }

  static TrainRunSpec small_spec(std::size_t parallelism = 1) {
    TrainRunSpec spec;
    spec.samples = 300;
    spec.rounds = 3;
    spec.seed = 21;
    spec.parallelism = parallelism;
    spec.evaluate_each_round = true;
    return spec;
  }

  /// Restore `ckpt` as round 1 of small_spec(); returns the error text, or
  /// "" when the restore succeeded.
  [[nodiscard]] std::string restore_error(const std::string& ckpt) const {
    write_raw(path("variant.bin"), ckpt);
    try {
      const TrainSession session(small_spec(), path("variant.bin"),
                                 path("variant.jsonl"), 1);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "";
  }

  fs::path base_;
};

TEST_F(CoordTrainSession, ResidentMatchesReopenedEveryRound) {
  for (const std::size_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    const std::string tag = std::to_string(parallelism);
    const TrainRunSpec spec = small_spec(parallelism);
    TrainSession resident(spec, path("a" + tag + ".bin"),
                          path("a" + tag + ".jsonl"), 0);
    TrainStepOutcome reopened;
    for (std::size_t r = 0; r < spec.rounds; ++r) {
      const StepOutcome a = resident.step(r);
      reopened = run_train_step(spec, path("b" + tag + ".bin"),
                                path("b" + tag + ".jsonl"), r);
      EXPECT_EQ(a.rounds_completed, r + 1);
      EXPECT_EQ(reopened.rounds_completed, r + 1);
      EXPECT_EQ(a.done, reopened.done);
      EXPECT_EQ(bytes("a" + tag + ".jsonl"), bytes("b" + tag + ".jsonl")) << r;
      EXPECT_EQ(bytes("a" + tag + ".bin"), bytes("b" + tag + ".bin")) << r;
    }
    ASSERT_TRUE(reopened.done);
    EXPECT_EQ(resident.result_json(), train_result_json(spec, reopened.result));
    EXPECT_EQ(resident.result().rounds.size(), spec.rounds);
    // Bytes do not depend on the width.
    EXPECT_EQ(bytes("a" + tag + ".jsonl"), bytes("a1.jsonl"));
    EXPECT_EQ(bytes("a" + tag + ".bin"), bytes("a1.bin"));
  }
}

TEST_F(CoordTrainSession, ResidentSessionNeverReadsItsCheckpoint) {
  for (const std::size_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    const std::string tag = std::to_string(parallelism);
    const TrainRunSpec spec = small_spec(parallelism);
    TrainSession reference(spec, path("ref" + tag + ".bin"),
                           path("ref" + tag + ".jsonl"), 0);
    TrainSession resident(spec, path("c" + tag + ".bin"),
                          path("c" + tag + ".jsonl"), 0);
    for (std::size_t r = 0; r < spec.rounds; ++r) {
      (void)reference.step(r);
      (void)resident.step(r);
      EXPECT_EQ(bytes("c" + tag + ".bin"), bytes("ref" + tag + ".bin")) << r;
      fs::remove(path("c" + tag + ".bin"));
    }
    EXPECT_EQ(bytes("c" + tag + ".jsonl"), bytes("ref" + tag + ".jsonl"));
    EXPECT_EQ(resident.result_json(), reference.result_json());
  }
}

TEST_F(CoordTrainSession, CheckpointAheadOfMetaReplaysMidRun) {
  const TrainRunSpec spec = small_spec();
  TrainSession session(spec, path("c.bin"), path("c.jsonl"), 0);
  (void)session.step(0);
  (void)session.step(1);
  const std::string trace = bytes("c.jsonl");
  const std::string ckpt = bytes("c.bin");

  // The meta still says one round: the step must replay round 1's trace,
  // leave the checkpoint alone, and report two rounds done.
  write_raw(path("c.jsonl"), "torn");
  TrainSession restored(spec, path("c.bin"), path("c.jsonl"), 1);
  const StepOutcome replayed = restored.step(1);
  EXPECT_EQ(replayed.rounds_completed, 2u);
  EXPECT_FALSE(replayed.done);
  EXPECT_EQ(bytes("c.jsonl"), trace);
  EXPECT_EQ(bytes("c.bin"), ckpt);

  // The replayed session then finishes like the uninterrupted one.
  const StepOutcome last = restored.step(2);
  const std::string restored_trace = bytes("c.jsonl");
  const std::string restored_ckpt = bytes("c.bin");
  const StepOutcome expected = session.step(2);
  EXPECT_TRUE(last.done);
  EXPECT_EQ(last.rounds_completed, expected.rounds_completed);
  EXPECT_EQ(bytes("c.jsonl"), restored_trace);
  EXPECT_EQ(bytes("c.bin"), restored_ckpt);
  EXPECT_EQ(restored.result_json(), session.result_json());

  // Any other gap is a mismatch, not a replay.
  TrainSession behind(spec, path("c.bin"), path("c.jsonl"), 1);
  EXPECT_THROW((void)behind.step(0), std::runtime_error);
}

TEST_F(CoordTrainSession, CheckpointAheadOfMetaReplaysTheFinalRound) {
  const TrainRunSpec spec = small_spec();
  TrainSession session(spec, path("c.bin"), path("c.jsonl"), 0);
  for (std::size_t r = 0; r < spec.rounds; ++r) (void)session.step(r);
  const std::string trace = bytes("c.jsonl");
  const std::string ckpt = bytes("c.bin");

  // The last checkpoint is durable but the meta lags a round: the step must
  // rebuild the lost tail (final evaluation, run_end) without a round.
  write_raw(path("c.jsonl"), "torn");
  TrainSession restored(spec, path("c.bin"), path("c.jsonl"), spec.rounds - 1);
  const StepOutcome replayed = restored.step(spec.rounds - 1);
  EXPECT_EQ(replayed.rounds_completed, spec.rounds);
  EXPECT_TRUE(replayed.done);
  EXPECT_EQ(bytes("c.jsonl"), trace);
  EXPECT_EQ(bytes("c.bin"), ckpt);
  EXPECT_EQ(restored.result_json(), session.result_json());
}

TEST_F(CoordTrainSession, DamagedCheckpointRejected) {
  const TrainRunSpec spec = small_spec();
  TrainSession session(spec, path("c.bin"), path("c.jsonl"), 0);
  (void)session.step(0);
  const std::string ckpt = bytes("c.bin");
  ASSERT_EQ(restore_error(ckpt), "");

  // The header, the first payload fields, the middle and the end.
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{23},
                                std::size_t{24}, std::size_t{40}, ckpt.size() / 2,
                                ckpt.size() - 1}) {
    EXPECT_NE(restore_error(ckpt.substr(0, len)), "")
        << "prefix of " << len << " bytes was accepted";
  }
  for (const std::size_t at : {std::size_t{0}, std::size_t{5}, std::size_t{9},
                               std::size_t{17}, std::size_t{24}, std::size_t{33},
                               ckpt.size() / 2, ckpt.size() - 1}) {
    for (const int bit : {0, 7}) {
      std::string mangled = ckpt;
      mangled[at] = static_cast<char>(mangled[at] ^ (1 << bit));
      EXPECT_NE(restore_error(mangled), "")
          << "flip of bit " << bit << " at byte " << at << " was accepted";
    }
  }
}

TEST_F(CoordTrainSession, FinishedRunLeavesOnlyRegistryFiles) {
  RunSpec spec;
  spec.id = "t1";
  spec.kind = RunKind::kTrain;
  spec.train = small_spec();
  CoordinatorConfig cfg;
  cfg.root = path("root");
  Coordinator coordinator(cfg);
  ASSERT_TRUE(coordinator.submit(spec).accepted);
  coordinator.wait_all_done();
  ASSERT_EQ(coordinator.status("t1")->status, RunStatus::kDone);

  const RunRegistry& registry = coordinator.registry();
  const std::set<std::string> named = {
      registry.spec_path("t1"),  registry.meta_path("t1"),
      registry.ckpt_path("t1"),  registry.trace_path("t1"),
      registry.result_path("t1")};
  std::set<std::string> found;
  for (const fs::directory_entry& file :
       fs::directory_iterator(registry.run_dir("t1"))) {
    found.insert(file.path().string());
  }
  EXPECT_EQ(found, named);
}

}  // namespace
}  // namespace fedsched::coord
