// FSF2 fleet checkpoint and resident-session contract:
//   * a resident FleetSession and a session restored from FSF2 every round
//     (run_fleet_step) write byte-identical traces and checkpoints;
//   * every prefix truncation and every single-bit flip of an FSF2 file is
//     rejected with a clean std::runtime_error;
//   * restoring under a spec whose seed, mix, model or fleet_size differs
//     from the checkpoint's fails on the regenerated-column digest;
//   * a checkpoint one round ahead of the acknowledged count (the torn state
//     a crash between checkpoint rename and meta write leaves) replays its
//     trace instead of re-simulating;
//   * an FSF1 checkpoint fails its run at the first step through the magic
//     check, and a healthy neighbour still finishes byte-identical to a
//     solo run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "coord/coordinator.hpp"
#include "coord/fleet_job.hpp"
#include "coord/registry.hpp"
#include "fl/checkpoint/codec.hpp"

namespace fedsched::coord {
namespace {

namespace fs = std::filesystem;
namespace fc = fl::checkpoint;

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CoordFleetSession : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("fedsched_fleet_session_" +
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

  static FleetRunSpec small_spec() {
    FleetRunSpec spec;
    spec.fleet_size = 40;
    spec.buckets = 8;
    spec.rounds = 3;
    spec.dropout = 0.1;
    spec.seed = 17;
    return spec;
  }

  /// The FSF2 bytes a small run leaves after its first round.
  [[nodiscard]] std::string round_one_checkpoint() const {
    const FleetStepOutcome out =
        run_fleet_step(small_spec(), path("ckpt.bin"), path("trace.jsonl"), 0);
    EXPECT_EQ(out.rounds_completed, 1u);
    return read_file(path("ckpt.bin"), "test: checkpoint");
  }

  /// Restore `bytes` as round 1 of `spec`; returns the error text, or ""
  /// when the restore succeeded.
  [[nodiscard]] std::string restore_error(const std::string& bytes,
                                          const FleetRunSpec& spec) const {
    const std::string ckpt = path("variant.bin");
    write_raw(ckpt, bytes);
    try {
      (void)FleetSession::open(spec, ckpt, path("variant.jsonl"), 1);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "";
  }

  fs::path base_;
};

TEST_F(CoordFleetSession, RestoredSteppingMatchesResidentStepping) {
  const FleetRunSpec spec = small_spec();
  const auto resident = FleetSession::open(spec, path("a.bin"), path("a.jsonl"), 0);
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    const FleetStepOutcome a = resident->step(r);
    const FleetStepOutcome b =
        run_fleet_step(spec, path("b.bin"), path("b.jsonl"), r);
    EXPECT_EQ(a.rounds_completed, r + 1);
    EXPECT_EQ(b.rounds_completed, r + 1);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(read_file(path("a.jsonl"), "test"), read_file(path("b.jsonl"), "test"))
        << "round " << r;
    EXPECT_EQ(read_file(path("a.bin"), "test"), read_file(path("b.bin"), "test"))
        << "round " << r;
  }
  EXPECT_EQ(resident->summaries().size(), spec.rounds);
  EXPECT_EQ(fleet_result_json(spec, resident->summaries()),
            fleet_result_json(spec, load_fleet_summaries(path("b.bin"))));
}

TEST_F(CoordFleetSession, CheckpointStoresOnlyTheMutableColumns) {
  const std::string bytes = round_one_checkpoint();
  // 9 B per client (battery_soc + alive); the rest is the header, one
  // summary and the short trace prefix.
  const std::size_t trace_bytes = read_file(path("trace.jsonl"), "test").size();
  EXPECT_LT(bytes.size(), 9 * small_spec().fleet_size + trace_bytes + 256);
  EXPECT_EQ(restore_error(bytes, small_spec()), "");
}

TEST_F(CoordFleetSession, EveryTruncationRejected) {
  const std::string bytes = round_one_checkpoint();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_NE(restore_error(bytes.substr(0, len), small_spec()), "")
        << "prefix of " << len << " bytes was accepted";
  }
}

TEST_F(CoordFleetSession, EverySingleBitFlipRejected) {
  const std::string bytes = round_one_checkpoint();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mangled = bytes;
      mangled[i] = static_cast<char>(mangled[i] ^ (1 << bit));
      EXPECT_NE(restore_error(mangled, small_spec()), "")
          << "flip of bit " << bit << " at byte " << i << " was accepted";
    }
  }
}

TEST_F(CoordFleetSession, ChangedSpecFailsOnTheDigest) {
  const std::string bytes = round_one_checkpoint();
  FleetRunSpec seed = small_spec();
  seed.seed += 1;
  FleetRunSpec mix = small_spec();
  mix.mix = "nexus6:1,lte:0.5";
  FleetRunSpec model = small_spec();
  model.model = "VGG6";
  FleetRunSpec size = small_spec();
  size.fleet_size += 1;
  for (const FleetRunSpec& changed : {seed, mix, model, size}) {
    const std::string error = restore_error(bytes, changed);
    EXPECT_NE(error.find("digest mismatch"), std::string::npos) << error;
  }
}

TEST_F(CoordFleetSession, CheckpointAheadOfMetaReplaysInsteadOfResimulating) {
  const FleetRunSpec spec = small_spec();
  const auto session = FleetSession::open(spec, path("c.bin"), path("c.jsonl"), 0);
  (void)session->step(0);
  (void)session->step(1);
  const std::string trace = read_file(path("c.jsonl"), "test");
  const std::string ckpt = read_file(path("c.bin"), "test");

  // The meta still says one round: the step must replay round 1's trace,
  // leave the checkpoint alone, and report two rounds done.
  write_raw(path("c.jsonl"), "torn");
  const auto restored = FleetSession::open(spec, path("c.bin"), path("c.jsonl"), 1);
  const FleetStepOutcome replayed = restored->step(1);
  EXPECT_EQ(replayed.rounds_completed, 2u);
  EXPECT_FALSE(replayed.done);
  EXPECT_EQ(read_file(path("c.jsonl"), "test"), trace);
  EXPECT_EQ(read_file(path("c.bin"), "test"), ckpt);

  // Any other gap is a mismatch, not a replay.
  const auto behind = FleetSession::open(spec, path("c.bin"), path("c.jsonl"), 1);
  EXPECT_THROW((void)behind->step(0), std::runtime_error);
}

TEST_F(CoordFleetSession, Fsf1CheckpointFailsItsRunAndNeighbourFinishes) {
  RunSpec legacy;
  legacy.id = "legacy";
  legacy.kind = RunKind::kFleet;
  legacy.fleet = small_spec();
  RunSpec healthy = legacy;
  healthy.id = "healthy";

  CoordinatorConfig solo_cfg;
  solo_cfg.root = path("solo");
  solo_cfg.workers = 1;
  Coordinator solo(solo_cfg);
  ASSERT_TRUE(solo.submit(healthy).accepted);
  solo.wait_all_done();

  // An FSF1-era registry: the legacy run's checkpoint carries the FSF1
  // magic and version (the sealed header alone decides) and a meta.
  RunRegistry registry(path("root"));
  registry.persist_spec(legacy);
  write_raw(registry.ckpt_path("legacy"), fc::seal(0x46534631, 1, "FSF1 payload"));
  registry.write_meta("legacy", 1);
  registry.persist_spec(healthy);

  CoordinatorConfig cfg;
  cfg.root = path("root");
  cfg.workers = 2;
  Coordinator coordinator(cfg);
  EXPECT_TRUE(coordinator.quarantined().empty());
  coordinator.wait_all_done();
  const auto failed = coordinator.status("legacy");
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, RunStatus::kFailed);
  EXPECT_NE(failed->error.find("is not a fedsched FSF2 fleet checkpoint"),
            std::string::npos)
      << failed->error;

  ASSERT_EQ(coordinator.status("healthy")->status, RunStatus::kDone);
  EXPECT_EQ(coordinator.trace_bytes("healthy"), solo.trace_bytes("healthy"));
  EXPECT_EQ(coordinator.result_document("healthy"), solo.result_document("healthy"));
  EXPECT_EQ(coordinator.checkpoint_bytes("healthy"), solo.checkpoint_bytes("healthy"));
}

}  // namespace
}  // namespace fedsched::coord
