// Coordinator service contract:
//   * admission control — duplicate ids, oversized fleets, and a full queue
//     are rejected cleanly, leaving no registry entry on disk or in memory;
//   * multiplexing determinism — a run's trace bytes and result document are
//     identical whether it ran alone or interleaved with neighbors, and
//     identical to one FedAvgSession stepped in one process with a
//     checkpoint every round (run_train_oneshot below), which is what
//     `fedsched_cli train --checkpoint-every 1` drives; a fleet
//     run's trace and result equal one fleet::Session stepped in one
//     process, the driver `fedsched_cli fleet` steps, for every planner;
//   * kill-and-resume — a coordinator constructed over a root holding a
//     half-finished run resumes it from its checkpoint and finishes with
//     byte-identical artifacts;
//   * wire hardening — a corrupted submit frame yields an error reply and
//     provably changes nothing (decode happens before dispatch).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "coord/coordinator.hpp"
#include "coord/fleet_job.hpp"
#include "coord/registry.hpp"
#include "coord/train_job.hpp"
#include "coord/wire.hpp"
#include "fl/checkpoint/checkpoint.hpp"
#include "fleet/session.hpp"
#include "obs/trace.hpp"

namespace fedsched::coord {
namespace {

namespace fs = std::filesystem;

/// The complete run in one call with the coordinator's cadence (checkpoint
/// every round) — what `fedsched_cli train --checkpoint-every 1` runs, and
/// the reference the stepped execution must match byte-for-byte.
fl::RunResult run_train_oneshot(const TrainRunSpec& spec,
                                const std::string& ckpt_path,
                                const std::string& trace_path) {
  obs::TraceWriter trace = obs::TraceWriter::to_file(trace_path);
  TrainJob job = build_train_job(spec, &trace);
  fl::FedAvgRunner runner(job.train, job.test, job.model_spec, job.desc,
                          job.phones, device::NetworkType::kWifi, job.config);
  fl::FedAvgSession session(runner, job.partition);
  while (!session.done()) {
    session.step();
    fl::checkpoint::save_checkpoint(session.checkpoint(), ckpt_path);
  }
  return session.finish();
}

class CoordService : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("fedsched_coord_" +
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

  [[nodiscard]] std::string root(const std::string& name) const {
    return (base_ / name).string();
  }

  static CoordinatorConfig config(const std::string& root) {
    CoordinatorConfig cfg;
    cfg.root = root;
    cfg.workers = 2;
    cfg.max_concurrent_rounds = 2;
    return cfg;
  }

  static RunSpec fleet_spec(const std::string& id, std::uint64_t seed,
                            std::size_t rounds) {
    RunSpec spec;
    spec.id = id;
    spec.kind = RunKind::kFleet;
    spec.fleet.fleet_size = 300;
    spec.fleet.buckets = 16;
    spec.fleet.rounds = rounds;
    spec.fleet.seed = seed;
    return spec;
  }

  static RunSpec train_spec(const std::string& id, std::uint64_t seed) {
    RunSpec spec;
    spec.id = id;
    spec.kind = RunKind::kTrain;
    spec.train.samples = 600;
    spec.train.rounds = 2;
    spec.train.seed = seed;
    return spec;
  }

  fs::path base_;
};

TEST_F(CoordService, RejectionsAreCleanAndLeaveNoState) {
  CoordinatorConfig cfg = config(root("a"));
  cfg.max_resident_clients = 500;
  Coordinator coordinator(cfg);

  // Oversized fleet: over the resident-client budget.
  RunSpec big = fleet_spec("big", 1, 1);
  big.fleet.fleet_size = 501;
  const SubmitOutcome rejected = coordinator.submit(big);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.error.find("resident clients"), std::string::npos);
  EXPECT_FALSE(coordinator.status("big").has_value());
  EXPECT_FALSE(fs::exists(coordinator.registry().run_dir("big")));

  // Admit one real run, then reject its duplicate.
  ASSERT_TRUE(coordinator.submit(fleet_spec("ok", 1, 1)).accepted);
  const SubmitOutcome duplicate = coordinator.submit(fleet_spec("ok", 2, 1));
  EXPECT_FALSE(duplicate.accepted);
  EXPECT_NE(duplicate.error.find("duplicate"), std::string::npos);

  coordinator.wait_all_done();
  EXPECT_EQ(coordinator.status("ok")->status, RunStatus::kDone);
  // The duplicate reject did not clobber the original's spec.
  EXPECT_EQ(coordinator.status("ok")->spec.fleet.seed, 1u);
}

TEST_F(CoordService, FullQueueRejectsCleanly) {
  CoordinatorConfig cfg = config(root("a"));
  cfg.max_queued_runs = 0;
  Coordinator coordinator(cfg);
  const SubmitOutcome out = coordinator.submit(fleet_spec("q", 1, 1));
  EXPECT_FALSE(out.accepted);
  EXPECT_NE(out.error.find("queue full"), std::string::npos);
  EXPECT_TRUE(coordinator.list().empty());
  EXPECT_FALSE(fs::exists(coordinator.registry().run_dir("q")));
}

TEST_F(CoordService, MultiplexedRunsMatchSoloRunsByteForByte) {
  // The default budget keeps every session resident. 450 clients is below
  // the two fleets' 600 but holds either one, so a parked session is
  // evicted whenever the other fleet steps, and its run restores from its
  // checkpoint mid-drain. 302 is below a fleet plus the 3-client train run
  // too, so a fleet step also evicts the parked train session.
  bool t1_queued_before_f2_stepped = false;
  for (const std::size_t budget :
       {std::size_t{1'000'000}, std::size_t{450}, std::size_t{302}}) {
    SCOPED_TRACE("max_resident_clients = " + std::to_string(budget));
    const std::string tag = std::to_string(budget);
    // Three runs interleaving over two workers...
    CoordinatorConfig mux_cfg = config(root("mux_" + tag));
    mux_cfg.max_resident_clients = budget;
    mux_cfg.trace_path = root("ops_" + tag + ".jsonl");
    Coordinator multiplexed(mux_cfg);
    ASSERT_TRUE(multiplexed.submit(fleet_spec("f1", 11, 2)).accepted);
    ASSERT_TRUE(multiplexed.submit(fleet_spec("f2", 22, 2)).accepted);
    // f2 queued before f1 parked its first round: under the tight budget
    // f2's first step must then evict f1's session.
    const bool f2_queued_first = multiplexed.status("f1")->rounds_completed == 0;
    ASSERT_TRUE(multiplexed.submit(train_spec("t1", 33)).accepted);
    // t1 queued before f2 finished a round: f2's last round then comes
    // after t1's first.
    if (budget == 302) {
      t1_queued_before_f2_stepped = multiplexed.status("f2")->rounds_completed == 0;
    }
    multiplexed.wait_all_done();
    const bool evicted =
        multiplexed.metrics_json().find("coord.sessions_evicted") != std::string::npos;
    if (budget >= 600) {
      EXPECT_FALSE(evicted);
    }
    if (budget < 600 && f2_queued_first) {
      EXPECT_TRUE(evicted);
    }

    // ...must produce exactly the bytes each produces running alone.
    for (const std::string id : {"f1", "f2", "t1"}) {
      ASSERT_EQ(multiplexed.status(id)->status, RunStatus::kDone) << id;
      CoordinatorConfig solo_cfg = config(root("solo_" + tag + "_" + id));
      solo_cfg.workers = 1;
      Coordinator solo(solo_cfg);
      ASSERT_TRUE(solo
                      .submit(id == "t1" ? train_spec(id, 33)
                                         : fleet_spec(id, id == "f1" ? 11 : 22, 2))
                      .accepted);
      solo.wait_all_done();
      EXPECT_EQ(multiplexed.trace_bytes(id), solo.trace_bytes(id)) << id;
      EXPECT_EQ(multiplexed.result_document(id), solo.result_document(id)) << id;
      EXPECT_EQ(multiplexed.checkpoint_bytes(id), solo.checkpoint_bytes(id)) << id;
    }
  }
  // Each coordinator closed its operations trace when it went out of scope.
  // Under the 302 budget no fleet steps beside t1, so a fleet round
  // dispatched between t1's two rounds found t1's session parked and
  // evicted it; its second round restored from FSC1.
  if (t1_queued_before_f2_stepped) {
    std::istringstream ops(read_file(root("ops_302.jsonl"), "test: ops trace"));
    std::size_t t1_rounds = 0;
    bool fleet_between = false;
    for (std::string line; std::getline(ops, line);) {
      const common::JsonValue ev = common::json_parse(line);
      if (ev.get_string("ev", "") != "coord_round_dispatch") continue;
      if (ev.get_string("id", "") == "t1") {
        ++t1_rounds;
      } else if (t1_rounds == 1) {
        fleet_between = true;
      }
    }
    EXPECT_EQ(t1_rounds, 2u);
    EXPECT_TRUE(fleet_between);
  }
}

TEST_F(CoordService, OperationsTraceIsOnDiskWhileRunning) {
  // The operations trace is flushed per event: a reader (or a crash) sees
  // the submit and the run's dispatches while the coordinator still runs.
  CoordinatorConfig cfg = config(root("live"));
  cfg.trace_path = root("ops_live.jsonl");
  Coordinator coordinator(cfg);
  ASSERT_TRUE(coordinator.submit(train_spec("t1", 5)).accepted);
  coordinator.wait_all_done();
  ASSERT_EQ(coordinator.status("t1")->status, RunStatus::kDone);

  std::istringstream ops(read_file(cfg.trace_path, "test: ops trace"));
  std::size_t admits = 0, dispatches = 0;
  for (std::string line; std::getline(ops, line);) {
    const common::JsonValue ev = common::json_parse(line);
    if (ev.get_string("id", "") != "t1") continue;
    admits += ev.get_string("ev", "") == "coord_admit";
    dispatches += ev.get_string("ev", "") == "coord_round_dispatch";
  }
  EXPECT_EQ(admits, 1u);
  EXPECT_EQ(dispatches, 2u);
}

TEST_F(CoordService, TrainRunMatchesLibraryOneShot) {
  Coordinator coordinator(config(root("svc")));
  const RunSpec spec = train_spec("t1", 9);
  ASSERT_TRUE(coordinator.submit(spec).accepted);
  coordinator.wait_all_done();
  ASSERT_EQ(coordinator.status("t1")->status, RunStatus::kDone);

  // The reference: the whole run in one process with the same cadence —
  // exactly what `fedsched_cli train --checkpoint-every 1` executes.
  const std::string ref_ckpt = (base_ / "ref.ckpt").string();
  const std::string ref_trace = (base_ / "ref.trace.jsonl").string();
  const fl::RunResult reference =
      run_train_oneshot(spec.train, ref_ckpt, ref_trace);

  EXPECT_EQ(coordinator.trace_bytes("t1"),
            read_file(ref_trace, "test: reference trace"));
  EXPECT_EQ(coordinator.checkpoint_bytes("t1"),
            read_file(ref_ckpt, "test: reference checkpoint"));
  EXPECT_EQ(coordinator.result_document("t1"),
            train_result_json(spec.train, reference) + "\n");
}

TEST_F(CoordService, FleetRunMatchesSessionOneShot) {
  // A floor far above the 0.05 default: the cost view's battery budgets,
  // which steer minenergy, must use the spec's floor as the CLI's does.
  for (const std::string& policy : fleet::planner_names()) {
    SCOPED_TRACE(policy);
    RunSpec spec = fleet_spec("f1", 7, 2);
    spec.fleet.policy = policy;
    spec.fleet.battery_floor = 0.8;
    Coordinator coordinator(config(root(policy)));
    ASSERT_TRUE(coordinator.submit(spec).accepted);
    coordinator.wait_all_done();
    ASSERT_EQ(coordinator.status("f1")->status, RunStatus::kDone)
        << coordinator.status("f1")->error;

    // The reference: one fleet::Session stepped in one process, configured
    // as `fedsched_cli fleet --fleet-size 300 --cost-buckets 16 --rounds 2
    // --seed 7 --policy P --fault-battery-floor 0.8` configures it.
    fleet::SessionConfig oneshot;
    oneshot.fleet_size = 300;
    oneshot.total_shards = 600;
    oneshot.policy = policy;
    oneshot.buckets = 16;
    oneshot.sim.battery_floor_soc = 0.8;
    oneshot.sim.seed = 7;
    const std::string ref_trace = (base_ / (policy + ".trace.jsonl")).string();
    std::vector<FleetRoundSummary> summaries;
    {
      obs::TraceWriter trace = obs::TraceWriter::to_file(ref_trace);
      fleet::Session session(oneshot, &trace);
      for (std::size_t round = 0; round < spec.fleet.rounds; ++round) {
        const fleet::SessionRound r = session.step(round, &trace);
        FleetRoundSummary s;
        s.round = r.result.round;
        s.participants = r.result.participants;
        s.completed = r.result.completed;
        s.dropped_crash = r.result.dropped_crash;
        s.dropped_deadline = r.result.dropped_deadline;
        s.dropped_stale = r.result.dropped_stale;
        s.battery_deaths = r.result.battery_deaths;
        s.survivor_shards = r.result.survivor_shards;
        s.threshold_s = r.bound_s;
        s.makespan_s = r.result.makespan_s;
        s.energy_wh = r.result.energy_wh;
        summaries.push_back(s);
      }
    }
    EXPECT_EQ(coordinator.trace_bytes("f1"),
              read_file(ref_trace, "test: reference trace"));
    EXPECT_EQ(coordinator.result_document("f1"),
              fleet_result_json(spec.fleet, summaries) + "\n");

    // FSF2 is the coordinator's format, so its reference is the run's
    // session kept resident in this process for every round.
    const std::string ref_ckpt = (base_ / (policy + ".ckpt")).string();
    const auto resident = FleetSession::open(
        spec.fleet, ref_ckpt, (base_ / (policy + ".resident.jsonl")).string(), 0);
    for (std::size_t round = 0; round < spec.fleet.rounds; ++round) {
      (void)resident->step(round);
    }
    EXPECT_EQ(coordinator.checkpoint_bytes("f1"),
              read_file(ref_ckpt, "test: reference checkpoint"));
    EXPECT_EQ(fleet_result_json(spec.fleet, load_fleet_summaries(ref_ckpt)),
              fleet_result_json(spec.fleet, summaries));
  }
}

TEST_F(CoordService, RestartResumesHalfFinishedRunBitIdentically) {
  // Simulate a coordinator killed after one of three rounds: the registry
  // holds spec + round-1 checkpoint + meta, exactly what a SIGKILL between
  // steps leaves behind (each step's writes are atomic renames).
  const RunSpec spec = fleet_spec("r1", 5, 3);
  RunRegistry registry(root("killed"));
  registry.persist_spec(spec);
  const FleetStepOutcome first = run_fleet_step(
      spec.fleet, registry.ckpt_path("r1"), registry.trace_path("r1"), 0);
  ASSERT_EQ(first.rounds_completed, 1u);
  ASSERT_FALSE(first.done);
  registry.write_meta("r1", first.rounds_completed);

  // A new coordinator over the same root must recover and finish the run.
  Coordinator resumed(config(root("killed")));
  resumed.wait_all_done();
  ASSERT_TRUE(resumed.status("r1").has_value());
  EXPECT_EQ(resumed.status("r1")->status, RunStatus::kDone);
  EXPECT_EQ(resumed.status("r1")->rounds_completed, 3u);

  // Byte-identical to the same spec never interrupted.
  Coordinator solo(config(root("solo")));
  ASSERT_TRUE(solo.submit(spec).accepted);
  solo.wait_all_done();
  EXPECT_EQ(resumed.trace_bytes("r1"), solo.trace_bytes("r1"));
  EXPECT_EQ(resumed.result_document("r1"), solo.result_document("r1"));
  EXPECT_EQ(resumed.checkpoint_bytes("r1"), solo.checkpoint_bytes("r1"));

  // A third coordinator sees the finished run as done without re-running it.
  Coordinator again(config(root("killed")));
  EXPECT_EQ(again.status("r1")->status, RunStatus::kDone);
}

TEST_F(CoordService, WireDispatchWorksEndToEnd) {
  Coordinator coordinator(config(root("svc")));
  const auto roundtrip = [&](const std::string& request) {
    return common::json_parse(
        decode_frame(coordinator.handle_frame(encode_frame(request))));
  };

  EXPECT_TRUE(roundtrip(R"({"verb":"ping"})").get_bool("ok", false));

  const common::JsonValue submitted = roundtrip(
      R"({"verb":"submit","spec":{"id":"w1","kind":"fleet","fleet_size":300,"buckets":16,"rounds":1,"seed":3}})");
  ASSERT_TRUE(submitted.get_bool("ok", false));
  EXPECT_EQ(submitted.get_string("id", ""), "w1");
  coordinator.wait_all_done();

  const common::JsonValue status = roundtrip(R"({"verb":"status","id":"w1"})");
  EXPECT_EQ(status.get_string("status", ""), "done");

  const common::JsonValue trace = roundtrip(R"({"verb":"trace","id":"w1"})");
  EXPECT_EQ(trace.get_string("jsonl", ""), coordinator.trace_bytes("w1"));

  const common::JsonValue ckpt = roundtrip(R"({"verb":"checkpoint","id":"w1"})");
  EXPECT_EQ(from_hex(ckpt.get_string("hex", "")),
            coordinator.checkpoint_bytes("w1"));

  const common::JsonValue result = roundtrip(R"({"verb":"result","id":"w1"})");
  EXPECT_TRUE(result.get_bool("ok", false));
  EXPECT_EQ(result.get_string("json", "") + "\n",
            coordinator.result_document("w1"));

  const common::JsonValue unknown = roundtrip(R"({"verb":"status","id":"nope"})");
  EXPECT_FALSE(unknown.get_bool("ok", true));
  const common::JsonValue bad_verb = roundtrip(R"({"verb":"explode"})");
  EXPECT_FALSE(bad_verb.get_bool("ok", true));
}

TEST_F(CoordService, MalformedFramesChangeNothing) {
  Coordinator coordinator(config(root("svc")));
  // A frame that WOULD create a run if it were ever dispatched.
  const std::string submit_frame = encode_frame(
      R"({"verb":"submit","spec":{"id":"evil","kind":"fleet","fleet_size":300,"rounds":1}})");

  const auto expect_error_reply_and_no_state = [&](const std::string& frame) {
    const common::JsonValue reply =
        common::json_parse(decode_frame(coordinator.handle_frame(frame)));
    EXPECT_FALSE(reply.get_bool("ok", true));
    EXPECT_FALSE(reply.get_string("error", "").empty());
    EXPECT_TRUE(coordinator.list().empty());
    EXPECT_FALSE(fs::exists(coordinator.registry().run_dir("evil")));
  };

  for (std::size_t len = 0; len < submit_frame.size(); ++len) {
    expect_error_reply_and_no_state(submit_frame.substr(0, len));
  }
  for (std::size_t i = 0; i < submit_frame.size(); ++i) {
    std::string mangled = submit_frame;
    mangled[i] = static_cast<char>(mangled[i] ^ 0x10);
    expect_error_reply_and_no_state(mangled);
  }
  expect_error_reply_and_no_state(submit_frame + "garbage");

  // A malformed spec *inside* a well-formed frame is also a clean reject.
  expect_error_reply_and_no_state(
      encode_frame(R"({"verb":"submit","spec":{"id":"evil","kind":"wat"}})"));
  expect_error_reply_and_no_state(encode_frame("not json at all"));
}

}  // namespace
}  // namespace fedsched::coord
