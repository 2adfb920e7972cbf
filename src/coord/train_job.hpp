#pragma once
// Shared construction + checkpointed stepping for testbed FedAvg runs.
//
// build_train_job() is the single place the deterministic core of a train
// run is assembled — datasets, device profiles, the full-scale schedule
// (emitting its sched trace event), the proportional data partition, and the
// base FlConfig. `fedsched_cli train` and the coordinator both call it, so a
// coordinator-submitted run is byte-identical to the one-shot CLI run *by
// construction*, not by parallel maintenance of two copies of the same
// seed-sensitive recipe (the RNG stream order — baseline assignment, then
// partition — is part of the trace contract).
//
// TrainSession is a train run between coordinator steps (coord/session.hpp):
// the job, its FedAvgRunner and the fl::FedAvgSession, kept resident so a
// step neither rebuilds the job nor reads the checkpoint. Every step writes
// an FSC1 checkpoint (cadence 1), so the coordinator can park the run after
// any round and a restart resumes it bit-identically. The matching one-shot
// CLI invocation is `fedsched_cli train ... --checkpoint-out X
// --checkpoint-every 1` (the `checkpoint` trace event is part of the stream,
// so byte-identical traces require the same cadence). The trace file is the
// schedule's sched_* event, which a restore re-emits by rebuilding the job,
// followed by the session's trace, which FSC1 stores.

#include <cstddef>
#include <string>
#include <vector>

#include "coord/session.hpp"
#include "coord/spec.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "device/model_desc.hpp"
#include "device/spec.hpp"
#include "fl/runner.hpp"
#include "nn/models.hpp"
#include "obs/trace.hpp"
#include "sched/types.hpp"

namespace fedsched::coord {

/// Everything a FedAvgRunner needs, fully deterministic in the spec.
struct TrainJob {
  data::Dataset train;
  data::Dataset test;
  std::vector<device::PhoneModel> phones;
  device::ModelDesc desc;
  nn::ModelSpec model_spec;
  std::vector<sched::UserProfile> users;
  sched::Assignment assignment;
  data::Partition partition;
  /// rounds / seed / parallelism / evaluate_each_round set from the spec,
  /// trace set to build_train_job's writer; faults etc. left for the
  /// caller to attach.
  fl::FlConfig config;
};

/// Assemble the job. A non-null enabled `trace` receives the schedule's
/// sched_* trace event exactly as `fedsched_cli train` emits it, and is the
/// job's run trace too.
[[nodiscard]] TrainJob build_train_job(const TrainRunSpec& spec,
                                       obs::TraceWriter* trace);

/// RunResult rendered as the coordinator's result.json document.
[[nodiscard]] std::string train_result_json(const TrainRunSpec& spec,
                                            const fl::RunResult& result);

class TrainSession final : public RunSession {
 public:
  /// `completed_rounds` == 0 builds the job and starts the run; otherwise
  /// rebuilds the job and restores the run from the FSC1 checkpoint at
  /// `ckpt_path`. Throws std::runtime_error on a damaged file or one from
  /// another spec. The runner keeps references into the job, so a session
  /// never moves.
  TrainSession(const TrainRunSpec& spec, const std::string& ckpt_path,
               std::string trace_path, std::size_t completed_rounds,
               AtomicWriteOptions write = {});

  /// The complete result, once a step reported done.
  [[nodiscard]] const fl::RunResult& result() const noexcept { return result_; }
  [[nodiscard]] std::string result_json() const override {
    return train_result_json(spec_, result_);
  }

 private:
  [[nodiscard]] std::size_t rounds_completed() const override {
    return session_.rounds_completed();
  }
  [[nodiscard]] std::string advance() override;
  void finish() override { result_ = session_.finish(); }

  TrainRunSpec spec_;
  TrainJob job_;
  fl::FedAvgRunner runner_;
  fl::FedAvgSession session_;
  fl::RunResult result_;
};

struct TrainStepOutcome {
  /// The complete RunResult on the final step; empty before.
  fl::RunResult result;
  std::size_t rounds_completed = 0;
  bool done = false;
};

/// One round as a one-shot: a TrainSession opened for it, stepped once.
[[nodiscard]] TrainStepOutcome run_train_step(const TrainRunSpec& spec,
                                              const std::string& ckpt_path,
                                              const std::string& trace_path,
                                              std::size_t completed_rounds);

}  // namespace fedsched::coord
