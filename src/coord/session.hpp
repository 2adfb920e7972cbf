#pragma once
// One coordinator run between its steps, either kind.
//
// A RunSession is a run's live state between round-sized steps:
// TrainSession (coord/train_job.hpp) around an fl::FedAvgSession,
// FleetSession (coord/fleet_job.hpp) around a fleet::Session. The
// coordinator keeps it in the run's slot, so a step reads nothing back from
// disk. A run without a session (its first step, after a restart, after an
// eviction) opens one: round 0 starts fresh, later rounds restore from the
// run's checkpoint.
//
// step() is the step of both kinds. It runs the round into the run's
// in-memory trace (the kind's advance()), emits the run's tail after the
// last round (finish()), rewrites the trace file from memory, and writes the
// checkpoint through write_file_atomic with the options the session was
// opened with, so `durable` fsyncs it and the chaos injector gets its three
// crash points. A restored checkpoint one round ahead of the acknowledged
// count is the torn state a crash between the checkpoint rename and the
// meta write leaves: the round is already durable, so step() replays its
// trace, and the tail after the last round, instead of re-simulating it.

#include <cstddef>
#include <string>
#include <utility>

#include "coord/registry.hpp"
#include "obs/trace.hpp"

namespace fedsched::coord {

struct StepOutcome {
  std::size_t rounds_completed = 0;
  bool done = false;
};

class RunSession {
 public:
  virtual ~RunSession() = default;

  /// Run round `completed_rounds` (or replay it, see above). Throws
  /// std::runtime_error when the run is complete or the session holds
  /// neither `completed_rounds` rounds nor one more. After a throw the
  /// session is unusable.
  StepOutcome step(std::size_t completed_rounds);

  /// The run's result.json document, once a step reported done.
  [[nodiscard]] virtual std::string result_json() const = 0;

 protected:
  RunSession(std::size_t total_rounds, std::string ckpt_path,
             std::string trace_path, AtomicWriteOptions write)
      : total_rounds_(total_rounds),
        ckpt_path_(std::move(ckpt_path)),
        trace_path_(std::move(trace_path)),
        write_(write) {}

  /// Rounds the session's state holds.
  [[nodiscard]] virtual std::size_t rounds_completed() const = 0;
  /// Run the next round, emitting into trace_; returns the checkpoint bytes.
  [[nodiscard]] virtual std::string advance() = 0;
  /// Emit the run's tail once its last round is in.
  virtual void finish() {}

  /// The run's whole trace; step() writes it to the trace file.
  obs::TraceWriter trace_ = obs::TraceWriter::to_memory();

 private:
  std::size_t total_rounds_;
  std::string ckpt_path_;
  std::string trace_path_;
  AtomicWriteOptions write_;
};

}  // namespace fedsched::coord
