#pragma once
// Checkpointed round-at-a-time stepping for fleet-tier runs.
//
// A fleet run steps the fleet::Session (fleet/session.hpp) that
// `fedsched_cli fleet` steps: each step replans and simulates one round,
// emitting the planner's sched_* event and fleet_round. The fleet is
// generated when the run opens, with the same seed, so even the
// fleet_generate event matches and the final trace file is byte-identical
// to the one-shot CLI's.
//
// Residency: a FleetSession is one run between steps (coord/session.hpp) —
// the fleet::Session (owning the FleetState), the round summaries, the
// captured trace and the digest below. run_fleet_step is open + step, the
// same round implementation restored from disk every time.
//
// FSF2 checkpoint, written every step by RunSession::step on the
// sealed-payload codec of the FSC1 run checkpoint. Without client dynamics
// a round changes only `battery_soc` and `alive`; every other FleetState
// column is a pure
// function of (mix, model, seed, fleet_size). FSF2 therefore stores the
// rounds completed, the client count, a digest of the regenerated columns,
// `battery_soc` and `alive` (9 B per client), the round summaries, and the
// trace prefix with its event count. Restore regenerates the fleet (no trace
// writer), checks the FNV-1a digest over the eleven columns it did not
// store — `network` and the two comm columns included, since coordinator
// fleet specs carry no scenario — and overlays the two stored ones through
// the Session's restore hook, before the simulator takes the fleet. A
// mismatch (a spec edited under its checkpoint, a generator change) throws
// std::runtime_error; it never resumes a silently different fleet. An FSF1
// file fails fc::open's magic check.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/session.hpp"
#include "coord/spec.hpp"
#include "fleet/session.hpp"

namespace fedsched::coord {

/// What the coordinator reports per simulated fleet round.
struct FleetRoundSummary {
  std::size_t round = 0;
  std::size_t participants = 0;
  std::size_t completed = 0;
  std::size_t dropped_crash = 0;
  std::size_t dropped_deadline = 0;
  std::size_t dropped_stale = 0;
  std::size_t battery_deaths = 0;
  std::size_t survivor_shards = 0;
  double threshold_s = 0.0;  // the planner's bound (SessionRound::bound_s)
  double makespan_s = 0.0;
  double energy_wh = 0.0;
};

/// Summaries rendered as the coordinator's result.json document.
[[nodiscard]] std::string fleet_result_json(
    const FleetRunSpec& spec, const std::vector<FleetRoundSummary>& rounds);

using FleetStepOutcome = StepOutcome;

class FleetSession final : public RunSession {
 public:
  /// `completed_rounds` == 0 generates the fleet (its fleet_generate event
  /// starts the trace); otherwise restores from the FSF2 checkpoint at
  /// `ckpt_path`. Throws std::runtime_error on a damaged or FSF1 file and
  /// on a digest mismatch.
  [[nodiscard]] static std::unique_ptr<FleetSession> open(
      const FleetRunSpec& spec, const std::string& ckpt_path,
      std::string trace_path, std::size_t completed_rounds,
      AtomicWriteOptions write = {});

  /// Per-round summaries so far (the result payload once the run is done).
  [[nodiscard]] const std::vector<FleetRoundSummary>& summaries() const noexcept {
    return summaries_;
  }
  [[nodiscard]] std::string result_json() const override {
    return fleet_result_json(spec_, summaries_);
  }

 private:
  FleetSession(const FleetRunSpec& spec, const std::string& ckpt_path,
               std::string trace_path, AtomicWriteOptions write,
               const fleet::Session::Restore& restore);
  [[nodiscard]] std::size_t rounds_completed() const override {
    return summaries_.size();
  }
  [[nodiscard]] std::string advance() override;

  FleetRunSpec spec_;
  fleet::Session session_;
  std::uint64_t digest_;  // of the columns FSF2 does not store
  std::vector<FleetRoundSummary> summaries_;  // one per round completed
};

/// One round as a one-shot: FleetSession::open + step.
[[nodiscard]] FleetStepOutcome run_fleet_step(const FleetRunSpec& spec,
                                              const std::string& ckpt_path,
                                              const std::string& trace_path,
                                              std::size_t completed_rounds);

/// Per-round summaries stored in the checkpoint at `ckpt_path` (decodes the
/// file without regenerating the fleet).
[[nodiscard]] std::vector<FleetRoundSummary> load_fleet_summaries(
    const std::string& ckpt_path);

}  // namespace fedsched::coord
