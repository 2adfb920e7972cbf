#include "coord/fleet_job.hpp"

#include <stdexcept>
#include <utility>

#include "device/model_desc.hpp"
#include "fl/checkpoint/codec.hpp"

namespace fedsched::coord {

namespace fc = fl::checkpoint;

namespace {

constexpr std::uint32_t kFleetMagic = 0x46534632;  // "FSF2"
constexpr std::uint32_t kFleetVersion = 2;
constexpr const char* kFleetArtifact = "fedsched FSF2 fleet checkpoint";

/// What an FSF2 file holds besides the regenerated columns.
struct FleetCheckpoint {
  std::size_t rounds_completed = 0;
  std::size_t clients = 0;
  std::uint64_t digest = 0;
  std::vector<double> battery_soc;
  std::vector<std::uint8_t> alive;
  std::vector<FleetRoundSummary> summaries;
  std::string trace_prefix;
  std::size_t trace_events = 0;
};

void put_summary(fc::PayloadWriter& out, const FleetRoundSummary& s) {
  out.put_u64(s.round);
  out.put_u64(s.participants);
  out.put_u64(s.completed);
  out.put_u64(s.dropped_crash);
  out.put_u64(s.dropped_deadline);
  out.put_u64(s.dropped_stale);
  out.put_u64(s.battery_deaths);
  out.put_u64(s.survivor_shards);
  out.put(s.threshold_s);
  out.put(s.makespan_s);
  out.put(s.energy_wh);
}

FleetRoundSummary get_summary(fc::PayloadReader& in) {
  FleetRoundSummary s;
  s.round = static_cast<std::size_t>(in.get_u64());
  s.participants = static_cast<std::size_t>(in.get_u64());
  s.completed = static_cast<std::size_t>(in.get_u64());
  s.dropped_crash = static_cast<std::size_t>(in.get_u64());
  s.dropped_deadline = static_cast<std::size_t>(in.get_u64());
  s.dropped_stale = static_cast<std::size_t>(in.get_u64());
  s.battery_deaths = static_cast<std::size_t>(in.get_u64());
  s.survivor_shards = static_cast<std::size_t>(in.get_u64());
  s.threshold_s = in.get<double>();
  s.makespan_s = in.get<double>();
  s.energy_wh = in.get<double>();
  return s;
}

FleetCheckpoint load_fleet_checkpoint(const std::string& path) {
  const std::string file = fc::read_file(path, "fleet checkpoint");
  const std::string context = "fleet checkpoint: " + path;
  fc::PayloadReader payload(
      fc::open(kFleetMagic, kFleetVersion, file, context, kFleetArtifact), context);

  FleetCheckpoint ckpt;
  ckpt.rounds_completed = static_cast<std::size_t>(payload.get_u64());
  ckpt.clients = static_cast<std::size_t>(payload.get_u64());
  ckpt.digest = payload.get_u64();
  ckpt.battery_soc = payload.get_vec<double>();
  ckpt.alive = payload.get_vec<std::uint8_t>();
  ckpt.summaries.resize(payload.get_count(1));
  for (FleetRoundSummary& r : ckpt.summaries) r = get_summary(payload);
  ckpt.trace_events = static_cast<std::size_t>(payload.get_u64());
  ckpt.trace_prefix = payload.get_bytes();
  payload.expect_exhausted();
  if (ckpt.battery_soc.size() != ckpt.clients || ckpt.alive.size() != ckpt.clients ||
      ckpt.summaries.size() != ckpt.rounds_completed) {
    payload.corrupt();
  }
  return ckpt;
}

/// FNV-1a over every column restore regenerates rather than stores, each
/// length-prefixed, in FleetState order.
std::uint64_t regenerated_digest(const fleet::FleetState& s) {
  std::uint64_t h = fc::kFnv1a64Basis;
  const auto column = [&h](const auto& v) {
    const std::uint64_t n = v.size();
    h = fc::fnv1a64({reinterpret_cast<const char*>(&n), sizeof n}, h);
    h = fc::fnv1a64({reinterpret_cast<const char*>(v.data()), n * sizeof v[0]}, h);
  };
  column(s.device_model);
  column(s.network);
  column(s.speed_factor);
  column(s.base_s);
  column(s.per_sample_s);
  column(s.comm_s);
  column(s.battery_capacity_wh);
  column(s.train_power_w);
  column(s.comm_energy_wh);
  column(s.temp_c);
  column(s.capacity_shards);
  return h;
}

fleet::SessionConfig session_config(const FleetRunSpec& spec) {
  fleet::SessionConfig config;
  if (!spec.mix.empty()) config.mix = fleet::parse_fleet_mix(spec.mix);
  config.model = device::desc_by_name(spec.model);
  config.fleet_size = spec.fleet_size;
  config.total_shards = spec.effective_total_shards();
  config.policy = spec.policy;
  config.buckets = spec.buckets;
  config.sim.shard_size = spec.shard;
  config.sim.deadline_s = spec.deadline_s;
  config.sim.dropout_prob = spec.dropout;
  config.sim.battery_floor_soc = spec.battery_floor;
  config.sim.parallelism = spec.parallelism;
  config.sim.seed = spec.seed;
  return config;
}

}  // namespace

FleetSession::FleetSession(const FleetRunSpec& spec, const std::string& ckpt_path,
                           std::string trace_path, AtomicWriteOptions write,
                           const fleet::Session::Restore& restore)
    : RunSession(spec.rounds, ckpt_path, std::move(trace_path), write),
      spec_(spec),
      session_(session_config(spec), restore ? nullptr : &trace_, restore),
      digest_(regenerated_digest(session_.state())) {}

std::unique_ptr<FleetSession> FleetSession::open(const FleetRunSpec& spec,
                                                 const std::string& ckpt_path,
                                                 std::string trace_path,
                                                 std::size_t completed_rounds,
                                                 AtomicWriteOptions write) {
  if (completed_rounds == 0) {
    return std::unique_ptr<FleetSession>(
        new FleetSession(spec, ckpt_path, std::move(trace_path), write, {}));
  }
  FleetCheckpoint ckpt = load_fleet_checkpoint(ckpt_path);
  const auto restore = [&](fleet::FleetState& state) {
    if (regenerated_digest(state) != ckpt.digest || state.size() != ckpt.clients) {
      throw std::runtime_error("fleet checkpoint: " + ckpt_path +
                               ": regenerated fleet digest mismatch (the spec or "
                               "the generator changed under the checkpoint)");
    }
    state.battery_soc = std::move(ckpt.battery_soc);
    state.alive = std::move(ckpt.alive);
  };
  std::unique_ptr<FleetSession> session(
      new FleetSession(spec, ckpt_path, std::move(trace_path), write, restore));
  session->summaries_ = std::move(ckpt.summaries);
  session->trace_.write_raw(ckpt.trace_prefix, ckpt.trace_events);
  return session;
}

std::string FleetSession::advance() {
  const fleet::SessionRound round = session_.step(summaries_.size(), &trace_);
  const fleet::FleetRoundResult& r = round.result;

  FleetRoundSummary summary;
  summary.round = r.round;
  summary.participants = r.participants;
  summary.completed = r.completed;
  summary.dropped_crash = r.dropped_crash;
  summary.dropped_deadline = r.dropped_deadline;
  summary.dropped_stale = r.dropped_stale;
  summary.battery_deaths = r.battery_deaths;
  summary.survivor_shards = r.survivor_shards;
  summary.threshold_s = round.bound_s;
  summary.makespan_s = r.makespan_s;
  summary.energy_wh = r.energy_wh;
  summaries_.push_back(summary);

  const fleet::FleetState& s = session_.state();
  fc::PayloadWriter out;
  out.put_u64(summaries_.size());
  out.put_u64(s.size());
  out.put_u64(digest_);
  out.put_vec(s.battery_soc);
  out.put_vec(s.alive);
  out.put_u64(summaries_.size());
  for (const FleetRoundSummary& rs : summaries_) put_summary(out, rs);
  out.put_u64(trace_.captured_events());
  out.put_bytes(trace_.captured());
  return fc::seal(kFleetMagic, kFleetVersion, out.bytes());
}

FleetStepOutcome run_fleet_step(const FleetRunSpec& spec,
                                const std::string& ckpt_path,
                                const std::string& trace_path,
                                std::size_t completed_rounds) {
  return FleetSession::open(spec, ckpt_path, trace_path, completed_rounds)
      ->step(completed_rounds);
}

std::vector<FleetRoundSummary> load_fleet_summaries(const std::string& ckpt_path) {
  return load_fleet_checkpoint(ckpt_path).summaries;
}

std::string fleet_result_json(const FleetRunSpec& spec,
                              const std::vector<FleetRoundSummary>& rounds) {
  std::string arr = "[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const FleetRoundSummary& r = rounds[i];
    common::JsonObject ro;
    ro.field("round", r.round)
        .field("participants", r.participants)
        .field("completed", r.completed)
        .field("dropped_crash", r.dropped_crash)
        .field("dropped_deadline", r.dropped_deadline)
        .field("dropped_stale", r.dropped_stale)
        .field("battery_deaths", r.battery_deaths)
        .field("survivor_shards", r.survivor_shards)
        .field("threshold_s", r.threshold_s)
        .field("makespan_s", r.makespan_s)
        .field("energy_wh", r.energy_wh);
    if (i > 0) arr += ",";
    arr += ro.str();
  }
  arr += "]";
  common::JsonObject o;
  o.field("kind", "fleet")
      .field("fleet_size", spec.fleet_size)
      .field("rounds", rounds.size())
      .field("seed", spec.seed)
      .field_raw("round_records", arr);
  return o.str();
}

}  // namespace fedsched::coord
