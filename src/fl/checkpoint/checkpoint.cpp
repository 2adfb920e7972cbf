#include "fl/checkpoint/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "common/json.hpp"
#include "fl/checkpoint/codec.hpp"

namespace fedsched::fl::checkpoint {

namespace {

constexpr std::uint32_t kMagic = 0x46534331;  // "FSC1"

// v2 layout: [magic u32][version u32][payload_size u64][fnv1a64 u64][payload]
// — the shared sealed-payload codec (codec.hpp). The payload is built in
// memory, checksummed, and written in one piece; the loader verifies length
// and checksum before parsing a single field, so any corruption —
// truncation, a flipped bit anywhere, a mangled length prefix — fails up
// front with a clean error instead of a crazy allocation or a silently
// wrong restore.

using Writer = PayloadWriter;
using Reader = PayloadReader;

void put_round(Writer& out, const RoundRecord& r) {
  out.put_u64(r.round);
  out.put(r.round_seconds);
  out.put(r.cumulative_seconds);
  out.put(r.mean_train_loss);
  out.put(r.test_accuracy);
  out.put_vec(r.client_seconds);
  out.put_u64(r.completed_clients);
  out.put_u64(r.dropped_clients);
  out.put_u64(r.retry_count);
  out.put_bool(r.skipped);
  out.put_bool(r.rescheduled);
  out.put_u64(r.moved_shards);
  out.put_u64(r.client_faults.size());
  for (FaultKind kind : r.client_faults) {
    out.put(static_cast<std::uint8_t>(kind));
  }
  out.put_u64(r.replicas_assigned);
  out.put_u64(r.replicas_won);
  out.put_u64(r.shares_rescued);
}

RoundRecord get_round(Reader& in) {
  RoundRecord r;
  r.round = static_cast<std::size_t>(in.get_u64());
  r.round_seconds = in.get<double>();
  r.cumulative_seconds = in.get<double>();
  r.mean_train_loss = in.get<double>();
  r.test_accuracy = in.get<double>();
  r.client_seconds = in.get_vec<double>();
  r.completed_clients = static_cast<std::size_t>(in.get_u64());
  r.dropped_clients = static_cast<std::size_t>(in.get_u64());
  r.retry_count = static_cast<std::size_t>(in.get_u64());
  r.skipped = in.get_bool();
  r.rescheduled = in.get_bool();
  r.moved_shards = static_cast<std::size_t>(in.get_u64());
  r.client_faults.resize(in.get_count(sizeof(std::uint8_t)));
  for (auto& kind : r.client_faults) {
    kind = static_cast<FaultKind>(in.get<std::uint8_t>());
  }
  r.replicas_assigned = static_cast<std::size_t>(in.get_u64());
  r.replicas_won = static_cast<std::size_t>(in.get_u64());
  r.shares_rescued = static_cast<std::size_t>(in.get_u64());
  return r;
}

void put_client_health(Writer& out, const health::ClientHealth& c) {
  out.put(static_cast<std::uint8_t>(c.status));
  out.put(c.speed_ewma);
  out.put_bool(c.has_observation);
  out.put_u64(c.fault_streak);
  out.put_u64(c.total_faults);
  out.put_u64(c.total_retries);
  out.put_u64(c.probations);
  out.put_u64(c.probation_remaining);
  out.put_u64(c.reassigned_shards);
  out.put(c.soc);
  out.put(c.soc_drop_ewma);
}

health::ClientHealth get_client_health(Reader& in) {
  health::ClientHealth c;
  c.status = static_cast<health::ClientStatus>(in.get<std::uint8_t>());
  c.speed_ewma = in.get<double>();
  c.has_observation = in.get_bool();
  c.fault_streak = static_cast<std::size_t>(in.get_u64());
  c.total_faults = static_cast<std::size_t>(in.get_u64());
  c.total_retries = static_cast<std::size_t>(in.get_u64());
  c.probations = static_cast<std::size_t>(in.get_u64());
  c.probation_remaining = static_cast<std::size_t>(in.get_u64());
  c.reassigned_shards = static_cast<std::size_t>(in.get_u64());
  c.soc = in.get<double>();
  c.soc_drop_ewma = in.get<double>();
  return c;
}

void put_resolution(Writer& out, const replication::ShareResolution& r) {
  out.put_u64(r.owner);
  out.put_bool(r.arrived);
  out.put_bool(r.rescued);
  out.put_u64(r.winner);
  out.put(r.finish_s);
  out.put_u64(r.replicas);
  out.put_u64(r.replicas_completed);
}

replication::ShareResolution get_resolution(Reader& in) {
  replication::ShareResolution r;
  r.owner = static_cast<std::size_t>(in.get_u64());
  r.arrived = in.get_bool();
  r.rescued = in.get_bool();
  r.winner = static_cast<std::size_t>(in.get_u64());
  r.finish_s = in.get<double>();
  r.replicas = static_cast<std::size_t>(in.get_u64());
  r.replicas_completed = static_cast<std::size_t>(in.get_u64());
  return r;
}

void write_sidecar(const RunState& state, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + path);
  common::JsonObject meta;
  meta.field("format", "fedsched-checkpoint");
  meta.field("version", static_cast<std::size_t>(kFormatVersion));
  meta.field("round", static_cast<std::size_t>(state.rounds_completed));
  meta.field("seed", static_cast<std::size_t>(state.seed));
  meta.field("clients", state.device_clock_s.size());
  meta.field("param_count", state.global_params.size());
  meta.field("total_seconds", state.total_seconds);
  meta.field("recovery_active", state.recovery_active);
  meta.field("replication_active", state.replication_active);
  meta.field("replica_resolutions", state.replica_log.size());
  meta.field("battery_tracked", !state.battery_soc.empty());
  meta.field("trace_events", static_cast<std::size_t>(state.trace_events));
  meta.field("trace_bytes", state.trace_prefix.size());
  out << meta.str() << '\n';
  if (!out) throw std::runtime_error("save_checkpoint: write failed for " + path);
}

}  // namespace

std::string encode_checkpoint(const RunState& state) {
  Writer payload;
  payload.put_u64(state.seed);
  payload.put_u64(state.rounds_completed);

  payload.put_u64(state.model_fingerprint);
  payload.put_vec(state.global_params);

  payload.put_u64(state.velocities.size());
  for (const auto& v : state.velocities) payload.put_vec(v);

  payload.put_vec(state.device_clock_s);
  payload.put_vec(state.device_temp_c);
  payload.put_vec(state.battery_soc);

  payload.put_u64(state.partition.user_indices.size());
  for (const auto& share : state.partition.user_indices) {
    payload.put_size_vec(share);
  }

  payload.put_u64(state.rounds.size());
  for (const RoundRecord& r : state.rounds) put_round(payload, r);
  payload.put(state.total_seconds);

  payload.put_bool(state.recovery_active);
  payload.put_u64(state.health.clients.size());
  for (const auto& c : state.health.clients) put_client_health(payload, c);
  payload.put_vec(state.health.planned_multiplier);
  payload.put_u64(state.health.last_plan_round);
  payload.put_bool(state.health.has_plan);
  payload.put_bool(state.health.status_dirty);
  payload.put_vec(state.replanner_shards);

  payload.put_bool(state.replication_active);
  payload.put_u64(state.replica_log.size());
  for (const auto& r : state.replica_log) put_resolution(payload, r);

  for (std::uint64_t word : state.rng_words) payload.put_u64(word);

  payload.put_u64(state.trace_events);
  payload.put_bytes(state.trace_prefix);

  return seal(kMagic, kFormatVersion, payload.bytes());
}

void save_checkpoint(const RunState& state, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + path);
  const std::string sealed = encode_checkpoint(state);
  out.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  if (!out) throw std::runtime_error("save_checkpoint: write failed for " + path);
  out.close();
  write_sidecar(state, path + ".meta.jsonl");
}

RunState load_checkpoint(const std::string& path) {
  const std::string file = read_file(path, "load_checkpoint");

  const std::string_view body = open(kMagic, kFormatVersion, file,
                                     "load_checkpoint: " + path,
                                     "fedsched checkpoint");

  Reader payload(body, "load_checkpoint: " + path);
  RunState state;
  state.seed = payload.get_u64();
  state.rounds_completed = payload.get_u64();

  state.model_fingerprint = payload.get_u64();
  state.global_params = payload.get_vec<float>();

  state.velocities.resize(payload.get_count(sizeof(std::uint64_t)));
  for (auto& v : state.velocities) v = payload.get_vec<float>();

  state.device_clock_s = payload.get_vec<double>();
  state.device_temp_c = payload.get_vec<double>();
  state.battery_soc = payload.get_vec<double>();

  state.partition.user_indices.resize(payload.get_count(sizeof(std::uint64_t)));
  for (auto& share : state.partition.user_indices) share = payload.get_size_vec();

  state.rounds.resize(payload.get_count(1));
  for (auto& r : state.rounds) r = get_round(payload);
  state.total_seconds = payload.get<double>();

  state.recovery_active = payload.get_bool();
  state.health.clients.resize(payload.get_count(1));
  for (auto& c : state.health.clients) c = get_client_health(payload);
  state.health.planned_multiplier = payload.get_vec<double>();
  state.health.last_plan_round = static_cast<std::size_t>(payload.get_u64());
  state.health.has_plan = payload.get_bool();
  state.health.status_dirty = payload.get_bool();
  state.replanner_shards = payload.get_vec<std::uint64_t>();

  state.replication_active = payload.get_bool();
  state.replica_log.resize(payload.get_count(1));
  for (auto& r : state.replica_log) r = get_resolution(payload);

  for (auto& word : state.rng_words) word = payload.get_u64();

  state.trace_events = payload.get_u64();
  state.trace_prefix = payload.get_bytes();

  payload.expect_exhausted();
  return state;
}

}  // namespace fedsched::fl::checkpoint
