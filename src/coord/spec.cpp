#include "coord/spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "device/spec.hpp"
#include "fleet/fleet.hpp"
#include "fleet/session.hpp"

namespace fedsched::coord {

namespace {

using common::JsonValue;

void fail(const std::string& what) {
  throw std::runtime_error("run spec: " + what);
}

std::size_t get_size(const JsonValue& v, const std::string& key,
                     std::size_t fallback) {
  const double d = v.get_number(key, static_cast<double>(fallback));
  if (!(d >= 0.0) || d != std::floor(d) || d > 1e15) {
    fail("field '" + key + "' must be a non-negative integer");
  }
  return static_cast<std::size_t>(d);
}

std::uint64_t get_u64(const JsonValue& v, const std::string& key,
                      std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      get_size(v, key, static_cast<std::size_t>(fallback)));
}

void check_model(const std::string& model) {
  if (model != "LeNet" && model != "VGG6") {
    fail("model must be LeNet or VGG6, got '" + model + "'");
  }
}

TrainRunSpec parse_train(const JsonValue& v) {
  TrainRunSpec t;
  t.dataset = v.get_string("dataset", t.dataset);
  if (t.dataset != "mnist" && t.dataset != "cifar") {
    fail("dataset must be mnist or cifar, got '" + t.dataset + "'");
  }
  t.testbed = static_cast<int>(get_size(v, "testbed", 1));
  if (t.testbed < 1 || t.testbed > 3) fail("testbed must be 1, 2 or 3");
  t.model = v.get_string("model", t.model);
  check_model(t.model);
  t.samples = get_size(v, "samples", t.samples);
  if (t.samples == 0) fail("samples must be > 0");
  t.policy = v.get_string("policy", t.policy);
  if (t.policy != "fed-lbap" && t.policy != "equal" && t.policy != "prop" &&
      t.policy != "random") {
    fail("train policy must be fed-lbap|equal|prop|random, got '" + t.policy + "'");
  }
  t.rounds = get_size(v, "rounds", t.rounds);
  if (t.rounds == 0) fail("rounds must be > 0");
  t.seed = get_u64(v, "seed", t.seed);
  t.parallelism = get_size(v, "parallelism", t.parallelism);
  t.evaluate_each_round = v.get_bool("evaluate_each_round", false);
  return t;
}

FleetRunSpec parse_fleet(const JsonValue& v) {
  FleetRunSpec f;
  f.fleet_size = get_size(v, "fleet_size", f.fleet_size);
  if (f.fleet_size == 0) fail("fleet_size must be > 0");
  f.mix = v.get_string("mix", f.mix);
  if (!f.mix.empty()) {
    (void)fleet::parse_fleet_mix(f.mix);  // validate eagerly
  }
  f.model = v.get_string("model", f.model);
  check_model(f.model);
  f.shard = get_size(v, "shard", f.shard);
  if (f.shard == 0) fail("shard must be > 0");
  f.buckets = get_size(v, "buckets", f.buckets);
  if (f.buckets == 0) fail("buckets must be > 0");
  f.rounds = get_size(v, "rounds", f.rounds);
  if (f.rounds == 0) fail("rounds must be > 0");
  f.total_shards = get_size(v, "total_shards", f.total_shards);
  f.policy = v.get_string("policy", f.policy);
  if (std::ranges::count(fleet::planner_names(), f.policy) == 0) {
    fail("unknown fleet policy '" + f.policy + "'");
  }
  f.deadline_s = v.get_number("deadline_s", f.deadline_s);
  if (std::isnan(f.deadline_s) || f.deadline_s <= 0.0) {
    // Absent = +inf (JSON has no Inf literal, so the field is simply omitted
    // for deadline-free runs).
    fail("deadline_s must be > 0");
  }
  f.dropout = v.get_number("dropout", f.dropout);
  if (!(f.dropout >= 0.0 && f.dropout <= 1.0)) fail("dropout must be in [0, 1]");
  f.battery_floor = v.get_number("battery_floor", f.battery_floor);
  if (!(f.battery_floor >= 0.0 && f.battery_floor < 1.0)) {
    fail("battery_floor must be in [0, 1)");
  }
  f.seed = get_u64(v, "seed", f.seed);
  f.parallelism = get_size(v, "parallelism", f.parallelism);
  return f;
}

}  // namespace

std::size_t RunSpec::resident_clients() const {
  if (kind == RunKind::kFleet) return fleet.fleet_size;
  return device::testbed(train.testbed).size();
}

const char* run_kind_name(RunKind kind) {
  return kind == RunKind::kTrain ? "train" : "fleet";
}

RunSpec parse_run_spec(const JsonValue& v) {
  if (!v.is_object()) fail("spec must be a JSON object");
  RunSpec spec;
  spec.id = v.get_string("id", "");
  if (spec.id.empty() || spec.id.size() > 128) {
    fail("id must be a non-empty string of at most 128 characters");
  }
  for (char c : spec.id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) fail("id may contain only [A-Za-z0-9._-]");
  }
  if (spec.id[0] == '.') fail("id must not start with '.'");
  const std::string kind = v.get_string("kind", "train");
  if (kind == "train") {
    spec.kind = RunKind::kTrain;
    spec.train = parse_train(v);
  } else if (kind == "fleet") {
    spec.kind = RunKind::kFleet;
    spec.fleet = parse_fleet(v);
  } else {
    fail("kind must be train or fleet, got '" + kind + "'");
  }
  return spec;
}

std::string run_spec_json(const RunSpec& spec) {
  common::JsonObject o;
  o.field("id", spec.id).field("kind", run_kind_name(spec.kind));
  if (spec.kind == RunKind::kTrain) {
    const TrainRunSpec& t = spec.train;
    o.field("dataset", t.dataset)
        .field("testbed", t.testbed)
        .field("model", t.model)
        .field("samples", t.samples)
        .field("policy", t.policy)
        .field("rounds", t.rounds)
        .field("seed", t.seed)
        .field("parallelism", t.parallelism)
        .field("evaluate_each_round", t.evaluate_each_round);
  } else {
    const FleetRunSpec& f = spec.fleet;
    o.field("fleet_size", f.fleet_size)
        .field("mix", f.mix)
        .field("model", f.model)
        .field("shard", f.shard)
        .field("buckets", f.buckets)
        .field("rounds", f.rounds)
        .field("total_shards", f.total_shards)
        .field("policy", f.policy);
    if (std::isfinite(f.deadline_s)) o.field("deadline_s", f.deadline_s);
    o.field("dropout", f.dropout)
        .field("battery_floor", f.battery_floor)
        .field("seed", f.seed)
        .field("parallelism", f.parallelism);
  }
  return o.str();
}

}  // namespace fedsched::coord
