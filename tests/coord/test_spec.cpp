// Run-spec contract (coord/spec.hpp): run_spec_json renders a spec that
// parse_run_spec reads back field for field, and every malformed or
// out-of-range field of a submitted spec is rejected with an error naming
// it. Specs arrive over the wire and from registry files, so each rejection
// branch of spec.cpp has a case here.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "coord/spec.hpp"
#include "fleet/session.hpp"

namespace fedsched::coord {
namespace {

RunSpec parse(const std::string& json) {
  return parse_run_spec(common::json_parse(json));
}

RunSpec round_trip(const RunSpec& spec) {
  return parse(run_spec_json(spec));
}

TEST(CoordSpec, TrainSpecRoundTrips) {
  RunSpec spec;
  spec.id = "train-1.a_b";
  spec.kind = RunKind::kTrain;
  spec.train.dataset = "cifar";
  spec.train.testbed = 3;
  spec.train.model = "VGG6";
  spec.train.samples = 900;
  spec.train.policy = "prop";
  spec.train.rounds = 4;
  spec.train.seed = 123456789;
  spec.train.parallelism = 3;
  spec.train.evaluate_each_round = true;

  const RunSpec back = round_trip(spec);
  EXPECT_EQ(back.id, spec.id);
  EXPECT_EQ(back.kind, RunKind::kTrain);
  EXPECT_EQ(back.train.dataset, "cifar");
  EXPECT_EQ(back.train.testbed, 3);
  EXPECT_EQ(back.train.model, "VGG6");
  EXPECT_EQ(back.train.samples, 900u);
  EXPECT_EQ(back.train.policy, "prop");
  EXPECT_EQ(back.train.rounds, 4u);
  EXPECT_EQ(back.train.seed, 123456789u);
  EXPECT_EQ(back.train.parallelism, 3u);
  EXPECT_TRUE(back.train.evaluate_each_round);
  EXPECT_EQ(run_spec_json(back), run_spec_json(spec));
}

TEST(CoordSpec, FleetSpecRoundTripsForEveryPlanner) {
  for (const std::string& policy : fleet::planner_names()) {
    for (const double deadline_s : {std::numeric_limits<double>::infinity(), 7.25}) {
      SCOPED_TRACE(policy + " deadline " + std::to_string(deadline_s));
      RunSpec spec;
      spec.id = "fleet-" + policy;
      spec.kind = RunKind::kFleet;
      spec.fleet.fleet_size = 4321;
      spec.fleet.mix = "nexus6:0.4,mate10:0.4,pixel2:0.2,lte:0.5";
      spec.fleet.model = "VGG6";
      spec.fleet.shard = 50;
      spec.fleet.buckets = 32;
      spec.fleet.rounds = 5;
      spec.fleet.total_shards = 9000;
      spec.fleet.policy = policy;
      spec.fleet.deadline_s = deadline_s;
      spec.fleet.dropout = 0.125;
      spec.fleet.battery_floor = 0.8;
      spec.fleet.seed = 99;
      spec.fleet.parallelism = 2;

      const RunSpec back = round_trip(spec);
      EXPECT_EQ(back.kind, RunKind::kFleet);
      EXPECT_EQ(back.fleet.fleet_size, 4321u);
      EXPECT_EQ(back.fleet.mix, spec.fleet.mix);
      EXPECT_EQ(back.fleet.model, "VGG6");
      EXPECT_EQ(back.fleet.shard, 50u);
      EXPECT_EQ(back.fleet.buckets, 32u);
      EXPECT_EQ(back.fleet.rounds, 5u);
      EXPECT_EQ(back.fleet.total_shards, 9000u);
      EXPECT_EQ(back.fleet.policy, policy);
      EXPECT_EQ(back.fleet.deadline_s, deadline_s);
      EXPECT_EQ(back.fleet.dropout, 0.125);
      EXPECT_EQ(back.fleet.battery_floor, 0.8);
      EXPECT_EQ(back.fleet.seed, 99u);
      EXPECT_EQ(back.fleet.parallelism, 2u);
      EXPECT_EQ(run_spec_json(back), run_spec_json(spec));
    }
  }
}

struct Rejection {
  std::string spec;
  std::string error;  // a fragment of the expected message
};

TEST(CoordSpec, EveryRejectionBranchThrows) {
  const std::vector<Rejection> cases = {
      // The envelope.
      {R"([])", "spec must be a JSON object"},
      {R"({"kind":"train"})", "id must be a non-empty string"},
      {R"({"id":")" + std::string(129, 'a') + R"("})", "at most 128 characters"},
      {R"({"id":"a/b"})", "id may contain only"},
      {R"({"id":".hidden"})", "id must not start with '.'"},
      {R"({"id":"a","kind":"gossip"})", "kind must be train or fleet"},
      // Shared field checks.
      {R"({"id":"a","samples":-1})", "'samples' must be a non-negative integer"},
      {R"({"id":"a","samples":2.5})", "'samples' must be a non-negative integer"},
      {R"({"id":"a","seed":1e16})", "'seed' must be a non-negative integer"},
      {R"({"id":"a","model":"ResNet"})", "model must be LeNet or VGG6"},
      // Train fields.
      {R"({"id":"a","dataset":"imagenet"})", "dataset must be mnist or cifar"},
      {R"({"id":"a","testbed":4})", "testbed must be 1, 2 or 3"},
      {R"({"id":"a","testbed":0})", "testbed must be 1, 2 or 3"},
      {R"({"id":"a","samples":0})", "samples must be > 0"},
      {R"({"id":"a","policy":"olar"})", "train policy must be"},
      {R"({"id":"a","rounds":0})", "rounds must be > 0"},
      // Fleet fields.
      {R"({"id":"a","kind":"fleet","fleet_size":0})", "fleet_size must be > 0"},
      {R"({"id":"a","kind":"fleet","model":"ResNet"})", "model must be LeNet or VGG6"},
      {R"({"id":"a","kind":"fleet","shard":0})", "shard must be > 0"},
      {R"({"id":"a","kind":"fleet","buckets":0})", "buckets must be > 0"},
      {R"({"id":"a","kind":"fleet","rounds":0})", "rounds must be > 0"},
      {R"({"id":"a","kind":"fleet","policy":"fed_lbap"})", "unknown fleet policy 'fed_lbap'"},
      {R"({"id":"a","kind":"fleet","deadline_s":0})", "deadline_s must be > 0"},
      {R"({"id":"a","kind":"fleet","deadline_s":-3})", "deadline_s must be > 0"},
      {R"({"id":"a","kind":"fleet","dropout":1.5})", "dropout must be in [0, 1]"},
      {R"({"id":"a","kind":"fleet","dropout":-0.1})", "dropout must be in [0, 1]"},
      {R"({"id":"a","kind":"fleet","battery_floor":1})", "battery_floor must be in [0, 1)"},
      {R"({"id":"a","kind":"fleet","battery_floor":-0.5})", "battery_floor must be in [0, 1)"},
      // A field of the wrong JSON type.
      {R"({"id":"a","kind":"fleet","rounds":"3"})", "expected number"},
  };
  for (const Rejection& c : cases) {
    SCOPED_TRACE(c.spec);
    try {
      (void)parse(c.spec);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.error), std::string::npos)
          << error.what();
    }
  }
}

TEST(CoordSpec, MalformedMixThrowsTheMixParsersError) {
  EXPECT_THROW((void)parse(R"({"id":"a","kind":"fleet","mix":"iphone:1"})"),
               std::invalid_argument);
  EXPECT_THROW((void)parse(R"({"id":"a","kind":"fleet","mix":"nexus6:0"})"),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedsched::coord
