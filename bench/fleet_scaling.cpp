// Fleet scale-out — how far does the bucketed planning + event-driven round
// path stretch as the population grows 1k -> 1M clients?
//
// Per size: open a fleet::Session (seeded mixture) and step one round: a
// bucketed Fed-LBAP plan for two shards per client on average, then one full
// discrete-event round (drops, battery drain, tree aggregation). Reported:
// generation / planning / round wall seconds (round seconds include the cost
// view), planning throughput in clients*shards per second, and peak RSS.
//
// Acceptance (exit non-zero on violation): the 1M-client case must finish
// planning + one round in under 60 s with peak RSS under 4 GB.
//
// Outputs:  bench_out/fleet_scaling.csv     (table)
//           bench_out/fleet_scaling.jsonl   (one event per size)
//           bench_out/BENCH_fleet.json      (summary document)
// The committed BENCH_fleet.json at the repo root is a snapshot of the
// default run on the reference container.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "fleet/session.hpp"

using namespace fedsched;

namespace {

double peak_rss_mb() {
#if defined(__unix__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
#else
  return 0.0;
#endif
}

struct SizeResult {
  std::size_t clients = 0;
  double generate_s = 0.0;
  double plan_s = 0.0;
  double round_s = 0.0;
  double throughput = 0.0;  // clients*shards per planning second
  double makespan_s = 0.0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  double rss_mb = 0.0;
};

SizeResult run_size(std::size_t clients, std::size_t buckets) {
  SizeResult r;
  r.clients = clients;

  fleet::SessionConfig config;
  config.mix.lte_fraction = 0.3;
  config.mix.capacity_shards = 16;
  config.fleet_size = clients;
  config.total_shards = 2 * clients;
  config.buckets = buckets;
  config.sim.dropout_prob = 0.1;
  config.sim.update_dim = 32;
  config.sim.parallelism = 0;  // all host threads; results bit-identical anyway
  config.sim.seed = 0xf1ee7;

  common::Stopwatch generate_watch;
  fleet::Session session(config);
  r.generate_s = generate_watch.seconds();

  common::Stopwatch round_watch;
  const fleet::SessionRound step = session.step(0);
  r.plan_s = step.plan_s;
  r.round_s = round_watch.seconds() - step.plan_s;
  r.throughput = static_cast<double>(clients) *
                 static_cast<double>(config.total_shards) / r.plan_s;
  const fleet::FleetRoundResult& round = step.result;
  r.makespan_s = round.makespan_s;
  r.completed = round.completed;
  r.dropped =
      round.dropped_crash + round.dropped_deadline + round.dropped_stale;
  r.rss_mb = peak_rss_mb();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // The acceptance case is the default run: --full only adds a denser sweep.
  const bool full = bench::full_scale(argc, argv);
  std::vector<std::size_t> sizes = {1'000, 10'000, 100'000, 1'000'000};
  if (full) sizes.insert(sizes.begin() + 2, 30'000);

  common::Table table({"clients", "generate_s", "plan_s", "round_s",
                       "plan_Mcs_per_s", "completed", "dropped", "peak_rss_mb"});
  table.set_precision(3);
  obs::TraceWriter jsonl = bench::jsonl_writer("fleet_scaling");
  std::string sizes_json;
  const SizeResult* largest = nullptr;
  std::vector<SizeResult> results;
  results.reserve(sizes.size());
  for (const std::size_t clients : sizes) {
    results.push_back(run_size(clients, 64));
    const SizeResult& r = results.back();
    largest = &r;
    table.add_row({static_cast<long long>(r.clients), r.generate_s, r.plan_s,
                   r.round_s, r.throughput / 1e6,
                   static_cast<long long>(r.completed),
                   static_cast<long long>(r.dropped), r.rss_mb});
    common::JsonObject ev;
    ev.field("ev", "fleet_scale")
        .field("clients", r.clients)
        .field("generate_s", r.generate_s)
        .field("plan_s", r.plan_s)
        .field("round_s", r.round_s)
        .field("plan_throughput_cs_per_s", r.throughput)
        .field("makespan_s", r.makespan_s)
        .field("completed", r.completed)
        .field("dropped", r.dropped)
        .field("peak_rss_mb", r.rss_mb);
    jsonl.write(ev);
    if (!sizes_json.empty()) sizes_json += ',';
    sizes_json += ev.str();
  }
  bench::emit("fleet_scaling",
              "bucketed planning + event round, 1k -> 1M clients", table);

  const double largest_total_s =
      largest->generate_s + largest->plan_s + largest->round_s;
  common::JsonObject doc;
  doc.field("bench", "fleet_scaling")
      .field("buckets", 64)
      .field("largest_clients", largest->clients)
      .field("largest_total_s", largest_total_s)
      .field("largest_plan_throughput_cs_per_s", largest->throughput)
      .field("peak_rss_mb", largest->rss_mb)
      .field_raw("sizes", "[" + sizes_json + "]");
  std::filesystem::create_directories("bench_out");
  std::ofstream summary("bench_out/BENCH_fleet.json");
  summary << doc.str() << '\n';

  std::printf("largest case: %zu clients, %.2f s total (plan %.2f s at %.1f "
              "Mcs/s), peak RSS %.0f MB\n",
              largest->clients, largest_total_s, largest->plan_s,
              largest->throughput / 1e6, largest->rss_mb);
  // Acceptance gate: 1M-client planning + one round < 60 s and < 4 GB RSS.
  if (largest_total_s >= 60.0) return 1;
  return largest->rss_mb < 4096.0 ? 0 : 1;
}
