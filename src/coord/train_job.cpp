#include "coord/train_job.hpp"

#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "data/synth.hpp"
#include "fl/checkpoint/checkpoint.hpp"
#include "sched/baselines.hpp"
#include "sched/fed_lbap.hpp"

namespace fedsched::coord {

namespace {

sched::Baseline baseline_of(const std::string& name) {
  if (name == "equal") return sched::Baseline::kEqual;
  if (name == "prop") return sched::Baseline::kProportional;
  if (name == "random") return sched::Baseline::kRandom;
  throw std::runtime_error("train job: unknown baseline policy '" + name + "'");
}

}  // namespace

TrainJob build_train_job(const TrainRunSpec& spec, obs::TraceWriter* trace) {
  TrainJob job;
  const data::SynthConfig ds_config =
      spec.dataset == "cifar" ? data::cifar_like() : data::mnist_like();
  job.phones = device::testbed(spec.testbed);
  const nn::Arch arch = spec.model == "VGG6" ? nn::Arch::kVgg6 : nn::Arch::kLeNet;
  job.desc = arch == nn::Arch::kLeNet ? device::lenet_desc() : device::vgg6_desc();

  job.train = data::generate_balanced(ds_config, spec.samples, spec.seed);
  job.test = data::generate_balanced(ds_config, spec.samples / 3, spec.seed + 1);

  // Schedule at full simulator scale, materialize proportionally. The RNG
  // stream order — baseline assignment first (when used), partition second —
  // is load-bearing: it matches `fedsched_cli train` draw for draw.
  job.users = core::build_profiles(job.phones, job.desc,
                                   device::NetworkType::kWifi, 60'000);
  common::Rng rng(spec.seed + 2);
  if (spec.policy == "fed-lbap") {
    job.assignment = sched::fed_lbap(job.users, 600, 100, trace).assignment;
  } else {
    job.assignment = sched::assign_baseline(baseline_of(spec.policy), job.users,
                                            600, 100, rng);
  }
  std::vector<double> weights;
  weights.reserve(job.assignment.shards_per_user.size());
  for (std::size_t k : job.assignment.shards_per_user) {
    weights.push_back(static_cast<double>(k));
  }
  job.partition = data::partition_with_sizes_iid(
      job.train, data::proportional_sizes(job.train.size(), weights), rng);

  job.config.rounds = spec.rounds;
  job.config.seed = spec.seed + 3;
  job.config.trace = trace;
  job.config.parallelism = spec.parallelism;
  job.config.evaluate_each_round = spec.evaluate_each_round;

  job.model_spec.arch = arch;
  job.model_spec.in_channels = ds_config.channels;
  job.model_spec.in_h = ds_config.height;
  job.model_spec.in_w = ds_config.width;
  return job;
}

TrainSession::TrainSession(const TrainRunSpec& spec, const std::string& ckpt_path,
                           std::string trace_path, std::size_t completed_rounds,
                           AtomicWriteOptions write)
    : RunSession(spec.rounds, ckpt_path, std::move(trace_path), write),
      spec_(spec),
      job_(build_train_job(spec, &trace_)),
      runner_(job_.train, job_.test, job_.model_spec, job_.desc, job_.phones,
              device::NetworkType::kWifi, job_.config),
      session_(completed_rounds == 0
                   ? fl::FedAvgSession(runner_, job_.partition)
                   : fl::FedAvgSession(runner_,
                                       fl::checkpoint::load_checkpoint(ckpt_path))) {}

std::string TrainSession::advance() {
  session_.step();
  return fl::checkpoint::encode_checkpoint(session_.checkpoint());
}

TrainStepOutcome run_train_step(const TrainRunSpec& spec,
                                const std::string& ckpt_path,
                                const std::string& trace_path,
                                std::size_t completed_rounds) {
  TrainSession session(spec, ckpt_path, trace_path, completed_rounds);
  const StepOutcome out = session.step(completed_rounds);
  return {session.result(), out.rounds_completed, out.done};
}

std::string train_result_json(const TrainRunSpec& spec,
                              const fl::RunResult& result) {
  std::string rounds = "[";
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const fl::RoundRecord& r = result.rounds[i];
    common::JsonObject ro;
    ro.field("round", r.round)
        .field("round_seconds", r.round_seconds)
        .field("cumulative_seconds", r.cumulative_seconds)
        .field("mean_train_loss", r.mean_train_loss)
        .field("test_accuracy", r.test_accuracy)
        .field("completed_clients", r.completed_clients)
        .field("dropped_clients", r.dropped_clients);
    if (i > 0) rounds += ",";
    rounds += ro.str();
  }
  rounds += "]";
  common::JsonObject o;
  o.field("kind", "train")
      .field("rounds", result.rounds.size())
      .field("final_accuracy", result.final_accuracy)
      .field("total_seconds", result.total_seconds)
      .field("seed", spec.seed)
      .field_raw("round_records", rounds);
  return o.str();
}

}  // namespace fedsched::coord
