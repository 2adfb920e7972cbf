// Microbenchmarks for the tensor/nn kernels that dominate training time.
//
// Two harnesses share this binary:
//   1. A blocked-vs-reference GEMM comparison at the exact batch-level conv
//      GEMM shapes LeNet/VGG6 issue (batch 20, the repo's training batch).
//      Runs by default, prints a table, and writes machine-readable output:
//        bench_out/micro_kernels.jsonl   one obs event per shape
//        bench_out/BENCH_kernels.json    one JSON summary document
//      The committed BENCH_kernels.json at the repo root is a snapshot of
//      the latter (acceptance: blocked >= 2x reference at the conv shapes).
//   2. The original google-benchmark registrations (GEMM/im2col/train-step
//      scaling curves), run when invoked with --gbench; remaining argv is
//      forwarded to the benchmark library.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "data/synth.hpp"
#include "device/device.hpp"
#include "fl/trainer.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace fedsched;
using tensor::Tensor;

// --- blocked vs reference comparison -----------------------------------------

enum class Variant { kNN, kTN, kNT };

/// One GEMM as a conv/dense layer issues it. `m, k, n` are the product
/// dimensions of out[m,n] = op(a) * op(b); the batch-level conv forward is
/// weight[out_c, patch] x cols[patch, batch*oh*ow], backward dW is the NT
/// product with k = batch*oh*ow, backward dX the TN product.
struct KernelShape {
  const char* name;
  Variant variant;
  std::size_t m, k, n;
};

// Batch 20 throughout (the training batch size used by the FL runners).
constexpr KernelShape kShapes[] = {
    // LeNet on 12x12x1: conv1 1->6 ch (out 12x12), conv2 6->12 ch (out 6x6).
    {"lenet-conv1-fwd", Variant::kNN, 6, 9, 2880},
    {"lenet-conv2-fwd", Variant::kNN, 12, 54, 720},
    {"lenet-conv1-dw", Variant::kNT, 6, 2880, 9},
    {"lenet-conv2-dx", Variant::kTN, 54, 12, 720},
    // VGG6 on 16x16x3: conv1 3->8 ch (out 16x16), stage-2 conv 16->16 ch
    // (out 8x8).
    {"vgg6-conv1-fwd", Variant::kNN, 8, 27, 5120},
    {"vgg6-conv3-fwd", Variant::kNN, 16, 144, 1280},
    {"vgg6-conv1-dw", Variant::kNT, 8, 5120, 27},
    {"vgg6-conv1-dx", Variant::kTN, 27, 8, 5120},
    // LeNet dense head at batch 20 for contrast (x[20,432] * W[64,432]^T).
    {"lenet-dense1-fwd", Variant::kNT, 20, 432, 64},
};

/// Median-of-best wall time per call: calibrates an iteration count so each
/// repetition runs >= ~20 ms, then takes the best of `reps` repetitions.
template <typename F>
double best_seconds_per_call(F&& fn, int reps = 5) {
  using clock = std::chrono::steady_clock;
  const auto seconds_for = [&](std::size_t iters) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    return std::chrono::duration<double>(clock::now() - t0).count() /
           static_cast<double>(iters);
  };
  const double single = seconds_for(1);
  const std::size_t iters =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.02 / std::max(single, 1e-9)));
  double best = single;
  for (int r = 0; r < reps; ++r) best = std::min(best, seconds_for(iters));
  return best;
}

struct ShapeResult {
  const KernelShape* shape;
  double blocked_gflops, ref_gflops, speedup;
};

ShapeResult compare_shape(const KernelShape& s) {
  common::Rng rng(std::hash<std::string_view>{}(s.name));
  // Operand storage shapes per variant (see tensor/ops.hpp contracts).
  const Tensor a = s.variant == Variant::kTN ? Tensor::randn({s.k, s.m}, rng)
                                             : Tensor::randn({s.m, s.k}, rng);
  const Tensor b = s.variant == Variant::kNT ? Tensor::randn({s.n, s.k}, rng)
                                             : Tensor::randn({s.k, s.n}, rng);
  Tensor out({s.m, s.n});
  tensor::ops::GemmWorkspace ws;

  const auto blocked = [&] {
    switch (s.variant) {
      case Variant::kNN: tensor::ops::matmul(a, b, out, ws); break;
      case Variant::kTN: tensor::ops::matmul_tn(a, b, out, ws); break;
      case Variant::kNT: tensor::ops::matmul_nt(a, b, out, ws); break;
    }
    benchmark::DoNotOptimize(out.raw());
  };
  const auto reference = [&] {
    switch (s.variant) {
      case Variant::kNN: tensor::ops::matmul_ref(a, b, out); break;
      case Variant::kTN: tensor::ops::matmul_tn_ref(a, b, out); break;
      case Variant::kNT: tensor::ops::matmul_nt_ref(a, b, out); break;
    }
    benchmark::DoNotOptimize(out.raw());
  };

  const double flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                       static_cast<double>(s.n);
  const double blocked_s = best_seconds_per_call(blocked);
  const double ref_s = best_seconds_per_call(reference);
  return {&s, flops / blocked_s * 1e-9, flops / ref_s * 1e-9, ref_s / blocked_s};
}

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kNN: return "nn";
    case Variant::kTN: return "tn";
    case Variant::kNT: return "nt";
  }
  return "?";
}

/// Runs the comparison, prints the table, writes JSONL + the JSON summary.
/// Returns the worst speedup over the conv shapes (the acceptance metric).
double run_kernel_comparison() {
  common::Table table(
      {"kernel", "variant", "m", "k", "n", "blocked GFLOP/s", "ref GFLOP/s", "speedup"});
  obs::TraceWriter jsonl = fedsched::bench::jsonl_writer("micro_kernels");

  std::string shapes_json;
  double worst_conv_speedup = std::numeric_limits<double>::infinity();
  for (const KernelShape& s : kShapes) {
    const ShapeResult r = compare_shape(s);
    table.add_row({std::string(s.name), std::string(variant_name(s.variant)),
                   static_cast<long long>(s.m), static_cast<long long>(s.k),
                   static_cast<long long>(s.n), r.blocked_gflops, r.ref_gflops,
                   r.speedup});

    common::JsonObject ev;
    ev.field("ev", "kernel_speedup")
        .field("kernel", s.name)
        .field("variant", variant_name(s.variant))
        .field("m", s.m)
        .field("k", s.k)
        .field("n", s.n)
        .field("blocked_gflops", r.blocked_gflops)
        .field("ref_gflops", r.ref_gflops)
        .field("speedup", r.speedup);
    jsonl.write(ev);
    if (!shapes_json.empty()) shapes_json += ',';
    shapes_json += ev.str();
    if (std::string_view(s.name).find("conv") != std::string_view::npos) {
      worst_conv_speedup = std::min(worst_conv_speedup, r.speedup);
    }
  }
  fedsched::bench::emit("micro_kernels", "blocked vs reference GEMM kernels", table);

  common::JsonObject doc;
  doc.field("bench", "micro_kernels")
      .field("batch", 20)
      .field("ulp_bound", 4)
      .field("worst_conv_speedup", worst_conv_speedup)
      .field_raw("shapes", "[" + shapes_json + "]");
  std::filesystem::create_directories("bench_out");
  std::ofstream summary("bench_out/BENCH_kernels.json");
  summary << doc.str() << '\n';
  std::printf("worst conv-shape speedup: %.2fx (acceptance floor: 2x)\n\n",
              worst_conv_speedup);
  return worst_conv_speedup;
}

// --- google-benchmark scaling curves (--gbench) ------------------------------

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  tensor::ops::GemmWorkspace ws;
  for (auto _ : state) {
    tensor::ops::matmul(a, b, out, ws);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->RangeMultiplier(2)->Range(16, 256);

void BM_MatmulRef(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  for (auto _ : state) {
    tensor::ops::matmul_ref(a, b, out);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulRef)->RangeMultiplier(2)->Range(16, 256);

void BM_MatmulNT(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  tensor::ops::GemmWorkspace ws;
  for (auto _ : state) {
    tensor::ops::matmul_nt(a, b, out, ws);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulNT)->RangeMultiplier(2)->Range(16, 256);

void BM_Im2col(benchmark::State& state) {
  tensor::ops::Conv2dGeometry g;
  g.in_channels = 8;
  g.in_h = g.in_w = static_cast<std::size_t>(state.range(0));
  g.kernel = 3;
  g.pad = 1;
  common::Rng rng(3);
  const Tensor image = Tensor::randn({1, g.in_channels * g.in_h * g.in_w}, rng);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  for (auto _ : state) {
    tensor::ops::im2col(image.data(), g, cols);
    benchmark::DoNotOptimize(cols.raw());
  }
}
BENCHMARK(BM_Im2col)->RangeMultiplier(2)->Range(8, 64);

void BM_Im2colBatch(benchmark::State& state) {
  // The batch-level unfold Conv2d runs: each sample padded, then unfolded
  // into its column slice of one [patch, batch*oh*ow] matrix.
  tensor::ops::Conv2dGeometry g;
  g.in_channels = 8;
  g.in_h = g.in_w = static_cast<std::size_t>(state.range(0));
  g.kernel = 3;
  g.pad = 1;
  common::Rng rng(3);
  const std::size_t batch = 20;
  const std::size_t features = g.in_channels * g.in_h * g.in_w;
  const std::size_t spatial = g.out_h() * g.out_w();
  const Tensor images = Tensor::randn({batch, features}, rng);
  Tensor cols({g.patch_size(), batch * spatial});
  std::vector<float> padded(tensor::ops::padded_size(g));
  for (auto _ : state) {
    for (std::size_t s = 0; s < batch; ++s) {
      tensor::ops::pad_image(images.data().subspan(s * features, features), g,
                             padded.data());
      tensor::ops::unfold_padded(padded.data(), g, cols.raw() + s * spatial,
                                 batch * spatial);
    }
    benchmark::DoNotOptimize(cols.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_Im2colBatch)->RangeMultiplier(2)->Range(8, 32);

void BM_LeNetForward(benchmark::State& state) {
  common::Rng rng(4);
  nn::ModelSpec spec;
  nn::Model model = nn::build_model(spec, rng);
  const Tensor batch = Tensor::randn({20, 144}, rng);
  for (auto _ : state) {
    Tensor out = model.forward(batch, false);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20);
}
BENCHMARK(BM_LeNetForward);

void BM_LeNetTrainBatch(benchmark::State& state) {
  common::Rng rng(5);
  nn::ModelSpec spec;
  nn::Model model = nn::build_model(spec, rng);
  nn::Sgd sgd({.learning_rate = 0.02f, .momentum = 0.9f});
  const auto ds = data::generate_balanced(data::mnist_like(), 20, 6);
  std::vector<std::size_t> idx(20);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  common::Rng trng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::train_epoch(model, sgd, ds, idx, 20, trng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20);
}
BENCHMARK(BM_LeNetTrainBatch);

void BM_Vgg6TrainBatch(benchmark::State& state) {
  common::Rng rng(8);
  const auto cfg = data::cifar_like();
  nn::ModelSpec spec{.arch = nn::Arch::kVgg6,
                     .in_channels = cfg.channels,
                     .in_h = cfg.height,
                     .in_w = cfg.width};
  nn::Model model = nn::build_model(spec, rng);
  nn::Sgd sgd({.learning_rate = 0.02f, .momentum = 0.9f});
  const auto ds = data::generate_balanced(cfg, 20, 9);
  std::vector<std::size_t> idx(20);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  common::Rng trng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::train_epoch(model, sgd, ds, idx, 20, trng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20);
}
BENCHMARK(BM_Vgg6TrainBatch);

void BM_DeviceSimulatedEpoch(benchmark::State& state) {
  // Host cost of simulating one 6K-sample epoch (should be microseconds-ms).
  for (auto _ : state) {
    device::Device dev(device::PhoneModel::kNexus6P);
    benchmark::DoNotOptimize(dev.train(device::vgg6_desc(), 6000));
  }
}
BENCHMARK(BM_DeviceSimulatedEpoch);

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  // Strip --gbench; everything else goes to the benchmark library.
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--gbench") {
      gbench = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  run_kernel_comparison();

  if (gbench) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
