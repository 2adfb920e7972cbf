// Table II — per-epoch training time (seconds) of MNIST samples on each
// device, for LeNet and VGG6 over WiFi and LTE, with the communication share
// in parentheses. Regenerated from the device simulator; compare against the
// paper's measured values quoted in the comments.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "bench_util.hpp"
#include "core/fedsched.hpp"
#include "fl/trainer.hpp"

namespace {

using namespace fedsched;

struct PaperRow {
  const char* model;
  device::PhoneModel phone;
  // paper's measured seconds: {3K WiFi, 3K LTE, 6K WiFi, 6K LTE}
  double paper[4];
};

constexpr PaperRow kPaper[] = {
    {"LeNet", device::PhoneModel::kNexus6, {31, 32, 62, 63}},
    {"LeNet", device::PhoneModel::kNexus6P, {69, 71, 220, 222}},
    {"LeNet", device::PhoneModel::kMate10, {45, 47, 89, 91}},
    {"LeNet", device::PhoneModel::kPixel2, {25, 27, 51, 53}},
    {"VGG6", device::PhoneModel::kNexus6, {495, 539, 1021, 1065}},
    {"VGG6", device::PhoneModel::kNexus6P, {540, 584, 1134, 1178}},
    {"VGG6", device::PhoneModel::kMate10, {359, 403, 712, 756}},
    {"VGG6", device::PhoneModel::kPixel2, {339, 383, 661, 705}},
};

std::string cell(double total_s, double comm_s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f(%.1f%%)", total_s, 100.0 * comm_s / total_s);
  return buf;
}

/// Host seconds for one real train_epoch (400 MNIST-like samples, batch 20).
/// Grounds the device simulator's *simulated* epoch times against what the
/// host kernels actually achieve.
double host_epoch_seconds() {
  common::Rng rng(20);
  nn::Model model = nn::build_model(nn::ModelSpec{}, rng);
  nn::Sgd sgd({.learning_rate = 0.02f, .momentum = 0.9f});
  const auto ds = data::generate_balanced(data::mnist_like(), 400, 21);
  std::vector<std::size_t> idx(ds.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  common::Rng trng(22);
  const auto t0 = std::chrono::steady_clock::now();
  (void)fl::train_epoch(model, sgd, ds, idx, 20, trng);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Emits one kernel_calibration event: the host seconds of that epoch.
void emit_kernel_calibration(obs::TraceWriter& jsonl) {
  const double host_s = host_epoch_seconds();
  common::JsonObject ev;
  ev.field("ev", "kernel_calibration")
      .field("model", "LeNet")
      .field("samples", 400)
      .field("batch", 20)
      .field("host_epoch_s", host_s);
  jsonl.write(ev);
  std::printf("host kernel calibration: LeNet epoch %.3fs\n\n", host_s);
}

}  // namespace

int main(int argc, char** argv) {
  (void)fedsched::bench::full_scale(argc, argv);  // always paper scale: cheap
  common::Table table({"model", "device", "3K WiFi", "3K LTE", "6K WiFi", "6K LTE",
                       "paper 3K WiFi", "paper 6K WiFi"});
  obs::TraceWriter jsonl = fedsched::bench::jsonl_writer("table2");

  for (const PaperRow& row : kPaper) {
    const device::ModelDesc& model = device::desc_by_name(row.model);
    std::vector<common::Table::Cell> cells;
    cells.emplace_back(std::string(row.model));
    cells.emplace_back(std::string(device::model_name(row.phone)));
    for (std::size_t samples : {std::size_t{3000}, std::size_t{6000}}) {
      for (device::NetworkType net :
           {device::NetworkType::kWifi, device::NetworkType::kLte}) {
        device::Device dev(row.phone, net);
        const double compute = dev.train(model, samples);
        const double comm = dev.comm_seconds(model);
        cells.emplace_back(cell(compute + comm, comm));

        common::JsonObject ev;
        ev.field("ev", "epoch_time")
            .field("model", row.model)
            .field("device", device::model_name(row.phone))
            .field("network", net == device::NetworkType::kWifi ? "wifi" : "lte")
            .field("samples", samples)
            .field("compute_s", compute)
            .field("comm_s", comm)
            .field("total_s", compute + comm);
        jsonl.write(ev);
      }
    }
    cells.emplace_back(std::to_string(static_cast<int>(row.paper[0])));
    cells.emplace_back(std::to_string(static_cast<int>(row.paper[2])));
    table.add_row(std::move(cells));
  }

  emit_kernel_calibration(jsonl);
  fedsched::bench::emit("table2", "per-epoch training time, simulated vs paper", table);
  return 0;
}
