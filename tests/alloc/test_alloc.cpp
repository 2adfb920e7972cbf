// Steady-state training allocates nothing.
//
// This binary replaces the global operator new with a counting one, which is
// why it lives in its own test directory (the tests CMake glob builds one
// executable per directory, and a replaced operator new counts for the whole
// executable). It counts the heap allocations made inside Model::forward, the
// loss, Model::backward and Sgd::step of one training step, after a warm-up
// batch, across a switch to a ragged tail batch and back:
//
//  - LeNet on the mnist-like set: every shape runs inline.
//  - VGG6 on the cifar-like set: two conv layers are heavy enough at batch 20
//    to fork onto the global thread pool, and a fork/join keeps its join
//    state on the caller's stack, so a step still allocates nothing.
//
// A separate case counts bare fork/joins on the global pool, nested included.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/synth.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fedsched::nn {
namespace {

/// Heap allocations made by fn() on any thread.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

struct StepAllocations {
  std::size_t forward = 0;
  std::size_t loss = 0;
  std::size_t backward = 0;
  std::size_t sgd_step = 0;

  [[nodiscard]] std::size_t total() const { return forward + loss + backward + sgd_step; }
  StepAllocations& operator+=(const StepAllocations& o) {
    forward += o.forward;
    loss += o.loss;
    backward += o.backward;
    sgd_step += o.sgd_step;
    return *this;
  }
};

/// One model training on a synthetic set, one counted step at a time, the
/// way fl::train_epoch drives it.
class Trainer {
 public:
  explicit Trainer(Arch arch)
      : config_(arch == Arch::kLeNet ? data::mnist_like() : data::cifar_like()),
        ds_(data::generate_balanced(config_, 200, 7)),
        model_(build(arch)),
        sgd_({.learning_rate = 0.02f, .momentum = 0.9f, .weight_decay = 5e-4f}) {}

  StepAllocations step(std::size_t batch_size) {
    std::vector<std::size_t> rows(batch_size);
    std::iota(rows.begin(), rows.end(), next_);
    for (std::size_t& r : rows) r %= ds_.size();
    next_ += batch_size;
    ds_.fill_batch(rows, batch_, labels_);

    StepAllocations a;
    const tensor::Tensor* logits = nullptr;
    a.forward = allocations_in([&] { logits = &model_.forward(batch_, /*train=*/true); });
    a.loss = allocations_in([&] { softmax_cross_entropy(*logits, labels_, loss_); });
    a.backward = allocations_in([&] { model_.backward(loss_.grad); });
    a.sgd_step = allocations_in([&] { sgd_.step(model_); });
    return a;
  }

  /// `steps` counted steps at one batch size, summed.
  StepAllocations steps(std::size_t count, std::size_t batch_size) {
    StepAllocations total;
    for (std::size_t i = 0; i < count; ++i) total += step(batch_size);
    return total;
  }

 private:
  Model build(Arch arch) {
    ModelSpec spec;
    spec.arch = arch;
    spec.in_channels = config_.channels;
    spec.in_h = config_.height;
    spec.in_w = config_.width;
    common::Rng rng(8);
    return build_model(spec, rng);
  }

  data::SynthConfig config_;
  data::Dataset ds_;
  Model model_;
  Sgd sgd_;
  tensor::Tensor batch_;
  std::vector<std::uint16_t> labels_;
  LossResult loss_;
  std::size_t next_ = 0;
};

TEST(StepAllocations, CounterSeesTheAllocationsOfAStep) {
  // The first step sizes every buffer (and the momentum state), so a counter
  // that missed allocations would make the zero checks below vacuous.
  Trainer lenet(Arch::kLeNet);
  const StepAllocations first = lenet.step(20);
  EXPECT_GT(first.forward, 0u);
  EXPECT_GT(first.backward, 0u);
  EXPECT_GT(first.sgd_step, 0u);
}

TEST(StepAllocations, LeNetSteadyStateAllocatesNothing) {
  Trainer lenet(Arch::kLeNet);
  (void)lenet.step(20);  // warm-up: sizes every buffer
  for (const std::size_t batch : {20, 20, 10, 20, 10, 20}) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    const StepAllocations a = lenet.step(batch);
    EXPECT_EQ(a.forward, 0u);
    EXPECT_EQ(a.loss, 0u);
    EXPECT_EQ(a.backward, 0u);
    EXPECT_EQ(a.sgd_step, 0u);
  }
}

TEST(StepAllocations, Vgg6SteadyStateAllocatesNothing) {
  Trainer vgg(Arch::kVgg6);
  (void)vgg.step(20);  // warm-up

  // A ragged batch of 10 keeps every shape under the pool threshold.
  EXPECT_EQ(vgg.step(10).total(), 0u);

  // At batch 20, conv2 and conv4 fork onto the global pool: three
  // sample-chunk dispatches of 3 chunks each (unfold, bias + NCHW scatter,
  // fold) and GEMMs of 14 (conv2) and 4 (conv4) column panels. conv1, conv3,
  // conv5 and the dense head stay inline.
  const StepAllocations pooled = vgg.steps(16, 20);
  EXPECT_EQ(pooled.forward, 0u);
  EXPECT_EQ(pooled.loss, 0u);
  EXPECT_EQ(pooled.backward, 0u);
  EXPECT_EQ(pooled.sgd_step, 0u);

  EXPECT_EQ(vgg.step(10).total(), 0u);
}

TEST(ForkJoinAllocations, GlobalPoolForkJoinsAllocateNothing) {
  // The VGG6 step's chunk counts (3 and 14), and a fork/join nested inside
  // each chunk of another: the join state lives on the forking caller's
  // stack and the callable is passed by reference.
  common::ThreadPool* pool = &common::global_pool();
  std::atomic<std::size_t> items{0};
  const auto count = [&](std::size_t, std::size_t lo, std::size_t hi) {
    items.fetch_add(hi - lo);
  };
  const auto nested = [&](std::size_t, std::size_t, std::size_t) {
    common::parallel_for_chunks(pool, 0, 14, 14, count);
  };
  const auto fork_joins = [&] {
    common::parallel_for_chunks(pool, 0, 3, 3, count);
    common::parallel_for_chunks(pool, 0, 14, 14, count);
    common::parallel_for_chunks(pool, 0, 3, 3, nested);
  };
  fork_joins();  // warm-up
  for (int rep = 0; rep < 16; ++rep) {
    SCOPED_TRACE(::testing::Message() << "rep " << rep);
    EXPECT_EQ(allocations_in(fork_joins), 0u);
  }
  EXPECT_EQ(items.load(), 17u * (3 + 14 + 3 * 14));
}

}  // namespace
}  // namespace fedsched::nn
