#include "data/partition.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "data/synth.hpp"

namespace fedsched::data {
namespace {

Dataset make_ds(std::size_t total = 600) {
  return generate_balanced(mnist_like(), total, 42);
}

/// No sample may be assigned twice across users.
void expect_disjoint(const Partition& p) {
  std::set<std::size_t> seen;
  for (const auto& share : p.user_indices) {
    for (std::size_t idx : share) {
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index " << idx;
    }
  }
}

TEST(PartitionStruct, SizesAndTotal) {
  Partition p;
  p.user_indices = {{0, 1}, {}, {2, 3, 4}};
  EXPECT_EQ(p.users(), 3u);
  EXPECT_EQ(p.sizes(), (std::vector<std::size_t>{2, 0, 3}));
  EXPECT_EQ(p.total(), 5u);
}

TEST(PartitionStruct, ImbalanceRatioOfEqualIsZero) {
  Partition p;
  p.user_indices = {{0, 1}, {2, 3}, {4, 5}};
  EXPECT_DOUBLE_EQ(p.imbalance_ratio(), 0.0);
}

TEST(EqualIid, SplitsEvenlyAndDisjointly) {
  const Dataset ds = make_ds();
  common::Rng rng(1);
  const Partition p = partition_equal_iid(ds, 6, rng);
  EXPECT_EQ(p.users(), 6u);
  EXPECT_EQ(p.total(), ds.size());
  for (std::size_t size : p.sizes()) EXPECT_EQ(size, 100u);
  expect_disjoint(p);
}

TEST(EqualIid, SharesAreClassBalanced) {
  const Dataset ds = make_ds();
  common::Rng rng(2);
  const Partition p = partition_equal_iid(ds, 6, rng);
  for (const auto& share : p.user_indices) {
    const auto hist = ds.class_histogram(share);
    for (std::size_t count : hist) {
      EXPECT_GE(count, 8u);   // 100 samples / 10 classes = 10 +/- rounding
      EXPECT_LE(count, 12u);
    }
  }
}

TEST(SizesIid, RespectsRequestedSizes) {
  const Dataset ds = make_ds();
  common::Rng rng(3);
  const std::vector<std::size_t> sizes = {10, 0, 250, 40};
  const Partition p = partition_with_sizes_iid(ds, sizes, rng);
  EXPECT_EQ(p.sizes(), sizes);
  expect_disjoint(p);
}

TEST(SizesIid, RejectsOversizedRequest) {
  const Dataset ds = make_ds(100);
  common::Rng rng(4);
  EXPECT_THROW((void)partition_with_sizes_iid(ds, {60, 60}, rng), std::invalid_argument);
}

TEST(GaussianSizes, SumsToTotalAndRespectsMin) {
  common::Rng rng(5);
  for (double ratio : {0.0, 0.2, 0.5, 1.0}) {
    const auto sizes = gaussian_sizes(2000, 20, ratio, rng, 5);
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 2000u);
    for (std::size_t s : sizes) EXPECT_GE(s, 5u);
  }
}

TEST(GaussianSizes, RatioControlsSpread) {
  common::Rng rng(6);
  const auto tight = gaussian_sizes(5000, 25, 0.05, rng);
  const auto loose = gaussian_sizes(5000, 25, 0.8, rng);
  auto spread = [](const std::vector<std::size_t>& v) {
    const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
    return *mx - *mn;
  };
  EXPECT_LT(spread(tight), spread(loose));
}

TEST(GaussianSizes, Validation) {
  common::Rng rng(7);
  EXPECT_THROW((void)gaussian_sizes(100, 0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW((void)gaussian_sizes(100, 4, -0.1, rng), std::invalid_argument);
}

TEST(NClass, EachUserHasExactlyNClasses) {
  const Dataset ds = make_ds(1000);
  common::Rng rng(8);
  for (std::size_t n : {2u, 4u, 8u}) {
    const Partition p = partition_nclass(ds, 10, n, rng);
    const auto sets = class_sets_of(p, ds);
    for (const auto& classes : sets) {
      EXPECT_LE(classes.size(), n);
      EXPECT_GE(classes.size(), 1u);  // proportions can zero out a class rarely
    }
    expect_disjoint(p);
  }
}

TEST(NClass, AllSamplesAssigned) {
  const Dataset ds = make_ds(1000);
  common::Rng rng(9);
  const Partition p = partition_nclass(ds, 10, 3, rng);
  EXPECT_EQ(p.total(), ds.size());
}

TEST(NClass, EveryClassCoveredWhenPossible) {
  const Dataset ds = make_ds(1000);
  common::Rng rng(10);
  const Partition p = partition_nclass(ds, 10, 4, rng);
  std::vector<bool> covered(10, false);
  for (const auto& share : p.user_indices) {
    for (std::size_t idx : share) covered[ds.label(idx)] = true;
  }
  for (bool c : covered) EXPECT_TRUE(c);
}

TEST(NClass, Validation) {
  const Dataset ds = make_ds(100);
  common::Rng rng(11);
  EXPECT_THROW((void)partition_nclass(ds, 5, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)partition_nclass(ds, 5, 11, rng), std::invalid_argument);
}

TEST(ByClassSets, HonorsClassRestriction) {
  const Dataset ds = make_ds(600);
  common::Rng rng(12);
  const std::vector<std::vector<std::uint16_t>> sets = {{0, 1}, {5}, {2, 3, 4}};
  const Partition p = partition_by_class_sets(ds, sets, {40, 30, 60}, rng);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto hist = ds.class_histogram(p.user_indices[u]);
    for (std::size_t c = 0; c < 10; ++c) {
      const bool allowed =
          std::find(sets[u].begin(), sets[u].end(), c) != sets[u].end();
      if (!allowed) {
        EXPECT_EQ(hist[c], 0u) << "user " << u << " class " << c;
      }
    }
  }
  EXPECT_EQ(p.sizes(), (std::vector<std::size_t>{40, 30, 60}));
  expect_disjoint(p);
}

TEST(ByClassSets, SharedPoolDepletesGracefully) {
  // 60 samples per class; two users both want class 0 heavily.
  const Dataset ds = make_ds(600);
  common::Rng rng(13);
  const std::vector<std::vector<std::uint16_t>> sets = {{0}, {0}};
  const Partition p = partition_by_class_sets(ds, sets, {50, 50}, rng);
  EXPECT_EQ(p.user_indices[0].size(), 50u);
  EXPECT_EQ(p.user_indices[1].size(), 10u);  // pool ran dry
  expect_disjoint(p);
}

TEST(ByClassSets, EmptySetWithZeroSizeAllowed) {
  const Dataset ds = make_ds(100);
  common::Rng rng(14);
  const Partition p = partition_by_class_sets(ds, {{}, {1}}, {0, 5}, rng);
  EXPECT_TRUE(p.user_indices[0].empty());
  EXPECT_EQ(p.user_indices[1].size(), 5u);
}

TEST(ByClassSets, EmptySetWithPositiveSizeRejected) {
  const Dataset ds = make_ds(100);
  common::Rng rng(15);
  EXPECT_THROW((void)partition_by_class_sets(ds, {{}}, {5}, rng),
               std::invalid_argument);
}

TEST(ByClassSets, MismatchedLengthsRejected) {
  const Dataset ds = make_ds(100);
  common::Rng rng(16);
  EXPECT_THROW((void)partition_by_class_sets(ds, {{1}}, {5, 5}, rng),
               std::invalid_argument);
}

TEST(ProportionalSizes, ExactTotalAndProportions) {
  const auto sizes = proportional_sizes(100, {1.0, 3.0});
  EXPECT_EQ(sizes[0] + sizes[1], 100u);
  EXPECT_EQ(sizes[0], 25u);
  EXPECT_EQ(sizes[1], 75u);
}

TEST(ProportionalSizes, RemainderGoesToLargestWeight) {
  const auto sizes = proportional_sizes(10, {1.0, 1.0, 1.0});
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 10u);
}

TEST(ProportionalSizes, Validation) {
  EXPECT_THROW((void)proportional_sizes(10, {}), std::invalid_argument);
  EXPECT_THROW((void)proportional_sizes(10, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)proportional_sizes(10, {-1.0, 2.0}), std::invalid_argument);
}

TEST(ClassSetsOf, MatchesHistogram) {
  const Dataset ds = make_ds(200);
  common::Rng rng(17);
  const std::vector<std::vector<std::uint16_t>> sets = {{7, 8, 9}};
  const Partition p = partition_by_class_sets(ds, sets, {30}, rng);
  const auto derived = class_sets_of(p, ds);
  EXPECT_EQ(derived[0], (std::vector<std::uint16_t>{7, 8, 9}));
}

}  // namespace
}  // namespace fedsched::data
