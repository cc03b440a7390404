// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the O(n log n) 2D chain decomposition: validity, exact chain
// counts on structured instances, and -- the central property -- count
// equality with the general Lemma 6 algorithm (Dilworth width) on random
// inputs with heavy tie/duplicate structure.

#include "core/chain_decomposition_2d.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/antichain.h"
#include "core/dominance.h"
#include "data/synthetic.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

TEST(ChainDecomposition2DTest, EmptySet) {
  EXPECT_EQ(MinimumChainDecomposition2D(PointSet()).NumChains(), 0u);
}

TEST(ChainDecomposition2DTest, SinglePoint) {
  const PointSet points({Point{1, 2}});
  const auto decomposition = MinimumChainDecomposition2D(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(ChainDecomposition2DTest, RejectsNon2D) {
  const PointSet points({Point{1, 2, 3}});
  EXPECT_DEATH(MinimumChainDecomposition2D(points), "");
}

TEST(ChainDecomposition2DTest, TotalOrderIsOneChain) {
  const PointSet points({Point{3, 3}, Point{1, 1}, Point{2, 2}});
  const auto decomposition = MinimumChainDecomposition2D(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(ChainDecomposition2DTest, AntichainIsAllSingletons) {
  const PointSet points({Point{0, 3}, Point{1, 2}, Point{2, 1}, Point{3, 0}});
  EXPECT_EQ(MinimumChainDecomposition2D(points).NumChains(), 4u);
}

TEST(ChainDecomposition2DTest, DuplicatesShareAChain) {
  const PointSet points({Point{1, 1}, Point{1, 1}, Point{1, 1}});
  const auto decomposition = MinimumChainDecomposition2D(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(ChainDecomposition2DTest, EqualXComparableByY) {
  // Same x: points are comparable, so they must form one chain.
  const PointSet points({Point{5, 1}, Point{5, 3}, Point{5, 2}});
  const auto decomposition = MinimumChainDecomposition2D(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(ChainDecomposition2DTest, EqualYComparableByX) {
  const PointSet points({Point{1, 5}, Point{3, 5}, Point{2, 5}});
  EXPECT_EQ(MinimumChainDecomposition2D(points).NumChains(), 1u);
}

TEST(ChainDecomposition2DTest, RecoversPlantedWidth) {
  for (const size_t w : {1u, 3u, 7u, 13u}) {
    ChainInstanceOptions options;
    options.num_chains = w;
    options.chain_length = 40;
    options.seed = w + 1;
    const ChainInstance instance = GenerateChainInstance(options);
    const auto decomposition =
        MinimumChainDecomposition2D(instance.data.points());
    EXPECT_EQ(decomposition.NumChains(), w);
    EXPECT_TRUE(
        ValidateChainDecomposition(instance.data.points(), decomposition));
  }
}

TEST(ChainDecomposition2DTest, MatchesLemma6CountOnRandomSets) {
  Rng rng(2027);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.UniformInt(60);
    const auto set = testing_util::RandomLabeledSet(rng, n, 2);
    const auto fast = MinimumChainDecomposition2D(set.points());
    EXPECT_TRUE(ValidateChainDecomposition(set.points(), fast));
    EXPECT_EQ(fast.NumChains(), DominanceWidth(set.points()))
        << "trial " << trial;
  }
}

TEST(ChainDecomposition2DTest, MatchesLemma6CountOnTiedGrids) {
  // Small integer grid: lots of equal coordinates and duplicates.
  Rng rng(2028);
  for (int trial = 0; trial < 60; ++trial) {
    PointSet points;
    const size_t n = 1 + rng.UniformInt(40);
    for (size_t i = 0; i < n; ++i) {
      points.Add(Point{static_cast<double>(rng.UniformInt(4)),
                       static_cast<double>(rng.UniformInt(4))});
    }
    const auto fast = MinimumChainDecomposition2D(points);
    EXPECT_TRUE(ValidateChainDecomposition(points, fast));
    EXPECT_EQ(fast.NumChains(), DominanceWidth(points)) << "trial " << trial;
  }
}

TEST(ChainDecomposition2DTest, LargeInstanceIsFast) {
  // 200k points would take the Lemma 6 path minutes; the 2D path must
  // handle it comfortably inside the test budget.
  Rng rng(2029);
  PointSet points;
  for (size_t i = 0; i < 200000; ++i) {
    points.Add(Point{rng.UniformDouble(), rng.UniformDouble()});
  }
  const auto decomposition = MinimumChainDecomposition2D(points);
  EXPECT_GT(decomposition.NumChains(), 0u);
  EXPECT_EQ(decomposition.TotalPoints(), points.size());
}

// The patience pass with its tails in a multimap keyed by tail y
// (upper_bound, then one step back, is the largest tail <= y). The
// sorted-vector pass must produce these chains exactly.
ChainDecomposition MultimapReference(const PointSet& points) {
  ChainDecomposition decomposition;
  std::multimap<double, size_t> tails;
  for (const size_t index : LexicographicOrder2D(points.points())) {
    const double y = points[index][1];
    auto it = tails.upper_bound(y);
    if (it == tails.begin()) {
      tails.emplace(y, decomposition.chains.size());
      decomposition.chains.push_back({index});
    } else {
      --it;
      const size_t chain = it->second;
      decomposition.chains[chain].push_back(index);
      tails.erase(it);
      tails.emplace(y, chain);
    }
  }
  return decomposition;
}

void ExpectSameChainsAsMultimap(const PointSet& points) {
  EXPECT_EQ(MinimumChainDecomposition2D(points).chains,
            MultimapReference(points).chains);
}

TEST(ChainDecomposition2DTest, RepeatedYMatchesMultimap) {
  // Points at an existing tail's y join that chain; equal points and
  // -0.0 beside 0.0 tie as one value.
  const PointSet points({Point{0, 2}, Point{1, 0}, Point{2, 1}, Point{2, 1},
                         Point{3, 0}, Point{3, 2}, Point{4, -0.0},
                         Point{4, 0.0}, Point{5, 1}});
  ExpectSameChainsAsMultimap(points);
  EXPECT_EQ(MinimumChainDecomposition2D(points).NumChains(),
            DominanceWidth(points));
}

TEST(ChainDecomposition2DTest, MatchesMultimapOnTiedGridsAndSignedZeros) {
  // Repeated y, coordinate-equal points, and -0.0 beside 0.0.
  Rng rng(2030);
  for (int trial = 0; trial < 200; ++trial) {
    PointSet points;
    const size_t n = 1 + rng.UniformInt(50);
    const size_t side = 1 + rng.UniformInt(5);
    for (size_t i = 0; i < n; ++i) {
      const auto coord = [&] {
        const double c = static_cast<double>(rng.UniformInt(side)) - 1.0;
        return c == 0.0 && rng.Bernoulli(0.5) ? -0.0 : c;
      };
      const double x = coord();
      points.Add(Point{x, coord()});
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    ExpectSameChainsAsMultimap(points);
  }
}

TEST(ChainDecomposition2DTest, MatchesMultimapOnRandomSets) {
  Rng rng(2031);
  for (int trial = 0; trial < 40; ++trial) {
    const auto set =
        testing_util::RandomLabeledSet(rng, 1 + rng.UniformInt(300), 2);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    ExpectSameChainsAsMultimap(set.points());
  }
}

}  // namespace
}  // namespace monoclass
