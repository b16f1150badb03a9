// Unit tests for the vertical bitmap index (fim/bitmap.h): the word-level
// AND+popcount kernel, support agreement with brute-force containment
// scans, and the sparse item-id fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "fim/bitmap.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

std::vector<Transaction> random_transactions(u32 universe, int n,
                                             double density, u64 seed) {
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < n; ++i) {
    Transaction t;
    for (u32 item = 0; item < universe; ++item) {
      if (rng.bernoulli(density)) t.push_back(item);
    }
    tx.push_back(std::move(t));
  }
  return tx;
}

/// Items [0, n), the index rows of a universe of n items.
std::vector<Item> first_items(u32 n) {
  std::vector<Item> items(n);
  for (u32 i = 0; i < n; ++i) items[i] = i;
  return items;
}

u64 brute_support(const std::vector<Transaction>& tx, const Itemset& c) {
  u64 count = 0;
  for (const Transaction& t : tx) {
    if (std::includes(t.begin(), t.end(), c.begin(), c.end())) ++count;
  }
  return count;
}

TEST(AndPopcount, MatchesScalarReference) {
  Rng rng(3);
  for (u32 nwords : {1u, 2u, 7u}) {
    std::vector<u64> a(nwords), b(nwords), c(nwords);
    for (u32 w = 0; w < nwords; ++w) {
      a[w] = rng.next();
      b[w] = rng.next();
      c[w] = rng.next();
    }
    const u64* rows[3] = {a.data(), b.data(), c.data()};
    u64 expected = 0;
    for (u32 w = 0; w < nwords; ++w) {
      expected += static_cast<u64>(std::popcount(a[w] & b[w] & c[w]));
    }
    EXPECT_EQ(and_popcount(rows, 3, nwords), expected) << nwords;
    // k = 1 degenerates to a plain popcount of the first row.
    u64 first = 0;
    for (u64 w : a) first += static_cast<u64>(std::popcount(w));
    EXPECT_EQ(and_popcount(rows, 1, nwords), first);
  }
}

TEST(VerticalBitmapIndex, EmptyPartition) {
  const std::vector<Transaction> none;
  VerticalBitmapIndex index(none, {});
  EXPECT_EQ(index.num_transactions(), 0u);
  EXPECT_EQ(index.num_items(), 0u);
  EXPECT_EQ(index.row(5), nullptr);
  const Item items[] = {5};
  EXPECT_EQ(index.support(items, 1), 0u);
}

TEST(VerticalBitmapIndex, SupportMatchesBruteForce) {
  const auto tx = random_transactions(24, 130, 0.3, 11);
  VerticalBitmapIndex index(tx, first_items(24));
  EXPECT_EQ(index.num_transactions(), tx.size());
  EXPECT_EQ(index.words_per_row(), (tx.size() + 63) / 64);
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    Itemset c;
    const u32 k = 1 + static_cast<u32>(rng.below(4));
    while (c.size() < k) {
      const Item item = static_cast<Item>(rng.below(26));  // incl. absent ids
      if (std::find(c.begin(), c.end(), item) == c.end()) c.push_back(item);
    }
    canonicalize(c);
    EXPECT_EQ(index.support(c.data(), k), brute_support(tx, c)) << trial;
  }
}

TEST(VerticalBitmapIndex, CountCandidatesMatchesPerCandidateSupport) {
  const auto tx = random_transactions(20, 90, 0.35, 5);
  VerticalBitmapIndex index(tx, first_items(12));
  std::vector<Itemset> candidates;
  for (u32 a = 0; a < 12; ++a) {
    for (u32 b = a + 1; b < 12; ++b) candidates.push_back({a, b});
  }
  const ItemsetRows rows = to_rows(candidates);
  std::vector<u64> cells(rows.size() + 3, 7);  // accumulates on top
  // Ids from 3: the level's cells start at its id offset.
  index.count_candidates(LevelView::of(rows, 3), cells.data());
  for (u32 ci = 0; ci < 3; ++ci) EXPECT_EQ(cells[ci], 7u) << ci;
  for (u32 ci = 0; ci < rows.size(); ++ci) {
    EXPECT_EQ(cells[3 + ci], 7 + brute_support(tx, candidates[ci])) << ci;
  }
}

TEST(VerticalBitmapIndex, SparseItemIdsBeyondDenseLimit) {
  // Ids past the dense direct-index limit exercise the sorted fallback map.
  const Item huge_a = (1u << 20) + 17, huge_b = (1u << 24) + 3;
  std::vector<Transaction> tx = {
      {1, huge_a}, {1, huge_a, huge_b}, {huge_b}, {1}};
  VerticalBitmapIndex index(tx, {1, huge_a, huge_b});
  EXPECT_EQ(index.num_items(), 3u);
  const Item single[] = {huge_a};
  EXPECT_EQ(index.support(single, 1), 2u);
  const Item pair[] = {huge_a, huge_b};
  EXPECT_EQ(index.support(pair, 2), 1u);
  const Item mixed[] = {1, huge_b};
  EXPECT_EQ(index.support(mixed, 2), 1u);
  const Item absent[] = {(1u << 22)};
  EXPECT_EQ(index.support(absent, 1), 0u);
  EXPECT_GT(index.bytes(), 0u);
}

}  // namespace
}  // namespace yafim::fim
