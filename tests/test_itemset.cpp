// Unit tests for itemset primitives and the FrequentItemsets result type.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "engine/bytes_of.h"
#include "fim/itemset.h"
#include "fim/result.h"
#include "util/canon_hash.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

TEST(Itemset, IsCanonical) {
  EXPECT_TRUE(is_canonical({}));
  EXPECT_TRUE(is_canonical({5}));
  EXPECT_TRUE(is_canonical({1, 2, 9}));
  EXPECT_FALSE(is_canonical({2, 1}));
  EXPECT_FALSE(is_canonical({1, 1}));
}

TEST(Itemset, Canonicalize) {
  Itemset s{5, 1, 5, 3, 1};
  canonicalize(s);
  EXPECT_EQ(s, (Itemset{1, 3, 5}));
}

TEST(Itemset, ContainsAll) {
  const Transaction t{1, 3, 5, 7, 9};
  EXPECT_TRUE(contains_all(t, {}));
  EXPECT_TRUE(contains_all(t, {1}));
  EXPECT_TRUE(contains_all(t, {3, 7}));
  EXPECT_TRUE(contains_all(t, {1, 3, 5, 7, 9}));
  EXPECT_FALSE(contains_all(t, {2}));
  EXPECT_FALSE(contains_all(t, {1, 2}));
  EXPECT_FALSE(contains_all(t, {9, 10}));
  EXPECT_FALSE(contains_all({}, {1}));
}

TEST(Itemset, ContainsAllMatchesBruteForce) {
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    Transaction t;
    Itemset s;
    for (int i = 0; i < 12; ++i) {
      if (rng.bernoulli(0.5)) t.push_back(i);
      if (rng.bernoulli(0.25)) s.push_back(i);
    }
    bool expected = true;
    for (Item x : s) {
      if (std::find(t.begin(), t.end(), x) == t.end()) expected = false;
    }
    EXPECT_EQ(contains_all(t, s), expected);
  }
}

TEST(Itemset, ToString) {
  EXPECT_EQ(to_string({}), "{}");
  EXPECT_EQ(to_string({4}), "{4}");
  EXPECT_EQ(to_string({1, 2, 3}), "{1, 2, 3}");
}

TEST(ItemsetHash, StableAndSpread) {
  const ItemsetHash h;
  EXPECT_EQ(h({1, 2, 3}), h({1, 2, 3}));
  EXPECT_NE(h({1, 2, 3}), h({1, 2, 4}));
  EXPECT_NE(h({1, 2}), h({2, 1}));  // order-sensitive (canonical inputs)
  EXPECT_NE(h({}), h({0}));
  // Size-sensitivity: {0} vs {0,0} style degenerate collisions avoided.
  EXPECT_NE(h({0}), h({0, 0}));
}

/// Both ends of the item range and a seeded spread between them.
std::vector<Item> wire_items() {
  std::vector<Item> items{0, 1, 0xFFFFFFFFu};
  Rng rng(28);
  for (int i = 0; i < 256; ++i) items.push_back(static_cast<Item>(rng.next()));
  return items;
}

static_assert(util::is_canon_hashable_v<std::pair<Singleton, u64>>);
static_assert(engine::detail::is_spillable_v<std::pair<Singleton, u64>>);

TEST(Singleton, PartitionsLikeItsOneItemItemset) {
  for (const Item i : wire_items()) {
    EXPECT_EQ(SingletonHash{}(Singleton{i}), ItemsetHash{}(Itemset{i})) << i;
  }
}

TEST(Singleton, PricedAndCanonHashedLikeItsOneItemItemset) {
  for (const Item i : wire_items()) {
    const std::pair<Singleton, u64> key_pair(Singleton{i}, 41);
    const std::pair<Itemset, u64> itemset_pair(Itemset{i}, 41);
    EXPECT_EQ(engine::byte_size(Singleton{i}), 12u);
    EXPECT_EQ(engine::byte_size(Singleton{i}), engine::byte_size(Itemset{i}));
    EXPECT_EQ(engine::byte_size(key_pair), engine::byte_size(itemset_pair));
    EXPECT_EQ(engine::byte_size(std::vector<Singleton>(3, Singleton{i})),
              engine::byte_size(std::vector<Itemset>(3, Itemset{i})));
    EXPECT_EQ(util::canon_hash_value(Singleton{i}),
              util::canon_hash_value(Itemset{i}));
    EXPECT_EQ(util::canon_hash_value(key_pair),
              util::canon_hash_value(itemset_pair));
  }
}

TEST(Singleton, SpillsAsItsOneItemItemset) {
  for (const Item i : wire_items()) {
    const std::pair<Singleton, u64> key_pair(Singleton{i}, 41);
    std::vector<u8> key_bytes, itemset_bytes;
    engine::detail::spill_put(key_bytes, key_pair);
    engine::detail::spill_put(itemset_bytes,
                              std::pair<Itemset, u64>(Itemset{i}, 41));
    EXPECT_EQ(key_bytes, itemset_bytes) << i;
    EXPECT_EQ(key_bytes.size(), engine::byte_size(key_pair));

    std::pair<Singleton, u64> back;
    size_t pos = 0;
    engine::detail::spill_get(std::span<const u8>(key_bytes), pos, back);
    EXPECT_EQ(pos, key_bytes.size());
    EXPECT_EQ(back, key_pair);
  }
}

TEST(FrequentItemsets, AddAndLookup) {
  FrequentItemsets fi(10, 100);
  fi.add({3}, 50);
  fi.add({1, 2}, 20);
  fi.add({1, 2, 3}, 12);
  EXPECT_EQ(fi.min_support_count(), 10u);
  EXPECT_EQ(fi.num_transactions(), 100u);
  EXPECT_EQ(fi.max_k(), 3u);
  EXPECT_EQ(fi.total(), 3u);
  EXPECT_EQ(fi.support_of({1, 2}), 20u);
  EXPECT_EQ(fi.support_of({9}), 0u);
  EXPECT_EQ(fi.support_of({}), 0u);
  EXPECT_TRUE(fi.contains({3}));
  EXPECT_FALSE(fi.contains({2, 3}));
  EXPECT_EQ(fi.level(2).size(), 1u);
  EXPECT_TRUE(fi.level(7).empty());
}

TEST(FrequentItemsets, DuplicateAddWithSameSupportIsIdempotent) {
  FrequentItemsets fi(1, 10);
  fi.add({1}, 5);
  fi.add({1}, 5);
  EXPECT_EQ(fi.total(), 1u);
}

TEST(FrequentItemsets, ConflictingSupportAborts) {
  FrequentItemsets fi(1, 10);
  fi.add({1}, 5);
  EXPECT_DEATH(fi.add({1}, 6), "conflicting supports");
}

TEST(FrequentItemsets, SortedIsDeterministic) {
  FrequentItemsets fi(1, 10);
  fi.add({2, 5}, 3);
  fi.add({9}, 8);
  fi.add({1, 7}, 4);
  fi.add({2}, 9);
  const auto sorted = fi.sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].first, (Itemset{2}));
  EXPECT_EQ(sorted[1].first, (Itemset{9}));
  EXPECT_EQ(sorted[2].first, (Itemset{1, 7}));
  EXPECT_EQ(sorted[3].first, (Itemset{2, 5}));
}

TEST(FrequentItemsets, SameItemsetsComparison) {
  FrequentItemsets a(1, 10), b(1, 10), c(1, 10);
  a.add({1}, 5);
  a.add({1, 2}, 3);
  b.add({1, 2}, 3);
  b.add({1}, 5);
  c.add({1}, 5);
  EXPECT_TRUE(a.same_itemsets(b));
  EXPECT_FALSE(a.same_itemsets(c));
  // Different support, same sets:
  FrequentItemsets d(1, 10);
  d.add({1}, 6);
  d.add({1, 2}, 3);
  EXPECT_FALSE(a.same_itemsets(d));
}

TEST(MiningRun, TotalSecondsSumsPassesAndSetup) {
  MiningRun run;
  run.setup_seconds = 1.5;
  run.passes.push_back(PassStats{1, 10, 5, 2.0});
  run.passes.push_back(PassStats{2, 20, 4, 3.0});
  EXPECT_DOUBLE_EQ(run.total_seconds(), 6.5);
}

}  // namespace
}  // namespace yafim::fim
