// Unit + property tests for the candidate hash tree. The central property:
// for_each_contained() must report exactly the candidates a linear
// containment scan reports -- once each -- for every (candidates,
// transaction) combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <span>

#include "fim/candidate_gen.h"
#include "fim/hash_tree.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

std::multiset<u32> probe_tree(const HashTree& tree, const Transaction& t,
                              HashTree::Probe& probe) {
  std::multiset<u32> hits;
  tree.for_each_contained(t, probe, [&](u32 ci) { hits.insert(ci); });
  return hits;
}

std::multiset<u32> probe_linear(const HashTree& tree, const Transaction& t) {
  std::multiset<u32> hits;
  tree.for_each_contained_linear(t, [&](u32 ci) { hits.insert(ci); });
  return hits;
}

TEST(HashTree, EmptyCandidates) {
  HashTree tree({});
  EXPECT_EQ(tree.size(), 0u);
  HashTree::Probe probe;
  EXPECT_TRUE(probe_tree(tree, {1, 2, 3}, probe).empty());
}

TEST(HashTree, SingleCandidate) {
  HashTree tree({{2, 5}});
  EXPECT_EQ(tree.k(), 2u);
  HashTree::Probe probe;
  EXPECT_EQ(probe_tree(tree, {1, 2, 5, 9}, probe), (std::multiset<u32>{0}));
  EXPECT_TRUE(probe_tree(tree, {2, 4}, probe).empty());
  EXPECT_TRUE(probe_tree(tree, {5}, probe).empty());  // shorter than k
}

TEST(HashTree, CandidateAccessors) {
  HashTree tree({{1, 2}, {3, 4}});
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.candidate(0), (Itemset{1, 2}));
  EXPECT_EQ(tree.candidate(1), (Itemset{3, 4}));
  EXPECT_EQ(tree.candidates().size(), 2u);
  EXPECT_GT(tree.serialized_bytes(), 0u);
  EXPECT_GE(tree.num_leaves(), 1u);
  EXPECT_GE(tree.num_nodes(), tree.num_leaves());
}

TEST(HashTree, SplitsUnderLoad) {
  // 100 candidates with tiny leaves forces interior structure.
  std::vector<Itemset> candidates;
  for (u32 a = 0; a < 10; ++a) {
    for (u32 b = 10; b < 20; ++b) candidates.push_back({a, b});
  }
  HashTree tree(candidates, /*branching=*/4, /*leaf_capacity=*/2);
  EXPECT_GT(tree.num_nodes(), tree.num_leaves());

  HashTree::Probe probe;
  const Transaction t{0, 1, 11, 12};
  const auto hits = probe_tree(tree, t, probe);
  EXPECT_EQ(hits, probe_linear(tree, t));
  EXPECT_EQ(hits.size(), 4u);  // {0,11},{0,12},{1,11},{1,12}
}

TEST(HashTree, NoDuplicateReportsWhenHashesCollide) {
  // Items 3 and 11 collide mod 8; both paths reach the same leaves.
  std::vector<Itemset> candidates{{3, 11}, {3, 19}, {11, 19}};
  HashTree tree(candidates, /*branching=*/8, /*leaf_capacity=*/1);
  HashTree::Probe probe;
  const auto hits = probe_tree(tree, {3, 11, 19}, probe);
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_EQ(std::set<u32>(hits.begin(), hits.end()).size(), 3u);
}

TEST(HashTree, ProbeReusableAcrossTransactionsAndTrees) {
  HashTree tree_a({{1, 2}, {2, 3}});
  HashTree tree_b({{1, 2, 3}, {2, 3, 4}});
  HashTree::Probe probe;
  EXPECT_EQ(probe_tree(tree_a, {1, 2, 3}, probe).size(), 2u);
  EXPECT_EQ(probe_tree(tree_b, {1, 2, 3}, probe).size(), 1u);
  EXPECT_EQ(probe_tree(tree_a, {2, 3}, probe).size(), 1u);
  EXPECT_EQ(probe_tree(tree_b, {2, 3, 4, 9}, probe).size(), 1u);
}

// ---- arena / flat-node layout -------------------------------------------

TEST(HashTree, ArenaEmptyCandidateBatch) {
  HashTree tree({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.bucket_arena_size(), 0u);
  EXPECT_EQ(tree.child_arena_size(), 0u);
  EXPECT_EQ(tree.num_nodes(), 1u);  // the root, an empty leaf
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_TRUE(tree.candidates().empty());
  // Header-only wire size: no candidates, one bucket-less leaf node.
  EXPECT_EQ(tree.serialized_bytes(), 16u + 8u);
}

TEST(HashTree, ArenaHoldsEveryCandidateExactlyOnce) {
  std::vector<Itemset> candidates;
  for (u32 a = 0; a < 12; ++a) {
    for (u32 b = 12; b < 24; ++b) candidates.push_back({a, b});
  }
  HashTree tree(candidates, /*branching=*/4, /*leaf_capacity=*/3);
  // One bucket slot per candidate, branching slots per interior node.
  EXPECT_EQ(tree.bucket_arena_size(), tree.size());
  EXPECT_EQ(tree.child_arena_size(),
            (tree.num_nodes() - tree.num_leaves()) * tree.branching());
  // The item arena round-trips every candidate in insertion order.
  for (u32 ci = 0; ci < tree.size(); ++ci) {
    EXPECT_EQ(tree.candidate(ci), candidates[ci]) << ci;
    const Item* items = tree.candidate_items(ci);
    for (u32 j = 0; j < tree.k(); ++j) EXPECT_EQ(items[j], candidates[ci][j]);
  }
}

TEST(HashTree, ArenaSingleBucketAdversarialHash) {
  // Every item congruent mod branching: all candidates hash down one path,
  // so splits never spread the load and depth-k leaves soak up everything.
  constexpr u32 kBranching = 8;
  std::vector<Itemset> candidates;
  for (u32 a = 0; a < 6; ++a) {
    for (u32 b = a + 1; b < 7; ++b) {
      candidates.push_back({a * kBranching, b * kBranching});
    }
  }
  HashTree tree(candidates, kBranching, /*leaf_capacity=*/2);
  EXPECT_EQ(tree.bucket_arena_size(), tree.size());

  // Probing still agrees with the linear scan under maximal collision.
  HashTree::Probe probe;
  Transaction t;
  for (u32 a = 0; a < 7; ++a) t.push_back(a * kBranching);
  EXPECT_EQ(probe_tree(tree, t, probe), probe_linear(tree, t));
  EXPECT_EQ(probe_tree(tree, t, probe).size(), candidates.size());
}

// ---- shape: rows vs itemsets, pinned to the insert-and-split builder -----

/// `n` distinct random canonical 3-itemsets over [0, 200), sorted.
std::vector<Itemset> random_3_itemsets(u32 n, u64 seed) {
  Rng rng(seed);
  std::set<Itemset> unique;
  while (unique.size() < n) {
    Itemset c;
    while (c.size() < 3) {
      const Item item = static_cast<Item>(rng.below(200));
      if (std::find(c.begin(), c.end(), item) == c.end()) c.push_back(item);
    }
    canonicalize(c);
    unique.insert(c);
  }
  return {unique.begin(), unique.end()};
}

/// Sizes recorded from the insert-and-split builder the partition build
/// replaced; pricing (serialized_bytes) and probe effort depend on them.
struct Shape {
  u32 nodes;
  u32 leaves;
  u32 children;
  u64 bytes;
};

/// The shape rule: a node at depth d is interior exactly when more than
/// `leaf_capacity` candidates route to it and d < k. Every candidate sits in
/// one leaf bucket, and buckets list ids in ascending order.
void expect_shape_rule(const HashTree& tree, u32 leaf_capacity) {
  std::vector<u32> seen(tree.size(), 0);
  tree.for_each_node([&](u32 depth, bool leaf, u32 below,
                         std::span<const u32> bucket) {
    if (!leaf) {
      EXPECT_LT(depth, tree.k());
      EXPECT_GT(below, leaf_capacity);
      return;
    }
    EXPECT_EQ(below, bucket.size());
    EXPECT_TRUE(depth == tree.k() || below <= leaf_capacity)
        << "depth=" << depth << " bucket=" << below;
    EXPECT_TRUE(std::adjacent_find(bucket.begin(), bucket.end(),
                                   std::greater_equal<u32>()) == bucket.end())
        << "bucket not ascending at depth " << depth;
    for (u32 ci : bucket) ++seen[ci];
  });
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1u),
            static_cast<std::ptrdiff_t>(tree.size()));
}

void expect_rows_and_itemsets_agree(const std::vector<Itemset>& candidates,
                                    u32 branching, u32 leaf_capacity,
                                    const Shape& shape) {
  const HashTree from_sets(candidates, branching, leaf_capacity);
  const HashTree from_rows(to_rows(candidates), branching, leaf_capacity);
  for (const HashTree* tree : {&from_sets, &from_rows}) {
    EXPECT_EQ(tree->size(), candidates.size());
    EXPECT_EQ(tree->num_nodes(), shape.nodes);
    EXPECT_EQ(tree->num_leaves(), shape.leaves);
    EXPECT_EQ(tree->bucket_arena_size(), candidates.size());
    EXPECT_EQ(tree->child_arena_size(), shape.children);
    EXPECT_EQ(tree->serialized_bytes(), shape.bytes);
    expect_shape_rule(*tree, leaf_capacity);
  }
  EXPECT_EQ(from_rows.candidates(), candidates);
}

TEST(HashTree, ShapeOfRandomThousand) {
  const auto candidates = random_3_itemsets(1000, 1);
  expect_rows_and_itemsets_agree(candidates, 0, 16, {392, 371, 420, 28832});
  expect_rows_and_itemsets_agree(candidates, 8, 4, {512, 439, 584, 30448});
}

TEST(HashTree, ShapeOfRandomHundredThousand) {
  const auto candidates = random_3_itemsets(100000, 2);
  expect_rows_and_itemsets_agree(candidates, 0, 16,
                                 {51368, 49160, 205344, 3632336});
  expect_rows_and_itemsets_agree(candidates, 8, 16,
                                 {585, 512, 584, 2407032});
}

TEST(HashTree, ShapeOfSingleBucketAdversarialHash) {
  std::vector<Itemset> candidates;
  for (u32 a = 0; a < 6; ++a) {
    for (u32 b = a + 1; b < 7; ++b) candidates.push_back({a * 8, b * 8});
  }
  expect_rows_and_itemsets_agree(candidates, 8, 2, {3, 1, 16, 524});
}

TEST(HashTree, ShapeOfEmptyBatch) {
  expect_rows_and_itemsets_agree({}, 0, 16, {1, 1, 0, 24});
  // Rows keep their width when empty; the tree is still one empty leaf.
  const HashTree tree(ItemsetRows{3, {}}, 0, 16);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.serialized_bytes(), 24u);
  HashTree::Probe probe;
  EXPECT_TRUE(probe_tree(tree, {1, 2, 3}, probe).empty());
}

TEST(HashTree, IdOffsetAssignmentAcrossBatches) {
  std::vector<HashTree> trees;
  trees.emplace_back(std::vector<Itemset>{{1, 2}, {2, 3}, {3, 4}});
  trees.emplace_back(std::vector<Itemset>{});  // empty level mid-batch
  trees.emplace_back(std::vector<Itemset>{{1, 2, 3}, {2, 3, 4}});
  const u64 id_space = HashTree::assign_id_offsets(trees);
  EXPECT_EQ(id_space, 5u);
  EXPECT_EQ(trees[0].id_offset(), 0u);
  EXPECT_EQ(trees[1].id_offset(), 3u);  // empty tree claims a zero-width range
  EXPECT_EQ(trees[2].id_offset(), 3u);
  // Global ids tile the space with no gaps or overlaps.
  std::set<u64> ids;
  for (const HashTree& tree : trees) {
    for (u32 ci = 0; ci < tree.size(); ++ci) {
      EXPECT_TRUE(ids.insert(tree.id_offset() + ci).second);
    }
  }
  EXPECT_EQ(ids.size(), id_space);
  EXPECT_EQ(*ids.rbegin() + 1, id_space);
}

TEST(HashTree, DefaultBranchingScalesWithCandidates) {
  EXPECT_EQ(HashTree::default_branching(0, 2), 8u);
  EXPECT_GE(HashTree::default_branching(50000, 2), 400u);
  EXPECT_LE(HashTree::default_branching(50000, 2), 1024u);
  EXPECT_EQ(HashTree::default_branching(100, 5), 8u);
  // Must stay within clamp bounds for extremes.
  EXPECT_EQ(HashTree::default_branching(u64{1} << 40, 1), 1024u);
}

TEST(HashTree, MixedSizeCandidatesAbort) {
  EXPECT_DEATH(HashTree({{1, 2}, {3}}), "equal size");
}

/// Property sweep over (k, branching, leaf_capacity, seed): tree probing
/// must agree with the linear scan on random candidate sets and random
/// transactions, with no duplicates.
class HashTreeSweep
    : public ::testing::TestWithParam<std::tuple<u32, u32, u32, u32>> {};

TEST_P(HashTreeSweep, AgreesWithLinearScan) {
  const auto [k, branching, leaf_capacity, seed] = GetParam();
  Rng rng(seed * 7919 + k);
  constexpr u32 kUniverse = 30;

  // Random candidate set of size-k itemsets (k = 1 only has `universe`
  // possible sets, so cap the target there).
  std::set<Itemset> unique;
  const u32 target =
      k == 1 ? 10 + static_cast<u32>(rng.below(15))
             : 20 + static_cast<u32>(rng.below(120));
  while (unique.size() < target) {
    Itemset c;
    while (c.size() < k) {
      const Item item = static_cast<Item>(rng.below(kUniverse));
      if (std::find(c.begin(), c.end(), item) == c.end()) c.push_back(item);
    }
    canonicalize(c);
    unique.insert(c);
  }
  HashTree tree(std::vector<Itemset>(unique.begin(), unique.end()), branching,
                leaf_capacity);
  const std::vector<TreeShard> shards =
      shard_hash_tree(tree, 3, branching, leaf_capacity);

  HashTree::Probe probe;
  for (int trial = 0; trial < 40; ++trial) {
    Transaction t;
    for (u32 item = 0; item < kUniverse; ++item) {
      if (rng.bernoulli(0.35)) t.push_back(item);
    }
    const auto tree_hits = probe_tree(tree, t, probe);
    const auto linear_hits = probe_linear(tree, t);
    ASSERT_EQ(tree_hits, linear_hits)
        << "k=" << k << " branching=" << branching << " leaf="
        << leaf_capacity << " trial=" << trial;
    // No duplicates: multiset == set size.
    EXPECT_EQ(tree_hits.size(),
              std::set<u32>(tree_hits.begin(), tree_hits.end()).size());

    // The partitioned store: each shard agrees with its own linear scan,
    // and the shards' hits, mapped to global ids, are the full tree's.
    std::multiset<u64> shard_hits;
    for (const TreeShard& shard : shards) {
      const auto hits = probe_tree(shard.tree, t, probe);
      ASSERT_EQ(hits, probe_linear(shard.tree, t)) << "trial=" << trial;
      for (u32 ci : hits) shard_hits.insert(shard.global_ids[ci]);
    }
    EXPECT_EQ(shard_hits,
              std::multiset<u64>(tree_hits.begin(), tree_hits.end()));
  }
  expect_shape_rule(tree, leaf_capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashTreeSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(2u, 3u, 8u),
                       ::testing::Values(1u, 4u, 64u),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace yafim::fim
