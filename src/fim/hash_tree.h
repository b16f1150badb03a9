// The candidate hash tree of Agrawal & Srikant's Apriori, which the paper
// builds over Ck and broadcasts to all workers each iteration to speed up
// subset(Ck, t) (Fig. 2, Algorithm 3).
//
// Interior nodes at depth d hash a transaction item (item % branching) to a
// child; leaves hold buckets of candidate ids. Enumerating the candidates
// contained in a transaction walks every path the transaction's items can
// take and containment-checks the reached leaves, visiting each leaf at most
// once per transaction (stamp-based dedup in Probe).
//
// Storage is arena-allocated and index-linked: four contiguous arrays --
// fixed-size Node records, a leaf-bucket arena, an interior-child arena, and
// the candidate rows (ItemsetRows: all candidates are size k, so candidate
// ci's items live at [ci*k, (ci+1)*k) with no per-itemset vector header). A
// probe therefore never chases a heap pointer: every hop is an index into one
// of the four arrays, and the broadcast payload is four flat buffers instead
// of a node-count's worth of small allocations.
//
// The shape is a function of the candidates alone: a node at depth d is
// interior exactly when more than leaf_capacity candidates route to it and
// d < k (the shape the classic insert-and-split loop grows). The constructor
// builds it breadth-first over one candidate-id array: each interior node
// stably counting-sorts its run of ids by child slot, so every child's
// candidates form a contiguous sub-run. Each leaf's bucket is thus an
// ascending run of that array, which becomes the bucket arena as is. Nodes
// (and leaf ids) are numbered breadth-first, siblings in slot order.
#pragma once

#include <span>
#include <vector>

#include "engine/work.h"
#include "fim/itemset.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {

/// How the per-pass counting stage keys its shuffle (shared by both
/// miners; see DESIGN "counting data structures"). The yafim and mrapriori
/// checkpoint fingerprints fold in the ordinal, so the values are fixed.
enum class CountMode {
  /// Paper-faithful: shuffle keyed on full Itemset vectors.
  kItemsetKey = 0,
  /// Dense, kernel chosen per task: count into fixed-width arrays indexed
  /// by candidate id (row index + the level's batch-global id offset) and
  /// materialize itemsets only for MinSup survivors. The batch ships as its
  /// DenseKernel -- a pair batch's item list, else a prefix trie per level
  /// -- which each task walks until the bitmap kernel's exact price for the
  /// rows left undercuts the walk's pace (fim/count_core.h count_rows).
  /// No hash tree is built, not even for the no-hash-tree ablation; the
  /// partitioned store ships the DenseKernels of first-item slices.
  kCandidateId = 1,
};

inline const char* count_mode_name(CountMode mode) {
  switch (mode) {
    case CountMode::kItemsetKey: return "itemset_key";
    case CountMode::kCandidateId: return "candidate_id";
  }
  return "unknown";
}

/// How the per-pass candidates reach the workers (shared by both miners;
/// see DESIGN "Memory model & graceful degradation", fim/count_core.h
/// ship_batch).
enum class BroadcastMode {
  /// Ship the batch whole while its payload -- the DenseKernel under
  /// kCandidateId, else the hash trees -- fits the executor-memory budget
  /// (engine::MemoryBudget); degrade to the partitioned candidate store
  /// when it would not.
  kAuto,
  /// Always ship the whole payload. An over-budget payload keeps the
  /// linter's YL002 *error* semantics -- the pre-degradation behavior, and
  /// the CI beyond-memory lane's negative control.
  kFull,
  /// Always use the partitioned candidate store, budget or not.
  kPartitioned,
};

inline const char* broadcast_mode_name(BroadcastMode mode) {
  switch (mode) {
    case BroadcastMode::kAuto: return "auto";
    case BroadcastMode::kFull: return "full";
    case BroadcastMode::kPartitioned: return "partitioned";
  }
  return "unknown";
}

/// Deterministic hash for dense candidate ids (std::hash<u32> is
/// implementation-defined; shuffle partitioning must not depend on it).
struct DenseIdHash {
  size_t operator()(u32 id) const {
    return static_cast<size_t>(mix64(u64{id} + 0x9e3779b97f4a7c15ULL));
  }
};

class HashTree {
 public:
  /// Takes ownership of `candidates`, canonical rows of size k >= 1;
  /// candidate ids are row indices. `branching` is the interior fan-out (0 =
  /// auto-size from the candidate count, see default_branching());
  /// `leaf_capacity` the most candidates a leaf above depth k holds.
  HashTree(ItemsetRows candidates, u32 branching, u32 leaf_capacity);

  /// The same tree over owning itemsets, flattened with to_rows().
  explicit HashTree(std::vector<Itemset> candidates, u32 branching = 0,
                    u32 leaf_capacity = 16);

  /// Fan-out that keeps depth-k leaves near leaf-capacity occupancy:
  /// roughly 2 * n^(1/k), clamped to [8, 1024]. With a fixed small fan-out
  /// a large C2 degenerates to huge leaves that every probe has to scan.
  static u32 default_branching(u64 num_candidates, u32 k);

  u32 k() const { return rows_.width; }
  u32 size() const { return size_; }
  u32 num_leaves() const { return num_leaves_; }
  u32 num_nodes() const { return static_cast<u32>(nodes_.size()); }

  /// The candidates: row `ci` is candidate ci's k() items in the flat item
  /// arena. A LevelView reads them (fim/itemset.h).
  const ItemsetRows& rows() const { return rows_; }

  /// Batch-global id base for this tree's candidates: when several levels
  /// are counted in one pass (PassCombining), tree-local index `ci` maps
  /// to global id `id_offset() + ci` in the shared counting array.
  u64 id_offset() const { return id_offset_; }
  void set_id_offset(u64 offset) { id_offset_ = offset; }

  /// Assign consecutive id ranges to a batch of trees (offset of tree i =
  /// sum of sizes of trees 0..i-1) and return the total id-space width.
  static u64 assign_id_offsets(std::vector<HashTree>& trees) {
    u64 offset = 0;
    for (HashTree& tree : trees) {
      tree.set_id_offset(offset);
      offset += tree.size();
    }
    return offset;
  }

  /// Estimated wire size when broadcast to workers (candidate payload plus
  /// node structure), of this tree or of a batch of trees.
  u64 serialized_bytes() const;
  static u64 serialized_bytes(const std::vector<HashTree>& trees);

  /// Arena introspection (tests): every candidate id sits in exactly one
  /// leaf bucket, so the bucket arena holds exactly size() slots; the child
  /// arena holds branching() slots per interior node.
  u32 bucket_arena_size() const { return static_cast<u32>(bucket_arena_.size()); }
  u32 child_arena_size() const { return static_cast<u32>(child_arena_.size()); }
  u32 branching() const { return branching_; }

  /// Shape introspection (tests): fn(depth, leaf, below, bucket) for every
  /// node, children before parents, where `below` counts the candidates
  /// routed to the node and `bucket` is a leaf's candidate ids (empty for
  /// interior nodes).
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    visit(kRoot, 0, fn);
  }

  /// Per-thread scratch for containment enumeration. Reusable across
  /// probes and across trees; never share one Probe between threads.
  /// The visit counters are probe-local running totals, flushed to the obs
  /// counter registry once per probed transaction (one relaxed atomic add
  /// instead of one per node) when tracing is enabled.
  struct Probe {
    std::vector<u64> leaf_stamp;
    u64 counter = 0;
    u64 nodes_visited = 0;
    u64 candidate_checks = 0;
  };

  /// Invoke fn(candidate_id) once for every candidate contained in `t`.
  /// Adds engine work units for every node visit and candidate check, so
  /// stage task costs reflect real probe effort.
  template <typename Fn>
  void for_each_contained(const Transaction& t, Probe& probe, Fn&& fn) const {
    if (size_ == 0 || t.size() < rows_.width) return;
    ++probe.counter;
    if (probe.leaf_stamp.size() < num_leaves_) {
      probe.leaf_stamp.resize(num_leaves_, 0);
    }
    const u64 nodes_before = probe.nodes_visited;
    const u64 checks_before = probe.candidate_checks;
    walk(kRoot, t, 0, 0, probe, fn);
    if (obs::enabled()) {
      obs::count(obs::CounterId::kHashTreeNodesVisited,
                 probe.nodes_visited - nodes_before);
      obs::count(obs::CounterId::kHashTreeCandChecks,
                 probe.candidate_checks - checks_before);
    }
  }

  /// Reference containment enumeration without the tree (linear scan over
  /// all candidates); the property tests check the tree against this.
  template <typename Fn>
  void for_each_contained_linear(const Transaction& t, Fn&& fn) const {
    for (u32 i = 0; i < size_; ++i) {
      engine::work::add(1);
      if (contains_candidate(t, i)) fn(i);
    }
    obs::count(obs::CounterId::kHashTreeCandChecks, size_);
  }

 private:
  static constexpr u32 kNone = 0xffffffffu;
  static constexpr u32 kRoot = 0;

  /// Flat arena node: 12 bytes, no owned memory. Leaves (leaf_id != kNone)
  /// index `count` bucket slots starting at bucket_arena_[first]; interior
  /// nodes index branching_ child slots starting at child_arena_[first].
  struct Node {
    u32 first = 0;
    u32 count = 0;
    u32 leaf_id = kNone;
  };

  u32 child_slot(Item item) const { return item % branching_; }

  /// Lay out nodes_, bucket_arena_ and child_arena_ over rows_ (see the
  /// header comment).
  void build();

  template <typename Fn>
  u32 visit(u32 node_idx, u32 depth, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    if (node.leaf_id != kNone) {
      fn(depth, true, node.count,
         std::span<const u32>(bucket_arena_.data() + node.first, node.count));
      return node.count;
    }
    u32 below = 0;
    for (u32 slot = 0; slot < branching_; ++slot) {
      const u32 child = child_arena_[node.first + slot];
      if (child != kNone) below += visit(child, depth + 1, fn);
    }
    fn(depth, false, below, std::span<const u32>());
    return below;
  }

  /// contains_all() against the item arena: linear merge of the (canonical)
  /// transaction and candidate `ci`'s k-item run.
  bool contains_candidate(const Transaction& t, u32 ci) const {
    const Item* c = rows_.row(ci);
    size_t ti = 0;
    for (u32 j = 0; j < rows_.width; ++j) {
      while (ti < t.size() && t[ti] < c[j]) ++ti;
      if (ti == t.size() || t[ti] != c[j]) return false;
      ++ti;
    }
    return true;
  }

  template <typename Fn>
  void walk(u32 node_idx, const Transaction& t, size_t pos, u32 depth,
            Probe& probe, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    engine::work::add(1);
    ++probe.nodes_visited;
    if (node.leaf_id != kNone) {
      if (probe.leaf_stamp[node.leaf_id] == probe.counter) return;
      probe.leaf_stamp[node.leaf_id] = probe.counter;
      const u32* bucket = bucket_arena_.data() + node.first;
      for (u32 b = 0; b < node.count; ++b) {
        engine::work::add(1);
        ++probe.candidate_checks;
        if (contains_candidate(t, bucket[b])) fn(bucket[b]);
      }
      return;
    }
    // Choose the next transaction item; keep enough items in reserve to
    // complete a k-path (candidates have exactly k items).
    const size_t remaining_needed = rows_.width - depth;
    const u32* children = child_arena_.data() + node.first;
    for (size_t i = pos; i + remaining_needed <= t.size(); ++i) {
      const u32 child = children[child_slot(t[i])];
      if (child != kNone) walk(child, t, i + 1, depth + 1, probe, fn);
    }
  }

  /// Candidate items, one k-item row per candidate id.
  ItemsetRows rows_;
  /// Leaf buckets, concatenated in node order; exactly one slot per
  /// candidate.
  std::vector<u32> bucket_arena_;
  /// Interior child tables, concatenated; branching_ slots per interior.
  std::vector<u32> child_arena_;
  std::vector<Node> nodes_;
  u64 id_offset_ = 0;
  u32 size_ = 0;
  u32 branching_ = 8;
  u32 leaf_capacity_ = 16;
  u32 num_leaves_ = 0;
};

}  // namespace yafim::fim
