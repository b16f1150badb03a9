// The candidate-counting plan of the level-wise miners, once per substrate.
//
// Every Phase-II pass of the paper's Algorithm 3 does the same thing: ship
// Ck to the workers, count, filter. This module holds that plan so the
// miners only generate candidates and consume counts:
//
//   * CandidateBatch  -- one pass's candidate levels: sorted rows over one
//                        batch-global dense id space. Callers build it
//                        inside their own driver work::Scope, so candidate
//                        generation stays in their ap_gen stage.
//   * ship_batch      -- the batch's broadcast-or-shard decision, on the
//                        bytes that would ship (mr_apriori calls it too).
//   * count_batch     -- the RDD entry point (yafim, sampling, stream):
//                        ship_batch, then the cluster counting job,
//                        including the lineage recompute of uncached
//                        transactions.
//   * count_candidate_trees -- the same job over caller-built hash trees.
//   * the MapReduce jobs (mr_apriori, son): frequent items, and one job
//     counting a batch keyed by itemset or by candidate id.
//
// The counting job has three paths:
//   * kItemsetKey      -- paper-faithful: per-hit itemset copies keyed into
//                         a reduce_by_key shuffle over hash-tree probes.
//   * kCandidateId     -- dense per-partition u64 arrays indexed by
//                         batch-global candidate id, merged via
//                         sum_arrays_at_least, which returns only the MinSup
//                         survivors to the driver;
//                         each task walks its rows on the batch's
//                         DenseKernel (the pair matrix of a pair batch, else
//                         the candidate trie) until the bitmap kernel is
//                         cheaper (count_rows). The batch ships as the
//                         kernel's arrays; no hash tree is built.
//   * partitioned      -- either mode degrades here when its payload
//                         outgrows the executor budget: first-item ranges
//                         of the batch (split_first_items), each shipping
//                         its slices' DenseKernel, transactions routed to
//                         them. A pair batch counted by id never takes it.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "engine/rdd.h"
#include "fim/hash_tree.h"
#include "fim/itemset.h"
#include "mapreduce/job.h"
#include "sim/metrics.h"

namespace yafim::fim {

/// (itemset, support) -- the currency of every counting path.
using CountPair = std::pair<Itemset, u64>;

/// (item, support) -- Phase I's pair, on the wire exactly CountPair's for
/// the 1-itemset (fim/itemset.h Singleton).
using ItemCount = std::pair<Singleton, u64>;

/// One pass's candidates: each non-empty level's rows, strictly ascending,
/// its ids following the previous level's in one dense id space. The level
/// views point into the batch, so it moves but never copies.
class CandidateBatch {
 public:
  /// Keeps every non-empty level, in order. Each holds canonical rows of
  /// one size.
  explicit CandidateBatch(std::vector<ItemsetRows> levels);
  CandidateBatch(CandidateBatch&&) = default;
  CandidateBatch& operator=(CandidateBatch&&) = default;

  /// Every level, with its batch-global id offset.
  std::span<const LevelView> levels() const { return views_; }
  bool empty() const { return views_.empty(); }
  size_t num_levels() const { return views_.size(); }
  /// Width of the dense count array: the number of candidates.
  u64 id_space() const { return id_space_; }
  /// Smallest candidate size in the batch.
  u32 kmin() const { return kmin_; }

  /// Split the counted itemsets of a batch whose levels have consecutive
  /// sizes back into one vector per level.
  std::vector<std::vector<CountPair>> split(
      std::vector<CountPair> counted) const;

 private:
  std::vector<ItemsetRows> rows_;
  std::vector<LevelView> views_;  ///< into rows_, which a move keeps
  u64 id_space_ = 0;
  u32 kmin_ = 0;
};

/// Each tree's rows and id offset, as a level view.
inline std::vector<LevelView> level_views(const std::vector<HashTree>& trees) {
  std::vector<LevelView> levels;
  for (const HashTree& t : trees) {
    levels.push_back(LevelView::of(t.rows(), t.id_offset()));
  }
  return levels;
}

/// Every item some candidate of `levels` contains, ascending: the rows of
/// the index count_rows builds when it switches kernels.
std::vector<Item> candidate_items(std::span<const LevelView> levels);

/// C2 without its hash tree. A pair batch is one k = 2 level holding every
/// pair of its m items in lexicographic order -- C2 exactly as
/// apriori_gen_rows emits it -- so candidate (items[a], items[b]), a < b,
/// has id a(2m - a - 1)/2 + (b - a - 1): its cell in the upper-triangular
/// matrix over the items' ranks. A task needs only the item list to count
/// the batch, and the cells stay the candidate ids every other kernel,
/// the sum_arrays merge and materialization use.
class PairMatrix {
 public:
  /// The matrix over `items`: ascending, distinct, at least two.
  explicit PairMatrix(std::vector<Item> items);

  /// The matrix of `levels` when they are a pair batch, else null. Built
  /// once per batch on the driver, in O(|C2|).
  static std::shared_ptr<const PairMatrix> of(
      std::span<const LevelView> levels);

  const std::vector<Item>& items() const { return items_; }
  /// m(m - 1)/2: the width of the dense count array.
  u64 num_pairs() const {
    return u64{items_.size()} * (items_.size() - 1) / 2;
  }
  /// What a broadcast or the distributed cache ships: a 16-byte header
  /// and the item list.
  u64 payload_bytes() const { return 16 + u64{items_.size()} * sizeof(Item); }

  /// Add one to the cell of every pair of items of `t` the matrix holds.
  /// Charges one work unit per item of `t` (its rank lookup) and one per
  /// pair increment.
  void count_row(const Transaction& t, u64* cells) const;

 private:
  static constexpr u32 kNoRank = 0xffffffffu;
  /// Items below this id are ranked through a direct table, larger ones
  /// by binary search (FIMI ids reach 2^32 - 1); candidate_items and
  /// VerticalBitmapIndex use the same limit.
  static constexpr Item kDirectLimit = 1u << 20;

  u32 rank_of(Item item) const;

  std::vector<Item> items_;
  std::vector<u32> direct_rank_;  ///< item -> rank for items < kDirectLimit
  u32 first_sparse_ = 0;          ///< rank of the first item >= kDirectLimit
};

/// One level of candidates as a prefix trie over its rows, in CSR form.
/// Depth d (1..k) holds one item per distinct d-item prefix of the rows,
/// and every depth d < k (the root is depth 0) one child-offset array:
/// node x's children are nodes [offsets[x], offsets[x + 1]) of depth d + 1.
/// The rows ascend strictly, so each node's child items ascend and the
/// depth-k leaves are the rows in order: a leaf's index is its candidate
/// id.
class CandidateTrie {
 public:
  /// The trie of `level`'s rows, with its id offset. Built in O(size * k);
  /// YAFIM_CHECKs that the rows ascend strictly, as every producer
  /// (apriori_gen_rows, to_sorted_rows) emits them.
  explicit CandidateTrie(const LevelView& level);

  u32 k() const { return static_cast<u32>(items_.size()); }
  u32 size() const { return static_cast<u32>(items_.back().size()); }
  u64 id_offset() const { return id_offset_; }
  /// Nodes of depths 1..k and child offsets of depths 0..k-1.
  u64 num_nodes() const;
  u64 num_offsets() const;
  /// What ships: a 16-byte header, 4 bytes per node and 4 per child
  /// offset -- exactly the arrays a walk reads. Every row is a leaf's
  /// path, so it also covers the rows the bitmap switch reads.
  u64 payload_bytes() const {
    return 16 + 4 * (num_nodes() + num_offsets());
  }
  /// Candidate `ci` read back from the trie, leaf to root (tests).
  Itemset row(u32 ci) const;

  /// Add one to cells[ci] for every candidate ci contained in `t`. At a
  /// node of depth d the walk intersects its child items with the row's
  /// usable items -- those after the matched prefix, keeping k - 1 - d in
  /// reserve -- by binary-searching each element of the smaller side in
  /// the larger from a lower bound that only moves forward, until it
  /// reaches the larger side's end. Charges one work unit per element
  /// searched, so a row shorter than k costs nothing, and bumps the obs
  /// trie.lookups counter by the same units once per row.
  void count_row(const Transaction& t, u64* cells) const;

 private:
  /// Count the leaves below node `node` of depth `depth` whose items
  /// follow position `pos` of `t`; returns the units charged.
  u64 walk(const Transaction& t, u32 depth, u32 node, size_t pos,
           u64* cells) const;

  u64 id_offset_ = 0;
  std::vector<std::vector<Item>> items_;   ///< [d - 1]: depth d's items
  std::vector<std::vector<u32>> offsets_;  ///< [d]: depth d's child ranges
};

/// The per-row kernel of a batch counted by candidate id, built once per
/// batch on the driver: a pair batch's PairMatrix, else one CandidateTrie
/// per level. Tasks count their rows on it (count_rows), and a broadcast or
/// the distributed cache ships its payload.
class DenseKernel {
 public:
  /// The kernel of `levels`.
  explicit DenseKernel(std::span<const LevelView> levels);

  /// The pair matrix of a pair batch, else null.
  const PairMatrix* pairs() const { return pairs_.get(); }
  /// One trie per level of any other batch.
  const std::vector<CandidateTrie>& tries() const { return tries_; }
  /// candidate_items(levels): the rows of the index count_rows switches to.
  const std::vector<Item>& items() const { return items_; }
  /// What a broadcast or the distributed cache ships: the pair matrix's
  /// item list, or every trie's arrays.
  u64 payload_bytes() const;
  /// "pairs" or "trie": the suffix of the broadcast's label.
  const char* payload_name() const { return pairs_ ? "pairs" : "trie"; }

  /// Count `t` into the batch-global `cells`, charging the kernel's units.
  void count_row(const Transaction& t, u64* cells) const;

 private:
  std::shared_ptr<const PairMatrix> pairs_;
  u64 pairs_offset_ = 0;
  std::vector<CandidateTrie> tries_;
  std::vector<Item> items_;
};

/// The dense counting kernel of one task: add, for every candidate of
/// `levels` contained in a row of `rows`, one to
/// cells[level.id_offset + ci]. `kernel` is the DenseKernel of `levels`.
///
/// Rows are counted in order by kernel.count_row. Before each row m > 0 the
/// work units spent on rows [0, m), scaled to the n - m rows left, are
/// compared with the exact units the bitmap kernel charges for them: a
/// VerticalBitmapIndex over rows [m, n) restricted to kernel.items()
/// (build_units) plus count_candidates on every level (count_units). Once
/// the projection is larger, rows [m, n) are indexed and every candidate's
/// AND+popcount is added to the same cells. The choice depends only on
/// the rows, their order and the candidates, so the cells and the charged
/// work are deterministic; the cells equal a hash-tree probe's. Bumps the
/// obs dense.rows_probed and dense.rows_bitmap counters (a row the kernel
/// walked is a probed row).
void count_rows(std::span<const Transaction> rows,
                std::span<const LevelView> levels, const DenseKernel& kernel,
                u64* cells);

/// One shard of the partitioned store: the rows whose first item lies in
/// [first_item, the next range's first_item), as a slice of every level
/// that has such rows, keeping their batch-global ids.
struct FirstItemRange {
  Item first_item = 0;
  std::vector<LevelView> levels;
  /// Every slice's CandidateTrie payload: what the DenseKernel of `levels`
  /// ships (less, as its item list, if the slice is a whole pair batch).
  u64 payload_bytes = 0;
};

/// The partitioned store's split of `levels` (ascending rows): their
/// first-item classes in ascending order, packed greedily into contiguous
/// ranges. A range closes before the class that would push its payload
/// past `cap_bytes`, so only a range of one class can exceed the cap.
/// Charges one work unit per row.
std::vector<FirstItemRange> split_first_items(
    std::span<const LevelView> levels, u64 cap_bytes);

struct CountCoreOptions {
  CountMode count_mode = CountMode::kItemsetKey;
  /// Count on the DenseKernel or by hash-tree probes (true), or by linear
  /// scans of the shipped rows (false, the no-hash-tree ablation).
  bool use_hash_tree = true;
  /// count_candidate_trees only: use the partitioned candidate store.
  bool partitioned = false;
  /// The partitioned store's target range count (split_first_items caps
  /// each range at the batch's payload over it); 0 = ctx.default_partitions().
  u32 broadcast_shards = 0;
  /// Shape of every hash tree built (HashTree's defaults).
  u32 branching = 0;  // 0 = auto (HashTree::default_branching)
  u32 leaf_capacity = 16;
  /// Smallest candidate size in the batch (routing viability cutoff).
  u32 kmin = 2;
  /// Only candidates with support >= min_count are returned. Pass 1 to get
  /// every candidate with nonzero support (plus zero-support candidates are
  /// always dropped: min_count >= 1 by construction).
  u64 min_count = 1;
  /// Stage-label prefix ("pass3", "batch0007:reverify", ...).
  std::string pass_name;
};

/// How a batch reaches the tasks: its DenseKernel under kCandidateId, its
/// hash trees under kItemsetKey, the bytes that would ship whole, and
/// whether the partitioned store ships instead (on its own kernels).
struct BatchShipment {
  std::shared_ptr<const DenseKernel> kernel;
  std::shared_ptr<std::vector<HashTree>> trees;
  u64 bytes = 0;
  bool partitioned = false;
};

/// The broadcast-or-shard decision of `batch`, on the bytes that would ship
/// whole (the kernel's, else the trees'): kPartitioned always shards, kFull
/// never, kAuto when they would not fit next to what the memory ledger
/// (engine/memory.h) places on the tightest executor -- per batch, so a
/// YAFIM_FAULT_MEM_* shrink degrades exactly the passes after it. A pair
/// batch counted by id ships its item list and never shards.
BatchShipment ship_batch(const engine::Context& ctx,
                         const CandidateBatch& batch, BroadcastMode mode,
                         const CountCoreOptions& opt);

/// Count every candidate in `trees` against `transactions` and return those
/// with support >= opt.min_count. `tree_bytes` is the serialized size of
/// the trees (broadcast pricing + fallback ledger note); `id_space` the
/// batch-global dense id space (HashTree::assign_id_offsets).
///
/// Under kCandidateId the batch is broadcast as its DenseKernel (the
/// `<pass_name>:pairs` or `:trie` payload) and counted dense; a pair batch
/// is counted so whatever opt.partitioned says. The partitioned store
/// splits the trees' rows as count_batch's does.
///
/// `lineage`, when non-null, is the stage that loaded the uncached
/// `transactions`: Spark recomputes it for this job, so it is recorded
/// again as the job's first stage, "<pass_name>:recompute lineage". Null
/// means the transactions are cached.
std::vector<CountPair> count_candidate_trees(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const std::shared_ptr<std::vector<HashTree>>& trees, u64 tree_bytes,
    u64 id_space, const sim::StageRecord* lineage,
    const CountCoreOptions& opt);

/// Count `batch` against `transactions` as ship_batch decides and return
/// the candidates with support >= opt.min_count. opt.kmin is taken from
/// the batch; `lineage` is as for count_candidate_trees.
std::vector<CountPair> count_batch(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const CandidateBatch& batch, BroadcastMode broadcast_mode,
    CountCoreOptions opt, const sim::StageRecord* lineage);

// ---- MapReduce substrate ------------------------------------------------

/// Input decoder of every MapReduce miner job: the staged TransactionDB.
std::vector<Transaction> decode_transactions(const std::vector<u8>& bytes);

using ItemsetCountJob =
    mr::JobSpec<Transaction, Itemset, u64, CountPair, ItemsetHash>;
using ItemCountJob =
    mr::JobSpec<Transaction, Singleton, u64, CountPair, SingletonHash>;
using CandidateIdJob =
    mr::JobSpec<Transaction, u32, u64, CountPair, DenseIdHash>;

/// Job 1 of the level-wise miners: (item, 1) per occurrence, summed
/// map-side, reduced to the items with support >= min_count.
ItemCountJob frequent_items_job(const std::string& name, u64 min_count,
                                u32 num_mappers, u32 num_reducers);

/// One job over every candidate of `trees`, which reach the mappers through
/// the distributed cache: (candidate, 1) per hash-tree hit, summed
/// map-side, reduced to supports >= min_count.
ItemsetCountJob itemset_count_job(
    const std::string& name, std::shared_ptr<const std::vector<HashTree>> trees,
    u64 min_count, u32 num_mappers, u32 num_reducers);

/// The same job keyed by candidate id, over `levels` -- a batch's levels or
/// one FirstItemRange's slices of them -- whose rows outlive the job. Each
/// mapper counts its split into batch-global dense cells through
/// count_rows on `kernel` (the DenseKernel of `levels`), the RDD tasks'
/// kernel choice, and emits (id, count) per candidate of nonzero count;
/// the distributed cache ships the kernel's payload. Reducers map
/// surviving ids back to itemsets through the level that owns the id.
CandidateIdJob candidate_id_job(const std::string& name,
                                std::span<const LevelView> levels,
                                std::shared_ptr<const DenseKernel> kernel,
                                u64 min_count, u32 num_mappers,
                                u32 num_reducers);

}  // namespace yafim::fim
