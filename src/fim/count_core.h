// The candidate-counting plan of the level-wise miners, once per substrate.
//
// Every Phase-II pass of the paper's Algorithm 3 does the same thing: build
// Ck's hash trees, ship them, count, filter. This module holds that plan so
// the miners only generate candidates and consume counts:
//
//   * CandidateBatch  -- one pass's candidate levels as hash trees over one
//                        batch-global dense id space. Callers build it
//                        inside their own driver work::Scope, so tree-build
//                        work stays in their ap_gen stage.
//   * count_batch     -- the RDD entry point (yafim, sampling, stream):
//                        the broadcast-or-shard decision, then
//                        count_candidate_trees.
//   * count_candidate_trees -- the cluster counting job itself, including
//                        the lineage recompute of uncached transactions.
//   * the MapReduce jobs (mr_apriori, son): frequent items, and one job
//     counting a tree batch keyed by itemset or by candidate id.
//
// count_candidate_trees has three paths, selected by (count_mode,
// partitioned):
//   * kItemsetKey      -- paper-faithful: per-hit itemset copies keyed into
//                         a reduce_by_key shuffle.
//   * kCandidateId     -- dense per-partition u64 arrays indexed by
//                         batch-global candidate id, merged via sum_arrays;
//                         each task picks its kernel row by row
//                         (count_rows). A pair batch (PairMatrix) ships as
//                         its item list and is counted on the triangular
//                         pair matrix instead of the hash tree.
//   * partitioned      -- either mode degrades here when the trees outgrow
//                         the executor budget: trees sharded by candidate
//                         prefix, transactions routed to their shards. A
//                         pair batch counted by id never takes it.
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

/// One pass's candidates: a hash tree per level, each level's ids following
/// the previous level's in one dense id space.
class CandidateBatch {
 public:
  /// Builds one tree per non-empty level, in order. Each level holds
  /// canonical rows of one size.
  CandidateBatch(std::vector<ItemsetRows> levels, u32 branching,
                 u32 leaf_capacity);

  const std::shared_ptr<std::vector<HashTree>>& trees() const {
    return trees_;
  }
  bool empty() const { return trees_->empty(); }
  size_t num_levels() const { return trees_->size(); }
  u64 level_size(size_t level) const { return (*trees_)[level].size(); }
  /// Serialized size of every tree: what a broadcast ships.
  u64 tree_bytes() const { return tree_bytes_; }
  /// Width of the dense count array: the number of candidates.
  u64 id_space() const { return id_space_; }
  /// Smallest candidate size in the batch.
  u32 kmin() const { return kmin_; }

  /// Split the counted itemsets of a batch whose levels have consecutive
  /// sizes back into one vector per level.
  std::vector<std::vector<CountPair>> split(
      std::vector<CountPair> counted) const;

 private:
  std::shared_ptr<std::vector<HashTree>> trees_;
  u64 tree_bytes_ = 0;
  u64 id_space_ = 0;
  u32 kmin_ = 0;
};

/// Every item some candidate of `trees` contains, ascending: the rows of
/// the index count_rows builds when it switches kernels.
std::vector<Item> candidate_items(const std::vector<HashTree>& trees);

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

  /// The matrix of `trees` when they are a pair batch, else null. Built
  /// once per batch on the driver, in O(|C2|).
  static std::shared_ptr<const PairMatrix> of(
      const std::vector<HashTree>& trees);

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

/// The dense counting kernel of one task: add, for every candidate of
/// `trees` contained in a row of `rows`, one to
/// cells[tree.id_offset() + ci]. `items` is candidate_items(trees);
/// `pairs`, when non-null, is PairMatrix::of(trees).
///
/// Rows are counted in order by the per-row kernel: pairs->count_row for a
/// pair batch, else a probe of every hash tree. Before each row m > 0 the
/// work units spent on rows [0, m), scaled to the n - m rows left, are
/// compared with the exact units the bitmap kernel charges for them: a
/// VerticalBitmapIndex over rows [m, n) restricted to `items`
/// (build_units) plus count_candidates on every tree (count_units). Once
/// the projection is larger, rows [m, n) are indexed and every candidate's
/// AND+popcount is added to the same cells. The choice depends only on
/// the rows, their order and the candidates, so the cells and the charged
/// work are deterministic; the cells equal an all-probe count's. Bumps the
/// obs dense.rows_probed and dense.rows_bitmap counters (a row counted by
/// the pair kernel is a probed row).
void count_rows(std::span<const Transaction> rows,
                const std::vector<HashTree>& trees,
                std::span<const Item> items, u64* cells,
                const PairMatrix* pairs = nullptr);

/// Whether a candidate payload of `bytes` goes out as the partitioned
/// candidate store instead of whole: always under kPartitioned, never under
/// kFull, and under kAuto when it would not fit next to what the memory
/// ledger (engine/memory.h) already places on the tightest executor. Taken
/// per pass, so a YAFIM_FAULT_MEM_* shrink mid-run degrades exactly the
/// passes after the trigger.
bool use_partitioned_store(const engine::Context& ctx, BroadcastMode mode,
                           u64 bytes);

struct CountCoreOptions {
  CountMode count_mode = CountMode::kItemsetKey;
  /// Probe via the hash tree (true) or linear candidate scans (false).
  bool use_hash_tree = true;
  /// Use the partitioned candidate store instead of broadcasting the trees
  /// whole (count_batch takes the decision per pass).
  bool partitioned = false;
  /// Shard count for the partitioned store; 0 = ctx.default_partitions().
  u32 broadcast_shards = 0;
  /// Hash-tree shape, for re-building shard trees.
  u32 branching = 8;
  u32 leaf_capacity = 32;
  /// Smallest candidate size in the batch (routing viability cutoff).
  u32 kmin = 2;
  /// Only candidates with support >= min_count are returned. Pass 1 to get
  /// every candidate with nonzero support (plus zero-support candidates are
  /// always dropped: min_count >= 1 by construction).
  u64 min_count = 1;
  /// Stage-label prefix ("pass3", "batch0007:reverify", ...).
  std::string pass_name;
};

/// Count every candidate in `trees` against `transactions` and return those
/// with support >= opt.min_count. `tree_bytes` is the serialized size of
/// the batch (broadcast pricing + fallback ledger note); `id_space` the
/// batch-global dense id space (HashTree::assign_id_offsets).
///
/// Under kCandidateId with the hash tree on, a pair batch
/// (PairMatrix::of) is broadcast as its item list and counted dense
/// whatever opt.partitioned says: there is no tree to shard.
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

/// Count `batch` against `transactions` through count_candidate_trees and
/// return the candidates with support >= opt.min_count. opt.partitioned is
/// decided here (use_partitioned_store) and opt.kmin taken from the batch;
/// `lineage` is passed through.
std::vector<CountPair> count_batch(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const CandidateBatch& batch, BroadcastMode broadcast_mode,
    CountCoreOptions opt, const sim::StageRecord* lineage);

// ---- MapReduce substrate ------------------------------------------------

/// Input decoder of every MapReduce miner job: the staged TransactionDB.
std::vector<Transaction> decode_transactions(const std::vector<u8>& bytes);

using ItemsetCountJob =
    mr::JobSpec<Transaction, Itemset, u64, CountPair, ItemsetHash>;
using CandidateIdJob =
    mr::JobSpec<Transaction, u32, u64, CountPair, DenseIdHash>;

/// Job 1 of the level-wise miners: (item, 1) per occurrence, summed
/// map-side, reduced to the items with support >= min_count.
ItemsetCountJob frequent_items_job(const std::string& name, u64 min_count,
                                   u32 num_mappers, u32 num_reducers);

/// One job over every candidate of `trees`, which reach the mappers through
/// the distributed cache: (candidate, 1) per hash-tree hit, summed
/// map-side, reduced to supports >= min_count.
ItemsetCountJob itemset_count_job(
    const std::string& name, std::shared_ptr<const std::vector<HashTree>> trees,
    u64 min_count, u32 num_mappers, u32 num_reducers);

/// The same job keyed by candidate id, over trees whose id ranges start at
/// 0 (HashTree::assign_id_offsets). Each mapper counts its split into
/// dense cells over the whole id space through count_rows, the RDD tasks'
/// kernel choice, and emits (id, count) per candidate of nonzero count.
/// Reducers map surviving ids back to itemsets through their copy of the
/// tree that owns the id. `pairs`, when non-null, is PairMatrix::of(*trees):
/// the mappers then count on it and the cache ships its item list.
CandidateIdJob candidate_id_job(
    const std::string& name, std::shared_ptr<const std::vector<HashTree>> trees,
    std::shared_ptr<const PairMatrix> pairs, u64 min_count, u32 num_mappers,
    u32 num_reducers);

}  // namespace yafim::fim
