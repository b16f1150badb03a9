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
//                        broadcast-or-shard decision, bitmap index build or
//                        reuse, lineage recompute charge, then
//                        count_candidate_trees.
//   * count_candidate_trees -- the cluster counting job itself.
//   * the MapReduce jobs (mr_apriori, lin, son): frequent items, and one
//     job counting a tree batch keyed by itemset or by candidate id.
//
// count_candidate_trees has four paths, selected by (count_mode,
// partitioned):
//   * kItemsetKey      -- paper-faithful: per-hit itemset copies keyed into
//                         a reduce_by_key shuffle.
//   * kCandidateId     -- dense per-partition u64 arrays indexed by
//                         batch-global candidate id, merged via sum_arrays.
//   * kVerticalBitmap  -- a per-partition VerticalBitmapIndex answers each
//                         candidate with AND + popcount.
//   * partitioned      -- any mode degrades here when the trees outgrow the
//                         executor budget: trees sharded by candidate
//                         prefix, transactions routed to their shards.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "engine/rdd.h"
#include "fim/bitmap.h"
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
/// batch-global dense id space (HashTree::assign_id_offsets). `vertical`
/// may be null except in non-partitioned kVerticalBitmap mode, where it
/// must point to an engaged optional holding the per-partition index RDD.
std::vector<CountPair> count_candidate_trees(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const std::shared_ptr<std::vector<HashTree>>& trees, u64 tree_bytes,
    u64 id_space, std::optional<engine::RDD<VerticalBitmapIndex>>* vertical,
    const CountCoreOptions& opt);

/// Count `batch` against `transactions` through count_candidate_trees and
/// return the candidates with support >= opt.min_count. opt.partitioned is
/// decided here (use_partitioned_store) and opt.kmin taken from the batch.
///
/// A kVerticalBitmap pass that broadcasts counts on a per-partition bitmap
/// index. With `index` non-null the index lives there: built and persisted
/// by the first such pass, reused by the later ones. With `index` null it
/// is built for this call only.
///
/// `lineage`, when non-null, is the stage that loaded the uncached
/// `transactions`: every pass that reads them (all but one served by a
/// reused index) records it again, as "<pass_name>:recompute lineage".
std::vector<CountPair> count_batch(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const CandidateBatch& batch, BroadcastMode broadcast_mode,
    CountCoreOptions opt,
    std::optional<engine::RDD<VerticalBitmapIndex>>* index,
    const sim::StageRecord* lineage);

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

/// The same job over a one-tree batch, keyed by candidate id (`mode` is
/// kCandidateId or kVerticalBitmap). kCandidateId mappers emit (id, 1) per
/// hash-tree hit; kVerticalBitmap mappers build a VerticalBitmapIndex over
/// their split (MapReduce has no cross-job cache, so it is rebuilt per job)
/// and emit (id, count) per candidate of nonzero count. Reducers map
/// surviving ids back to itemsets through their copy of the tree.
CandidateIdJob candidate_id_job(
    const std::string& name, std::shared_ptr<const std::vector<HashTree>> trees,
    CountMode mode, u64 min_count, u32 num_mappers, u32 num_reducers);

}  // namespace yafim::fim
