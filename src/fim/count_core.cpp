#include "fim/count_core.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>

#include "engine/broadcast.h"
#include "fim/bitmap.h"
#include "fim/dataset.h"
#include "fim/mr_encode.h"
#include "obs/metrics.h"

namespace yafim::fim {

namespace {

/// Identity hash for shard ids, so shard s deterministically lands in
/// reduce partition s of the routing shuffle (shard -> executor placement).
struct ShardIdHash {
  size_t operator()(u32 shard) const { return shard; }
};

/// Call on_hit(ci) for every candidate of `tree` contained in `t`: by the
/// hash-tree walk, or by a linear scan for the no-hash-tree ablation.
template <typename Fn>
void for_each_hit(const HashTree& tree, const Transaction& t,
                  bool use_hash_tree, Fn&& on_hit) {
  if (use_hash_tree) {
    static thread_local HashTree::Probe probe;
    tree.for_each_contained(t, probe, on_hit);
  } else {
    tree.for_each_contained_linear(t, on_hit);
  }
}

/// The MapReduce counting job shape: transactions in, u64 counts summed
/// map-side, reducers keep keys whose sum reaches min_count and emit
/// (itemset_of(key), sum).
template <typename Job, typename ItemsetOf>
Job counting_job(const std::string& name, u64 min_count, u32 num_mappers,
                 u32 num_reducers, ItemsetOf itemset_of) {
  Job job;
  job.name = name;
  job.decode_input = decode_transactions;
  job.combine_fn = [](const u64& a, const u64& b) { return a + b; };
  job.reduce_fn = [min_count, itemset_of](const auto& key,
                                          std::vector<u64>& values)
      -> std::optional<CountPair> {
    u64 sum = 0;
    for (u64 v : values) sum += v;
    if (sum < min_count) return std::nullopt;
    return CountPair(itemset_of(key), sum);
  };
  job.encode_output = encode_counts;
  job.num_mappers = num_mappers;
  job.num_reducers = num_reducers;
  return job;
}

}  // namespace

std::vector<Item> candidate_items(std::span<const LevelView> levels) {
  // Small ids are deduplicated through a direct-indexed table, so the sort
  // sees each of them once; ids past the table go in as they come.
  constexpr Item kDirectLimit = 1u << 20;
  std::vector<Item> items;
  std::vector<u8> seen;
  for (const LevelView& level : levels) {
    for (const Item i : level.items()) {
      if (i >= kDirectLimit) {
        items.push_back(i);
        continue;
      }
      if (i >= seen.size()) seen.resize(size_t{i} + 1, 0);
      if (!seen[i]) {
        seen[i] = 1;
        items.push_back(i);
      }
    }
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

PairMatrix::PairMatrix(std::vector<Item> items) : items_(std::move(items)) {
  YAFIM_CHECK(items_.size() >= 2 &&
                  std::adjacent_find(items_.begin(), items_.end(),
                                     std::greater_equal<Item>()) ==
                      items_.end(),
              "a pair matrix ranks at least two ascending, distinct items");
  first_sparse_ = static_cast<u32>(
      std::lower_bound(items_.begin(), items_.end(), kDirectLimit) -
      items_.begin());
  if (first_sparse_ > 0) {
    direct_rank_.assign(size_t{items_[first_sparse_ - 1]} + 1, kNoRank);
  }
  for (u32 r = 0; r < first_sparse_; ++r) direct_rank_[items_[r]] = r;
}

std::shared_ptr<const PairMatrix> PairMatrix::of(
    std::span<const LevelView> levels) {
  if (levels.size() != 1 || levels.front().k() != 2) return nullptr;
  const LevelView& level = levels.front();
  if (level.size() == 0) return nullptr;
  // C2's first m - 1 rows pair the smallest item with every other one.
  const Item first = level.row(0)[0];
  std::vector<Item> items{first};
  for (u32 ci = 0; ci < level.size() && level.row(ci)[0] == first; ++ci) {
    items.push_back(level.row(ci)[1]);
  }
  const u64 m = items.size();
  if (m * (m - 1) / 2 != level.size() ||
      std::adjacent_find(items.begin(), items.end(),
                         std::greater_equal<Item>()) != items.end()) {
    return nullptr;
  }
  u32 ci = 0;
  for (u64 a = 0; a + 1 < m; ++a) {
    for (u64 b = a + 1; b < m; ++b, ++ci) {
      const Item* c = level.row(ci);
      if (c[0] != items[a] || c[1] != items[b]) return nullptr;
    }
  }
  return std::make_shared<const PairMatrix>(std::move(items));
}

u32 PairMatrix::rank_of(Item item) const {
  if (item < kDirectLimit) {
    return item < direct_rank_.size() ? direct_rank_[item] : kNoRank;
  }
  const auto it =
      std::lower_bound(items_.begin() + first_sparse_, items_.end(), item);
  return it != items_.end() && *it == item
             ? static_cast<u32>(it - items_.begin())
             : kNoRank;
}

void PairMatrix::count_row(const Transaction& t, u64* cells) const {
  // The row and the item list are both ascending, so are the row's ranks.
  static thread_local std::vector<u32> ranks;
  ranks.clear();
  for (Item i : t) {
    const u32 r = rank_of(i);
    if (r != kNoRank) ranks.push_back(r);
  }
  const u64 m = items_.size();
  const u64 p = ranks.size();
  for (u64 x = 0; x + 1 < p; ++x) {
    const u64 a = ranks[x];
    // cell(a, b) = row_base + b; the unsigned wrap-around cancels for b > a.
    const u64 row_base = a * (2 * m - a - 1) / 2 - a - 1;
    for (u64 y = x + 1; y < p; ++y) ++cells[row_base + ranks[y]];
  }
  engine::work::add(t.size() + (p == 0 ? 0 : p * (p - 1) / 2));
}

CandidateTrie::CandidateTrie(const LevelView& level)
    : id_offset_(level.id_offset), items_(level.k()), offsets_(level.k()) {
  const u32 k = level.k();
  offsets_[0].push_back(0);
  const Item* prev = nullptr;
  for (u32 ci = 0; ci < level.size(); ++ci) {
    const Item* c = level.row(ci);
    // The row shares its first `d` items with the previous one and adds one
    // node at each depth below.
    u32 d = 0;
    if (prev) {
      while (d < k && c[d] == prev[d]) ++d;
      YAFIM_CHECK(d < k && c[d] > prev[d],
                  "a candidate trie needs strictly ascending rows");
    }
    for (; d < k; ++d) {
      if (d + 1 < k) {
        offsets_[d + 1].push_back(static_cast<u32>(items_[d + 1].size()));
      }
      items_[d].push_back(c[d]);
    }
    prev = c;
  }
  for (u32 d = 0; d < k; ++d) {
    offsets_[d].push_back(static_cast<u32>(items_[d].size()));
  }
}

u64 CandidateTrie::num_nodes() const {
  u64 n = 0;
  for (const std::vector<Item>& depth : items_) n += depth.size();
  return n;
}

u64 CandidateTrie::num_offsets() const {
  u64 n = 0;
  for (const std::vector<u32>& depth : offsets_) n += depth.size();
  return n;
}

Itemset CandidateTrie::row(u32 ci) const {
  Itemset out(k());
  u32 node = ci;
  for (u32 d = k(); d-- > 0;) {
    out[d] = items_[d][node];
    if (d == 0) break;
    // The parent is the last node of depth d whose children start at or
    // before `node`.
    const std::vector<u32>& off = offsets_[d];
    node = static_cast<u32>(
        std::upper_bound(off.begin(), off.end(), node) - off.begin() - 1);
  }
  return out;
}

void CandidateTrie::count_row(const Transaction& t, u64* cells) const {
  if (t.size() < k()) return;  // nothing usable at the root
  const u64 units = walk(t, 0, 0, 0, cells);
  engine::work::add(units);
  obs::count(obs::CounterId::kTrieLookups, units);
}

u64 CandidateTrie::walk(const Transaction& t, u32 depth, u32 node, size_t pos,
                        u64* cells) const {
  const Item* child = items_[depth].data();
  const u32 first = offsets_[depth][node];
  const u32 last = offsets_[depth][node + 1];
  // The row's usable items are [pos, end), keeping one for each depth left
  // below the children; pos < end whenever the walk gets here.
  const size_t end = t.size() - (k() - 1 - depth);
  const bool leaves = depth + 1 == k();
  u64 units = 0;
  auto hit = [&](u32 c, size_t at) {
    if (leaves) {
      ++cells[c];
    } else {
      units += walk(t, depth + 1, c, at + 1, cells);
    }
  };
  // Search each element of the smaller side in the larger, from a lower
  // bound that only moves forward; once it reaches the larger side's end,
  // nothing left can match.
  if (last - first <= end - pos) {
    const Item* lo = t.data() + pos;
    const Item* const stop = t.data() + end;
    for (u32 c = first; c < last && lo != stop; ++c) {
      ++units;
      lo = std::lower_bound(lo, stop, child[c]);
      if (lo != stop && *lo == child[c]) {
        hit(c, static_cast<size_t>(lo - t.data()));
        ++lo;
      }
    }
  } else {
    const Item* lo = child + first;
    const Item* const stop = child + last;
    for (size_t j = pos; j < end && lo != stop; ++j) {
      ++units;
      lo = std::lower_bound(lo, stop, t[j]);
      if (lo != stop && *lo == t[j]) {
        hit(static_cast<u32>(lo - child), j);
        ++lo;
      }
    }
  }
  return units;
}

DenseKernel::DenseKernel(std::span<const LevelView> levels)
    : pairs_(PairMatrix::of(levels)) {
  if (pairs_) {
    pairs_offset_ = levels.front().id_offset;
    items_ = pairs_->items();
    return;
  }
  tries_.reserve(levels.size());
  for (const LevelView& level : levels) tries_.emplace_back(level);
  items_ = candidate_items(levels);
}

u64 DenseKernel::payload_bytes() const {
  if (pairs_) return pairs_->payload_bytes();
  u64 bytes = 0;
  for (const CandidateTrie& trie : tries_) bytes += trie.payload_bytes();
  return bytes;
}

void DenseKernel::count_row(const Transaction& t, u64* cells) const {
  if (pairs_) {
    pairs_->count_row(t, cells + pairs_offset_);
    return;
  }
  for (const CandidateTrie& trie : tries_) {
    trie.count_row(t, cells + trie.id_offset());
  }
}

void count_rows(std::span<const Transaction> rows,
                std::span<const LevelView> levels, const DenseKernel& kernel,
                u64* cells) {
  __extension__ using u128 = unsigned __int128;
  const std::vector<Item>& items = kernel.items();
  const u64 n = rows.size();
  u64 occurrences_left = 0;  // item occurrences in rows [m, n)
  for (const Transaction& t : rows) occurrences_left += t.size();
  u64 spent = 0;  // per-row kernel work units charged to rows [0, m)
  u64 m = 0;
  for (; m < n; ++m) {
    if (m > 0) {
      // The bitmap kernel's exact price for indexing and counting the rows
      // left, against the per-row kernel's pace so far scaled to them:
      // spent / m * (n - m) > bitmap, cross-multiplied.
      const u64 left = n - m;
      u64 bitmap = VerticalBitmapIndex::build_units(occurrences_left,
                                                    items.size(), left);
      for (const LevelView& level : levels) {
        bitmap += VerticalBitmapIndex::count_units(level, left);
      }
      if (u128{spent} * left > u128{bitmap} * m) break;
    }
    const u64 before = engine::work::current();
    kernel.count_row(rows[m], cells);
    spent += engine::work::current() - before;
    occurrences_left -= rows[m].size();
  }
  obs::count(obs::CounterId::kDenseRowsProbed, m);
  if (m == n) return;
  obs::count(obs::CounterId::kDenseRowsBitmap, n - m);
  const VerticalBitmapIndex index(rows.subspan(m), items);
  for (const LevelView& level : levels) index.count_candidates(level, cells);
}

CandidateBatch::CandidateBatch(std::vector<ItemsetRows> levels) {
  for (ItemsetRows& level : levels) {
    if (level.empty()) continue;
    kmin_ = kmin_ == 0 ? level.width : std::min(kmin_, level.width);
    rows_.push_back(std::move(level));
  }
  for (const ItemsetRows& level : rows_) {
    views_.push_back(LevelView::of(level, id_space_));
    id_space_ += level.size();
  }
}

std::vector<std::vector<CountPair>> CandidateBatch::split(
    std::vector<CountPair> counted) const {
  std::vector<std::vector<CountPair>> by_level(num_levels());
  for (auto& [itemset, support] : counted) {
    const size_t level = itemset.size() - kmin_;
    YAFIM_CHECK(level < num_levels() && views_[level].k() == itemset.size(),
                "counted itemset of a size the batch does not hold");
    by_level[level].emplace_back(std::move(itemset), support);
  }
  return by_level;
}

std::vector<FirstItemRange> split_first_items(
    std::span<const LevelView> levels, u64 cap_bytes) {
  // A slice ships as a CandidateTrie: a 16-byte header, the root's two
  // offsets and one closing offset per depth below it, then 4 bytes for
  // each node a row adds -- one per depth past the prefix it shares with
  // the row before it -- and for the child offset each such node above
  // depth k carries. Rows of different first items share no node, so a
  // range's payload adds up class by class, exactly.
  const size_t n = levels.size();
  // Per level: the open range's first row, the class's, the next class's.
  std::vector<u32> begin(n, 0), at(n, 0), end(n, 0), stop(n, 0);
  for (size_t l = 0; l < n; ++l) stop[l] = levels[l].size();
  std::vector<FirstItemRange> ranges;
  FirstItemRange open;
  auto close = [&] {
    for (size_t l = 0; l < n; ++l) {
      if (at[l] > begin[l]) {
        open.levels.push_back(levels[l].slice(begin[l], at[l]));
      }
    }
    begin = at;
    ranges.push_back(std::exchange(open, {}));
  };
  while (at != stop) {
    // The next class: each level's rows of the smallest first item left.
    Item item = ~Item{0};
    for (size_t l = 0; l < n; ++l) {
      if (at[l] < stop[l]) item = std::min(item, levels[l].row(at[l])[0]);
    }
    u64 rows = 0, headers = 0, new_headers = 0;  // new: slices `open` lacks
    for (size_t l = 0; l < n; ++l) {
      const LevelView& level = levels[l];
      const u32 k = level.k();
      for (end[l] = at[l]; end[l] < stop[l] && level.row(end[l])[0] == item;
           ++end[l]) {
        const Item* row = level.row(end[l]);
        const u32 shared = end[l] == 0 ? 0 : static_cast<u32>(
            std::mismatch(row, row + k, row - k).first - row);
        rows += 4 * (2 * u64{k - shared} - 1);
      }
      if (end[l] == at[l]) continue;
      headers += 16 + 4 * (u64{k} + 1);
      if (begin[l] == at[l]) new_headers += 16 + 4 * (u64{k} + 1);
    }
    if (open.payload_bytes != 0 &&
        open.payload_bytes + rows + new_headers > cap_bytes) {
      close();
      new_headers = headers;
    }
    if (open.payload_bytes == 0) open.first_item = item;
    open.payload_bytes += rows + new_headers;
    at = end;
  }
  if (open.payload_bytes != 0) close();
  for (const u32 rows : stop) engine::work::add(rows);
  return ranges;
}

namespace {

/// The hash trees of `levels`, with their id offsets, shaped by `opt`.
std::shared_ptr<std::vector<HashTree>> build_trees(
    std::span<const LevelView> levels, const CountCoreOptions& opt) {
  auto trees = std::make_shared<std::vector<HashTree>>();
  for (const LevelView& level : levels) {
    trees->emplace_back(
        ItemsetRows{level.k(), {level.items().begin(), level.items().end()}},
        opt.branching, opt.leaf_capacity);
    trees->back().set_id_offset(level.id_offset);
  }
  return trees;
}

/// One range of the partitioned store and the kernel its tasks count on.
struct StoreShard {
  FirstItemRange range;
  DenseKernel kernel;
};

/// The counting job of the batch of `levels`, shipped as `ship`; the
/// levels' rows outlive the call, which runs the job to completion.
std::vector<CountPair> count_shipped(engine::Context& ctx,
                                     engine::RDD<Transaction>& transactions,
                                     std::span<const LevelView> levels,
                                     const BatchShipment& ship, u64 id_space,
                                     const sim::StageRecord* lineage,
                                     const CountCoreOptions& opt) {
  const bool use_hash_tree = opt.use_hash_tree;
  const u64 min_count = opt.min_count;
  const std::string& pass_name = opt.pass_name;
  const std::string payload_label =
      pass_name + ":" + (ship.kernel ? ship.kernel->payload_name() : "trees");
  const u32 pass = ctx.pass();

  // Without caching, Spark recomputes the transactions lineage from HDFS on
  // every action that reads them: charge the re-read and the re-parse.
  if (lineage) {
    sim::StageRecord recompute = *lineage;
    recompute.label = pass_name + ":recompute lineage";
    recompute.pass = pass;
    ctx.record(std::move(recompute));
  }

  if (!ship.partitioned && opt.count_mode == CountMode::kItemsetKey) {
    // Paper-faithful: every hit copies the itemset out of the tree and
    // the shuffle is keyed on it.
    auto broadcast_trees =
        ctx.broadcast(ship.trees, ship.bytes, payload_label);
    return transactions
        .flat_map([broadcast_trees, use_hash_tree](const Transaction& t) {
          std::vector<Itemset> occurrences;
          for (const HashTree& tree : **broadcast_trees) {
            for_each_hit(tree, t, use_hash_tree, [&](u32 ci) {
              occurrences.push_back(tree.rows().itemset(ci));
            });
          }
          return occurrences;
        })
        .map([](const Itemset& c) { return CountPair(c, 1); })
        .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0, ItemsetHash{},
                       pass_name + ":count")
        .named(pass_name + ":counts")
        .filter(
            [min_count](const CountPair& kv) { return kv.second >= min_count; })
        .named(pass_name + ":frequent")
        .collect(pass_name + ":collect");
  }

  // Both dense paths count into one id-indexed array per partition, merge
  // the arrays element-wise across the shuffle, and materialize itemsets
  // from the batch's rows only for MinSup survivors.
  std::vector<u64> counts;
  if (ship.partitioned) {
    // Partitioned candidate store: the batch is split into ranges of first
    // items, each shipped as the DenseKernel of its level slices to one
    // executor group, and transactions are re-partitioned to the ranges
    // their viable prefix items fall in. A slice counts into the same
    // batch-global dense cells a broadcast task would, so the merged counts
    // -- and everything downstream -- are bit-identical to the full path.
    ctx.linter().note_broadcast_fallback(
        ship.bytes, payload_label,
        /*forced=*/ctx.memory_budget().broadcast_fits(ship.bytes));
    ctx.memory_budget().note_fallback(ship.bytes);
    const u32 target = std::max<u32>(
        1, opt.broadcast_shards ? opt.broadcast_shards
                                : ctx.default_partitions());
    u64 payload = 0;
    for (const FirstItemRange& whole : split_first_items(levels, ~u64{0})) {
      payload += whole.payload_bytes;
    }
    engine::work::Scope shard_scope;
    auto store = std::make_shared<std::vector<StoreShard>>();
    u64 shard_bytes = 0;
    for (FirstItemRange& range :
         split_first_items(levels, ceil_div(payload, u64{target}))) {
      DenseKernel kernel(range.levels);
      shard_bytes += kernel.payload_bytes();
      store->push_back({std::move(range), std::move(kernel)});
    }
    {
      // Each range travels to one executor group instead of every node:
      // priced as a shuffle of the range kernels, not a broadcast.
      sim::StageRecord dist;
      dist.label = pass_name + ":shard-kernels";
      dist.kind = sim::StageKind::kSparkStage;
      dist.pass = pass;
      dist.driver_work = shard_scope.measured();
      dist.shuffle_bytes = shard_bytes;
      ctx.record(std::move(dist));
      obs::count(obs::CounterId::kShardShuffleBytes, shard_bytes);
    }
    const u32 kmin = opt.kmin;  // smallest candidate size in this batch
    const u32 nranges = std::max<u32>(1, static_cast<u32>(store->size()));
    counts =
        transactions
            .flat_map([store, kmin](const Transaction& t) {
              // Any candidate c contained in t has its first item at some
              // t[i] with at least |c|-1 items after it; route t once to
              // each distinct range of those prefix items, which ascend
              // with them.
              std::vector<std::pair<u32, Transaction>> out;
              for (size_t i = 0; i + kmin <= t.size(); ++i) {
                const auto above = std::upper_bound(
                    store->begin(), store->end(), t[i],
                    [](Item item, const StoreShard& shard) {
                      return item < shard.range.first_item;
                    });
                if (above == store->begin()) continue;  // before every range
                const u32 s = static_cast<u32>(above - store->begin() - 1);
                if (out.empty() || out.back().first != s) {
                  out.emplace_back(s, t);
                }
              }
              return out;
            })
            .named(pass_name + ":route")
            .group_by_key(nranges, ShardIdHash{}, pass_name + ":route")
            .map_partitions(
                [store, id_space](
                    const std::vector<
                        std::pair<u32, std::vector<Transaction>>>& part) {
                  std::vector<u64> acc(id_space, 0);
                  for (const auto& [shard, txns] : part) {
                    const StoreShard& s = (*store)[shard];
                    count_rows(txns, s.range.levels, s.kernel, acc.data());
                  }
                  std::vector<std::vector<u64>> out;
                  out.push_back(std::move(acc));
                  return out;
                })
            .named(pass_name + ":shard-count")
            .sum_arrays(id_space, pass_name + ":count");
  } else {
    // Dense, kernel chosen per task (count_rows): the pair matrix or the
    // trie walk until the bitmap kernel is cheaper for the rows left. The
    // batch ships as the kernel's payload, which holds every candidate row
    // the bitmap switch reads. The no-hash-tree ablation ships the same
    // payload and scans every candidate row linearly.
    auto shipped = ctx.broadcast(ship, ship.bytes, payload_label);
    counts =
        transactions
            .map_partitions([shipped, levels = std::vector<LevelView>(
                                          levels.begin(), levels.end()),
                             id_space, use_hash_tree](
                                const std::vector<Transaction>& part) {
              std::vector<u64> acc(id_space, 0);
              if (use_hash_tree) {
                count_rows(part, levels, *shipped->kernel, acc.data());
              } else {
                for (const Transaction& t : part) {
                  for (const LevelView& level : levels) {
                    for (u32 ci = 0; ci < level.size(); ++ci) {
                      const Item* c = level.row(ci);
                      if (std::includes(t.begin(), t.end(), c,
                                        c + level.k())) {
                        ++acc[level.id_offset + ci];
                      }
                    }
                    engine::work::add(level.size());
                  }
                }
              }
              std::vector<std::vector<u64>> out;
              out.push_back(std::move(acc));
              return out;
            })
            .sum_arrays(id_space, pass_name + ":count");
  }

  engine::work::Scope mat_scope;
  std::vector<CountPair> frequent;
  for (const LevelView& level : levels) {
    const u64* cells = counts.data() + level.id_offset;
    for (u32 ci = 0; ci < level.size(); ++ci) {
      engine::work::add(1);
      if (cells[ci] >= min_count) {
        frequent.emplace_back(level.itemset(ci), cells[ci]);
      }
    }
  }
  sim::StageRecord mat;
  mat.label = pass_name + ":materialize";
  mat.kind = sim::StageKind::kOverhead;
  mat.pass = pass;
  mat.driver_work = mat_scope.measured();
  ctx.record(std::move(mat));
  return frequent;
}

}  // namespace

BatchShipment ship_batch(const engine::Context& ctx,
                         const CandidateBatch& batch, BroadcastMode mode,
                         const CountCoreOptions& opt) {
  BatchShipment ship;
  if (opt.count_mode == CountMode::kCandidateId) {
    ship.kernel = std::make_shared<const DenseKernel>(batch.levels());
    ship.bytes = ship.kernel->payload_bytes();
    if (ship.kernel->pairs()) return ship;
  } else {
    ship.trees = build_trees(batch.levels(), opt);
    ship.bytes = HashTree::serialized_bytes(*ship.trees);
  }
  ship.partitioned = mode == BroadcastMode::kPartitioned ||
                     (mode == BroadcastMode::kAuto &&
                      !ctx.memory_budget().broadcast_fits(ship.bytes));
  return ship;
}

std::vector<CountPair> count_candidate_trees(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const std::shared_ptr<std::vector<HashTree>>& trees, u64 tree_bytes,
    u64 id_space, const sim::StageRecord* lineage,
    const CountCoreOptions& opt) {
  const std::vector<LevelView> levels = level_views(*trees);
  BatchShipment ship{nullptr, trees, tree_bytes, opt.partitioned};
  if (opt.count_mode == CountMode::kCandidateId) {
    // A pair batch never shards, whatever opt.partitioned says.
    auto kernel = std::make_shared<const DenseKernel>(levels);
    if (kernel->pairs() || !opt.partitioned) {
      ship = {kernel, nullptr, kernel->payload_bytes(), false};
    }
  }
  return count_shipped(ctx, transactions, levels, ship, id_space, lineage,
                       opt);
}

std::vector<CountPair> count_batch(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const CandidateBatch& batch, BroadcastMode broadcast_mode,
    CountCoreOptions opt, const sim::StageRecord* lineage) {
  const BatchShipment ship = ship_batch(ctx, batch, broadcast_mode, opt);
  opt.kmin = batch.kmin();
  return count_shipped(ctx, transactions, batch.levels(), ship,
                       batch.id_space(), lineage, opt);
}

std::vector<Transaction> decode_transactions(const std::vector<u8>& bytes) {
  return TransactionDB::deserialize(bytes).release();
}

ItemCountJob frequent_items_job(const std::string& name, u64 min_count,
                                u32 num_mappers, u32 num_reducers) {
  auto job = counting_job<ItemCountJob>(
      name, min_count, num_mappers, num_reducers,
      [](Singleton key) { return Itemset{key.item}; });
  job.map_fn = [](const Transaction& t, mr::Emitter<Singleton, u64>& emit) {
    for (Item i : t) emit.emit(Singleton{i}, 1);
  };
  return job;
}

ItemsetCountJob itemset_count_job(
    const std::string& name, std::shared_ptr<const std::vector<HashTree>> trees,
    u64 min_count, u32 num_mappers, u32 num_reducers) {
  auto job = counting_job<ItemsetCountJob>(
      name, min_count, num_mappers, num_reducers,
      [](const Itemset& key) { return key; });
  job.distributed_cache_bytes = HashTree::serialized_bytes(*trees);
  job.map_fn = [trees](const Transaction& t,
                       mr::Emitter<Itemset, u64>& emit) {
    for (const HashTree& tree : *trees) {
      for_each_hit(tree, t, true,
                   [&](u32 ci) { emit.emit(tree.rows().itemset(ci), 1); });
    }
  };
  return job;
}

CandidateIdJob candidate_id_job(const std::string& name,
                                std::span<const LevelView> levels,
                                std::shared_ptr<const DenseKernel> kernel,
                                u64 min_count, u32 num_mappers,
                                u32 num_reducers) {
  YAFIM_CHECK(!levels.empty(), "an id-keyed job counts at least one level");
  const u64 id_space = levels.back().id_offset + levels.back().size();
  auto views = std::make_shared<const std::vector<LevelView>>(levels.begin(),
                                                              levels.end());
  auto job = counting_job<CandidateIdJob>(
      name, min_count, num_mappers, num_reducers, [views](u32 id) {
        // The last level whose range starts at or before `id` owns it.
        const auto owner = std::prev(std::upper_bound(
            views->begin(), views->end(), id,
            [](u32 v, const LevelView& level) { return v < level.id_offset; }));
        return owner->itemset(id - owner->id_offset);
      });
  job.distributed_cache_bytes = kernel->payload_bytes();
  job.map_partition_fn = [views, kernel, id_space](
                             std::span<const Transaction> split,
                             mr::Emitter<u32, u64>& emit) {
    std::vector<u64> cells(id_space, 0);
    count_rows(split, *views, *kernel, cells.data());
    for (u32 id = 0; id < cells.size(); ++id) {
      if (cells[id] != 0) emit.emit(id, cells[id]);
    }
  };
  return job;
}

}  // namespace yafim::fim
