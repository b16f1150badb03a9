#include "fim/sampling.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "util/stopwatch.h"

namespace yafim::fim {

namespace {

/// Identity hash for sample ids: sample s lands in reduce partition
/// s % num_samples of the gather shuffle, so each local-mine task owns
/// whole samples.
struct SampleIdHash {
  size_t operator()(u32 sample) const { return sample; }
};

/// What one local-mine task reports back to the driver per sample.
struct LocalResult {
  u32 sample_id = 0;
  u64 sample_size = 0;
  /// Locally frequent itemsets at the relaxed threshold, all levels.
  std::vector<Itemset> frequent;
  /// Negative border of the local result (empty for disjoint splits).
  std::vector<Itemset> border;
};

/// Serialized-size estimate for the engine's partition pricing (found by
/// ADL from engine::byte_size).
u64 byte_size(const LocalResult& r) {
  return sizeof(r.sample_id) + sizeof(r.sample_size) +
         engine::byte_size(r.frequent) + engine::byte_size(r.border);
}

}  // namespace

std::vector<Itemset> negative_border(const FrequentItemsets& frequent,
                                     const std::vector<Item>& universe) {
  std::vector<Itemset> border;
  // Level 1: the empty set is trivially frequent, so every non-frequent
  // *universe* item is minimal. The universe must come from the full
  // dataset -- an item the sample never drew is exactly the kind of miss
  // the border exists to catch.
  for (Item item : universe) {
    if (!frequent.contains(Itemset{item})) border.push_back(Itemset{item});
  }
  // Level k: apriori_gen's join+prune emits precisely the k-itemsets all
  // of whose (k-1)-subsets are frequent; those not themselves frequent
  // are minimal misses. Downward closure of `frequent` makes "all
  // (k-1)-subsets frequent" equivalent to "all proper subsets frequent".
  for (u32 k = 2; k <= frequent.max_k() + 1; ++k) {
    const SupportMap& prev = frequent.level(k - 1);
    if (prev.empty()) break;
    std::vector<Itemset> prev_sets;
    prev_sets.reserve(prev.size());
    for (const auto& [itemset, support] : prev) {
      (void)support;
      prev_sets.push_back(itemset);
    }
    const ItemsetRows candidates =
        apriori_gen_rows(to_sorted_rows(prev_sets), k);
    for (size_t i = 0; i < candidates.size(); ++i) {
      Itemset candidate = candidates.itemset(i);
      if (!frequent.contains(candidate)) border.push_back(std::move(candidate));
    }
  }
  return border;
}

SamplingRun sampling_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const std::string& input_path,
                          const SamplingOptions& options) {
  YAFIM_CHECK(options.min_support > 0.0 && options.min_support <= 1.0,
              "relative support must be in (0, 1]");
  YAFIM_CHECK(options.num_samples >= 1 && options.num_samples <= 64,
              "num_samples must be in [1, 64]");
  const bool disjoint = options.strategy == SplitStrategy::kDisjointSplits;
  YAFIM_CHECK(disjoint || (options.sample_fraction > 0.0 &&
                           options.sample_fraction <= 1.0),
              "sample_fraction must be in (0, 1]");
  YAFIM_CHECK(options.relax > 0.0 && options.relax <= 1.0,
              "relax must be in (0, 1]");
  // Disjoint splits are the SON special case: locally mining below the
  // full relative threshold buys nothing (completeness already holds at
  // r = 1) and would only inflate the candidate union.
  const double relax = disjoint ? 1.0 : options.relax;

  const size_t first_stage = ctx.report().stages().size();
  ctx.set_spill_fs(&fs);

  // ---- Phase 0: load + stage the dataset (same shape as yafim_mine) ----
  ctx.set_pass(0);
  TransactionDB db;
  u64 input_bytes = 0;  // all the mine keeps of the input's bytes
  {
    const std::vector<u8> raw = fs.read(input_path);
    db = TransactionDB::deserialize(raw);
    input_bytes = raw.size();
  }
  const u32 load_tasks =
      options.partitions ? options.partitions : ctx.default_partitions();
  sim::StageRecord load;
  load.label = "load:textFile+parse";
  load.kind = sim::StageKind::kSparkStage;
  load.pass = ctx.pass();
  load.tasks = sim::split_work(
      db.size() * (1 + ctx.cluster().record_parse_work), load_tasks);
  load.dfs_read_bytes = input_bytes;
  ctx.record(load);

  const u64 num_transactions = db.size();
  const u64 min_count = min_count_ceil(options.min_support, num_transactions);
  SamplingRun sres;
  MiningRun& run = sres.run;
  run.itemsets = FrequentItemsets(min_count, num_transactions);
  sres.sample_sizes.assign(options.num_samples, 0);
  if (num_transactions == 0) {
    sres.exact = true;
    return sres;
  }

  // Full-dataset item universe, snapshotted at the driver while the DB is
  // still in hand: level-1 negative borders must range over items a
  // sample may never have drawn.
  std::vector<Item> universe;
  {
    engine::work::Scope universe_scope;
    std::vector<u8> seen;
    for (const Transaction& t : db.transactions()) {
      engine::work::add(t.size());
      for (Item item : t) {
        if (item >= seen.size()) seen.resize(item + 1, 0);
        seen[item] = 1;
      }
    }
    for (u32 item = 0; item < seen.size(); ++item) {
      if (seen[item]) universe.push_back(item);
    }
    sim::StageRecord stage;
    stage.label = "twophase:universe";
    stage.kind = sim::StageKind::kOverhead;
    stage.pass = 0;
    stage.driver_work = universe_scope.measured();
    ctx.record(std::move(stage));
  }

  auto transactions =
      ctx.parallelize(db.release(), options.partitions)
          .map([](const Transaction& t) { return t; })
          .named("transactions");
  if (options.cache_transactions) {
    transactions.persist();
    ctx.memory_budget().note_cached(input_bytes);
  }

  // ---- Pass 1: draw every sample and mine it locally, in one scan ------
  ctx.set_pass(1);
  const u32 num_samples = options.num_samples;
  auto tagged = (disjoint ? transactions.disjoint_splits(num_samples)
                          : transactions.sample_each(
                                num_samples, options.sample_fraction,
                                options.seed))
                    .named("twophase:tagged");
  const double local_support = options.min_support * relax;
  const bool with_border = !disjoint;
  const std::vector<LocalResult> locals =
      tagged
          .group_by_key(num_samples, SampleIdHash{}, "twophase:gather")
          .map_partitions(
              [universe, local_support, with_border](
                  const std::vector<std::pair<u32, std::vector<Transaction>>>&
                      part) {
                std::vector<LocalResult> out;
                for (const auto& [sample_id, txns] : part) {
                  LocalResult result;
                  result.sample_id = sample_id;
                  result.sample_size = txns.size();
                  TransactionDB sample{std::vector<Transaction>(txns)};
                  AprioriOptions opt;
                  opt.min_support = local_support;
                  // The relaxed local threshold goes through the same ceil
                  // helper as every global threshold (fim/dataset.h).
                  opt.min_count = min_count_ceil(local_support, txns.size());
                  const MiningRun mined = apriori_mine(sample, opt);
                  // apriori_mine runs outside the engine's work meter;
                  // charge one sample scan per level as its task cost.
                  engine::work::add(result.sample_size *
                                    mined.passes.size());
                  for (const auto& [itemset, support] :
                       mined.itemsets.sorted()) {
                    (void)support;
                    result.frequent.push_back(itemset);
                  }
                  if (with_border) {
                    result.border = negative_border(mined.itemsets, universe);
                  }
                  out.push_back(std::move(result));
                }
                return out;
              })
          .named("twophase:local-mine")
          .collect("twophase:local-mine");

  // ---- Driver: union candidates + borders, build the counting batch ----
  ctx.set_pass(2);
  engine::work::Scope union_scope;
  struct CandidateInfo {
    bool locally_frequent = false;
    u64 border_mask = 0;  // bit s set: in sample s's negative border
  };
  std::unordered_map<Itemset, CandidateInfo, ItemsetHash, ItemsetEq> cand;
  u64 seen_samples = 0;
  for (const LocalResult& local : locals) {
    seen_samples |= u64{1} << local.sample_id;
    sres.sample_sizes[local.sample_id] = local.sample_size;
    for (const Itemset& itemset : local.frequent) {
      cand[itemset].locally_frequent = true;
    }
    for (const Itemset& itemset : local.border) {
      cand[itemset].border_mask |= u64{1} << local.sample_id;
    }
  }
  if (with_border) {
    // A sample that drew nothing produces no LocalResult at all; its
    // frequent set is empty, so its border is every universe item.
    for (u32 s = 0; s < num_samples; ++s) {
      if (seen_samples & (u64{1} << s)) continue;
      for (Item item : universe) {
        cand[Itemset{item}].border_mask |= u64{1} << s;
      }
    }
  }
  for (const auto& [itemset, info] : cand) {
    (void)itemset;
    if (info.locally_frequent) {
      ++sres.candidate_union;
    } else {
      ++sres.border_union;
    }
  }
  run.passes.push_back(PassStats{1, sres.candidate_union, 0, 0.0});

  u32 max_size = 0;
  for (const auto& [itemset, info] : cand) {
    (void)info;
    max_size = std::max<u32>(max_size, static_cast<u32>(itemset.size()));
  }
  std::vector<std::vector<Itemset>> by_size(max_size);
  for (const auto& [itemset, info] : cand) {
    (void)info;
    by_size[itemset.size() - 1].push_back(itemset);
  }
  // Canonical candidate order inside each tree: keeps tree shapes (and so
  // probe work, stage pricing and the dense id layout) independent of the
  // unordered_map's iteration order.
  std::vector<ItemsetRows> levels;
  for (const std::vector<Itemset>& level : by_size) {
    levels.push_back(to_sorted_rows(level));
  }
  const CandidateBatch batch(std::move(levels));
  {
    sim::StageRecord stage;
    stage.label = "twophase:union+buildHashTree";
    stage.kind = sim::StageKind::kOverhead;
    stage.pass = 2;
    stage.driver_work = union_scope.measured();
    ctx.record(std::move(stage));
  }

  // ---- Pass 2: one full-data verification pass over the whole batch ----
  // The batch spans every level, singletons included.
  std::vector<CountPair> verified;
  if (!batch.empty()) {
    Stopwatch count_clock;
    verified = count_batch(
        ctx, transactions, batch, options.broadcast_mode,
        {.count_mode = options.count_mode,
         .min_count = min_count,
         .pass_name = "verify"},
        options.cache_transactions ? nullptr : &load);
    run.count_host_seconds += count_clock.seconds();
  }

  // ---- Exactness: Toivonen's certificate -------------------------------
  u64 survivor_masks = 0;  // OR of border masks over verified itemsets
  u64 verified_candidates = 0;
  for (auto& [itemset, support] : verified) {
    const auto it = cand.find(itemset);
    YAFIM_CHECK(it != cand.end(), "verified itemset missing from batch");
    if (it->second.locally_frequent) ++verified_candidates;
    if (it->second.border_mask != 0) {
      ++sres.border_survivors;
      survivor_masks |= it->second.border_mask;
    }
    run.itemsets.add(std::move(itemset), support);
  }
  sres.false_candidates = sres.candidate_union - verified_candidates;
  if (disjoint) {
    // SON property: the splits cover the data, so every globally frequent
    // itemset is locally frequent somewhere -- complete by construction.
    sres.exact = true;
  } else {
    // Exact iff some sample kept its whole border below MinSup: that
    // sample's frequent set then contains every globally frequent itemset.
    const u64 all_samples =
        num_samples == 64 ? ~u64{0} : (u64{1} << num_samples) - 1;
    sres.exact = survivor_masks != all_samples;
  }
  if (!sres.exact) {
    const double eps = options.min_support * (1.0 - relax);
    double bound = 1.0;
    for (u64 m : sres.sample_sizes) {
      bound *= std::exp(-2.0 * static_cast<double>(m) * eps * eps);
    }
    sres.miss_bound = std::min(1.0, bound);
  }
  run.passes.push_back(PassStats{2, sres.candidate_union + sres.border_union,
                                 verified.size(), 0.0});
  run.passes[0].frequent = verified.size();

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  return sres;
}

SamplingRun sampling_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const TransactionDB& db,
                          const SamplingOptions& options) {
  const std::string path = "hdfs://staging/sampling-input";
  fs.write(path, db.serialize());
  return sampling_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
