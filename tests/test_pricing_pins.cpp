// Pricing pins for every Apriori-family miner.
//
// Each case mines one small seeded database and folds what the simulator
// prices into one digest: per stage the label, kind, pass, task count,
// summed task work, driver work and the shuffle, broadcast and DFS bytes;
// the bits of total_seconds(); the per-pass candidate and frequent counts;
// the plan linter's findings and the memory ledger's totals. A change to a
// stage label, stage order, work unit, byte count or simulated second of any
// of these miners fails a pin here. Re-record a pin only for a deliberate
// pricing change: the failure message prints the new digest and the text it
// was taken over.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "engine/lint.h"
#include "fim/checkpoint.h"
#include "fim/mr_apriori.h"
#include "fim/sampling.h"
#include "fim/son.h"
#include "fim/yafim.h"
#include "simfs/simfs.h"
#include "stream/miner.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

constexpr CountMode kAllModes[] = {CountMode::kItemsetKey,
                                   CountMode::kCandidateId};

engine::Context::Options pinned_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  // Injection off whatever the environment says; the linter on, so its
  // findings (dead caches, broadcast fallbacks) are pinned too.
  opts.fault = engine::FaultProfile{};
  opts.lint.enabled = true;
  return opts;
}

TransactionDB random_db(u32 universe, int transactions, double density,
                        u64 seed) {
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < transactions; ++i) {
    Transaction t;
    for (u32 item = 0; item < universe; ++item) {
      if (rng.bernoulli(density)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<Item>(rng.below(universe)));
    tx.push_back(std::move(t));
  }
  return TransactionDB(std::move(tx));
}

/// Dense enough for four Apriori levels at 25% support.
const TransactionDB& level_db() {
  static const TransactionDB db = random_db(16, 200, 0.7, 100);
  return db;
}

/// Everything `ctx` priced, one line per stage, then the ledger and lint.
std::string priced(engine::Context& ctx) {
  std::ostringstream out;
  for (const sim::StageRecord& st : ctx.report().stages()) {
    u64 work = 0;
    for (const sim::TaskRecord& task : st.tasks) work += task.work;
    out << st.label << ' ' << static_cast<int>(st.kind) << ' ' << st.pass
        << ' ' << st.tasks.size() << ' ' << work << ' ' << st.driver_work
        << ' ' << st.shuffle_bytes << ' ' << st.broadcast_bytes << ' '
        << st.dfs_read_bytes << ' ' << st.dfs_write_bytes << '\n';
  }
  const double total = ctx.report().total_seconds(ctx.cost_model());
  u64 bits = 0;
  std::memcpy(&bits, &total, sizeof(bits));
  out << "total_seconds " << std::hex << bits << std::dec << '\n';
  const engine::MemoryBudget& ledger = ctx.memory_budget();
  out << "ledger " << ledger.broadcast_fallbacks() << ' '
      << ledger.cached_bytes() << ' ' << ledger.broadcast_resident_bytes()
      << '\n';
  ctx.linter().finalize();
  for (const engine::LintDiagnostic& diag : ctx.linter().diagnostics()) {
    out << engine::PlanLinter::format(diag) << '\n';
  }
  return out.str();
}

std::string passes(const MiningRun& run) {
  std::ostringstream out;
  for (const PassStats& p : run.passes) {
    out << "pass " << p.k << ' ' << p.candidates << ' ' << p.frequent << '\n';
  }
  out << "itemsets " << run.itemsets.total() << '\n';
  return out.str();
}

void expect_pin(const std::string& name, const std::string& text,
                u64 pinned) {
  const u64 digest = xxh64(text);
  EXPECT_EQ(digest, pinned) << name << ": digest 0x" << std::hex << digest
                            << std::dec << " over\n"
                            << text;
}

std::string mode_name(CountMode mode, BroadcastMode bmode) {
  return std::string(count_mode_name(mode)) + "/" +
         broadcast_mode_name(bmode);
}

std::string mine_yafim(const YafimOptions& opt,
                       engine::Context::Options copts = pinned_cluster()) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const MiningRun run = yafim_mine(ctx, fs, level_db(), opt);
  return passes(run) + priced(ctx);
}

YafimOptions yafim_options(CountMode mode, BroadcastMode bmode) {
  YafimOptions opt;
  opt.min_support = 0.25;
  opt.count_mode = mode;
  opt.broadcast_mode = bmode;
  return opt;
}

TEST(PricingPins, Yafim) {
  const u64 pins[] = {
      0x436c42d407ac34c7, 0xaff72e0d0d477d3,
      0x8387ab2ca5cef69a, 0xa80536d61b157e2c,
      0x2e6282aa354c90d3, 0x7f36032acc74a938,
      0xf9223c2c09ec040f, 0x29e21ad1a0768bc4};
  size_t i = 0;
  for (CountMode mode : kAllModes) {
    for (BroadcastMode bmode :
         {BroadcastMode::kAuto, BroadcastMode::kPartitioned}) {
      for (bool cache : {true, false}) {
        YafimOptions opt = yafim_options(mode, bmode);
        opt.cache_transactions = cache;
        expect_pin("yafim " + mode_name(mode, bmode) +
                       (cache ? " cached" : " uncached"),
                   mine_yafim(opt), pins[i++]);
      }
    }
  }
}

/// The combining strategies pinned for both miners: FPC with two levels
/// per pass from level 4 on, and DPC at its default budget.
std::vector<std::pair<std::string, PassCombining>> combined_strategies() {
  PassCombining fpc;
  fpc.strategy = CombineStrategy::kFixedPasses;
  fpc.fixed_passes = 2;
  PassCombining dpc;
  dpc.strategy = CombineStrategy::kDynamic;
  return {{"fpc", fpc}, {"dpc", dpc}};
}

TEST(PricingPins, YafimCombinedPasses) {
  const u64 pins[] = {0x961a2367f1ba0fab, 0x8e5c041efc4ff0a,
                      0xbea4f208db42129d, 0x4645e2573111d518};
  size_t i = 0;
  for (const auto& [name, combining] : combined_strategies()) {
    for (CountMode mode : kAllModes) {
      YafimOptions opt = yafim_options(mode, BroadcastMode::kAuto);
      opt.combining = combining;
      expect_pin("yafim " + name + " " + count_mode_name(mode),
                 mine_yafim(opt), pins[i++]);
    }
  }
}

TEST(PricingPins, YafimFallsBackUnderATightBudget) {
  // Small enough that the larger passes shard and the smaller broadcast:
  // passes 3-5 ship 15-57 KiB of hash trees under itemset_key, 3-12 KiB of
  // tries under candidate_id.
  struct Case {
    CountMode mode;
    u64 executor_memory;
    u64 pin;
  };
  const Case cases[] = {
      {CountMode::kItemsetKey, 24 << 10, 0x52807235746da437},
      {CountMode::kCandidateId, 8 << 10, 0x7c7b816b20c7c716}};
  for (const Case& c : cases) {
    engine::Context::Options copts = pinned_cluster();
    copts.cluster.executor_memory_bytes = c.executor_memory;
    expect_pin(std::string("yafim tight budget ") + count_mode_name(c.mode),
               mine_yafim(yafim_options(c.mode, BroadcastMode::kAuto), copts),
               c.pin);
  }
}

TEST(PricingPins, YafimCheckpointResume) {
  const engine::Context::Options copts = pinned_cluster();
  simfs::SimFS store_fs(copts.cluster);
  SimFSCheckpointStore store(store_fs, "hdfs://pins/checkpoints");
  YafimOptions opt = yafim_options(CountMode::kCandidateId,
                                   BroadcastMode::kAuto);
  opt.cache_transactions = false;
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  expect_pin("yafim stop after pass 2", mine_yafim(opt, copts),
             0x8898114fdd2e7211);
  opt.stop_after_pass = 0;
  expect_pin("yafim resumed after pass 2", mine_yafim(opt, copts),
             0x6c53830a06b79d04);
}

std::string mine_sampling(const SamplingOptions& opt) {
  static const TransactionDB db = random_db(16, 300, 0.35, 21);
  engine::Context ctx(pinned_cluster());
  simfs::SimFS fs(ctx.cluster());
  const SamplingRun sres = sampling_mine(ctx, fs, db, opt);
  std::ostringstream out;
  out << "union " << sres.candidate_union << ' ' << sres.border_union
      << " exact " << sres.exact << '\n';
  return out.str() + passes(sres.run) + priced(ctx);
}

SamplingOptions sampling_options(SplitStrategy strategy, CountMode mode) {
  SamplingOptions opt;
  opt.min_support = 0.2;
  opt.strategy = strategy;
  opt.sample_fraction = 0.3;
  opt.num_samples = 4;
  opt.relax = 0.5;
  opt.seed = 7;
  opt.count_mode = mode;
  return opt;
}

TEST(PricingPins, Sampling) {
  const u64 pins[] = {0x8415b3c5152862f1, 0x47d4f1152da25441,
                      0x263979e5df46d8db, 0x444740c5eecb9c1e};
  size_t i = 0;
  for (SplitStrategy strategy :
       {SplitStrategy::kBernoulliSamples, SplitStrategy::kDisjointSplits}) {
    for (CountMode mode : kAllModes) {
      expect_pin(std::string(strategy == SplitStrategy::kDisjointSplits
                                 ? "sampling disjoint "
                                 : "sampling bernoulli ") +
                     count_mode_name(mode),
                 mine_sampling(sampling_options(strategy, mode)), pins[i++]);
    }
  }
  SamplingOptions partitioned = sampling_options(
      SplitStrategy::kBernoulliSamples, CountMode::kCandidateId);
  partitioned.broadcast_mode = BroadcastMode::kPartitioned;
  expect_pin("sampling partitioned", mine_sampling(partitioned),
             0x8321e14d4b21d3c0);
  SamplingOptions uncached = sampling_options(
      SplitStrategy::kBernoulliSamples, CountMode::kCandidateId);
  uncached.cache_transactions = false;
  expect_pin("sampling uncached", mine_sampling(uncached),
             0xed17b21a3bb200e5);
}

std::string mine_stream(CountMode mode, BroadcastMode bmode) {
  static const TransactionDB db = random_db(12, 150, 0.4, 21);
  stream::StreamOptions opt;
  opt.min_support = 0.25;
  opt.num_batches = 2;
  opt.source.window_s = 1.0;
  opt.source.ingest_rate = 120.0;
  opt.count_mode = mode;
  opt.broadcast_mode = bmode;
  engine::Context ctx(pinned_cluster());
  simfs::SimFS fs(ctx.cluster());
  const stream::StreamResult res = stream::stream_mine(ctx, fs, db, opt);
  std::ostringstream out;
  out << "stream " << res.total_transactions << ' ' << res.itemsets.total()
      << ' ' << res.reverifications << '\n';
  return out.str() + priced(ctx);
}

TEST(PricingPins, Stream) {
  const u64 pins[] = {0x2987156dd9189e3e, 0xab71d195f42b0cb6};
  size_t i = 0;
  for (CountMode mode : kAllModes) {
    expect_pin(std::string("stream ") + count_mode_name(mode),
               mine_stream(mode, BroadcastMode::kAuto), pins[i++]);
  }
  // Every counting batch of this stream is a pair batch, which the dense
  // mode never shards: the stream's shard path is pinned in itemset_key.
  expect_pin("stream partitioned",
             mine_stream(CountMode::kCandidateId,
                         BroadcastMode::kPartitioned),
             0xab71d195f42b0cb6);
  expect_pin("stream itemset_key partitioned",
             mine_stream(CountMode::kItemsetKey, BroadcastMode::kPartitioned),
             0x12fe9277d3f29588);
}

std::string mine_mr(const MrAprioriOptions& opt,
                    engine::Context::Options copts = pinned_cluster()) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const MiningRun run = mr_apriori_mine(ctx, fs, level_db(), opt);
  return passes(run) + priced(ctx);
}

MrAprioriOptions mr_options(CountMode mode, BroadcastMode bmode) {
  MrAprioriOptions opt;
  opt.min_support = 0.25;
  opt.count_mode = mode;
  opt.broadcast_mode = bmode;
  return opt;
}

TEST(PricingPins, MrApriori) {
  const u64 pins[] = {
      0xc562fa6193017913, 0xef3aa1c12660eeb3,
      0x66fb543c41d76984, 0x9605989fe0827ab6};
  size_t i = 0;
  for (CountMode mode : kAllModes) {
    for (BroadcastMode bmode :
         {BroadcastMode::kAuto, BroadcastMode::kPartitioned}) {
      expect_pin("mrapriori " + mode_name(mode, bmode),
                 mine_mr(mr_options(mode, bmode)), pins[i++]);
    }
  }
  // A budget below the tries of jobs 4 and 5 (11,788 and 8,616 B), so both
  // split into the first-item ranges that fit it: two sub-jobs each.
  engine::Context::Options copts = pinned_cluster();
  copts.cluster.executor_memory_bytes = 8 << 10;
  expect_pin("mrapriori tight budget",
             mine_mr(mr_options(CountMode::kCandidateId, BroadcastMode::kAuto),
                     copts),
             0x82a01e2a24363236);
}

TEST(PricingPins, MrAprioriCombining) {
  const u64 pins[] = {0xca26a5316c6d7cfb, 0x226567f884bd8951,
                      0x8cde99f7bd7185e8, 0xa1388d1806b0726d};
  size_t i = 0;
  for (const auto& [name, combining] : combined_strategies()) {
    for (CountMode mode : kAllModes) {
      MrAprioriOptions opt = mr_options(mode, BroadcastMode::kAuto);
      opt.combining = combining;
      expect_pin("mrapriori " + name + " " + count_mode_name(mode),
                 mine_mr(opt), pins[i++]);
    }
  }
  // Every sub-job ships the kernel of one first-item range's slices of the
  // batch's levels.
  MrAprioriOptions partitioned =
      mr_options(CountMode::kCandidateId, BroadcastMode::kPartitioned);
  partitioned.combining = combined_strategies()[1].second;
  expect_pin("mrapriori dpc partitioned", mine_mr(partitioned),
             0x26ad094ef6ecd3ec);
}

TEST(PricingPins, Son) {
  SonOptions opt;
  opt.min_support = 0.25;
  engine::Context ctx(pinned_cluster());
  simfs::SimFS fs(ctx.cluster());
  const SonRun son = son_mine(ctx, fs, level_db(), opt);
  std::ostringstream out;
  out << "union " << son.candidate_union << " false "
      << son.false_candidates << '\n';
  expect_pin("son", out.str() + passes(son.run) + priced(ctx),
             0x63c2fbeb46fe2af7);
}

}  // namespace
}  // namespace yafim::fim
