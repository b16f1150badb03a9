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
#include "fim/spc_fpc_dpc.h"
#include "fim/yafim.h"
#include "simfs/simfs.h"
#include "stream/miner.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

constexpr CountMode kAllModes[] = {CountMode::kItemsetKey,
                                   CountMode::kCandidateId,
                                   CountMode::kVerticalBitmap};

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
      0x13ebcfe50a5de044, 0x15f64200cb60439a,
      0xc86c9b9be1b3c940, 0xe8392f1021235451,
      0x13ebcfe50a5de044, 0x15f64200cb60439a,
      0xacb303e61f3be822, 0x39ebbc2e6a3bb14,
      0x13ebcfe50a5de044, 0x15f64200cb60439a};
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

TEST(PricingPins, YafimCombinedPasses) {
  const u64 pins[] = {0x68d67e44b5a3c52b, 0x173ac67c2f800ac,
                      0xf22c061721edc92f};
  size_t i = 0;
  for (CountMode mode : kAllModes) {
    YafimOptions opt = yafim_options(mode, BroadcastMode::kAuto);
    opt.combine_passes = 2;
    expect_pin(std::string("yafim combine_passes=2 ") + count_mode_name(mode),
               mine_yafim(opt), pins[i++]);
  }
}

TEST(PricingPins, YafimFallsBackUnderATightBudget) {
  // Small enough that the larger passes shard and the smaller broadcast.
  engine::Context::Options copts = pinned_cluster();
  copts.cluster.executor_memory_bytes = 24 << 10;
  const u64 pins[] = {0x48d51ab53cb1f0c4, 0xd6bf35ab837511fa,
                      0x4a26bba789db69b0};
  size_t i = 0;
  for (CountMode mode : kAllModes) {
    expect_pin(std::string("yafim tight budget ") + count_mode_name(mode),
               mine_yafim(yafim_options(mode, BroadcastMode::kAuto), copts),
               pins[i++]);
  }
}

TEST(PricingPins, YafimCheckpointResume) {
  const engine::Context::Options copts = pinned_cluster();
  simfs::SimFS store_fs(copts.cluster);
  SimFSCheckpointStore store(store_fs, "hdfs://pins/checkpoints");
  YafimOptions opt = yafim_options(CountMode::kVerticalBitmap,
                                   BroadcastMode::kAuto);
  opt.cache_transactions = false;
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  expect_pin("yafim stop after pass 2", mine_yafim(opt, copts),
             0x5f569ac934685ed0);
  opt.stop_after_pass = 0;
  expect_pin("yafim resumed after pass 2", mine_yafim(opt, copts),
             0x8ea5c74de7f45759);
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
  const u64 pins[] = {0x8415b3c5152862f1, 0x8aeac98e217bb778,
                      0x263979e5df46d8db, 0x8fd69baaae80cac0};
  size_t i = 0;
  for (SplitStrategy strategy :
       {SplitStrategy::kBernoulliSamples, SplitStrategy::kDisjointSplits}) {
    for (CountMode mode :
         {CountMode::kItemsetKey, CountMode::kVerticalBitmap}) {
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
             0xc1b06fc93c89b2f3);
  SamplingOptions uncached = sampling_options(
      SplitStrategy::kBernoulliSamples, CountMode::kVerticalBitmap);
  uncached.cache_transactions = false;
  expect_pin("sampling uncached bitmap", mine_sampling(uncached),
             0x7da92fcfa88f3b0f);
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
  const u64 pins[] = {0xab88deed2d1ef56f, 0x75e7868bd35326a7,
                      0x779c0a214f9c8b8b};
  size_t i = 0;
  for (CountMode mode : kAllModes) {
    expect_pin(std::string("stream ") + count_mode_name(mode),
               mine_stream(mode, BroadcastMode::kAuto), pins[i++]);
  }
  expect_pin("stream partitioned",
             mine_stream(CountMode::kVerticalBitmap,
                         BroadcastMode::kPartitioned),
             0xac2ed4f5578781b1);
}

std::string mine_mr(CountMode mode, BroadcastMode bmode,
                    engine::Context::Options copts = pinned_cluster()) {
  MrAprioriOptions opt;
  opt.min_support = 0.25;
  opt.count_mode = mode;
  opt.broadcast_mode = bmode;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const MiningRun run = mr_apriori_mine(ctx, fs, level_db(), opt);
  return passes(run) + priced(ctx);
}

TEST(PricingPins, MrApriori) {
  const u64 pins[] = {
      0xc562fa6193017913, 0x941bdf2291a74d51,
      0xa745b4514467240d, 0x67318f3d17d7e9b4,
      0xae4321457c196368, 0xc753e85b040e72de};
  size_t i = 0;
  for (CountMode mode : kAllModes) {
    for (BroadcastMode bmode :
         {BroadcastMode::kAuto, BroadcastMode::kPartitioned}) {
      expect_pin("mrapriori " + mode_name(mode, bmode), mine_mr(mode, bmode),
                 pins[i++]);
    }
  }
  // A budget below the whole tree: the shard count doubles until the
  // largest shard fits.
  engine::Context::Options copts = pinned_cluster();
  copts.cluster.executor_memory_bytes = 24 << 10;
  expect_pin("mrapriori tight budget",
             mine_mr(CountMode::kCandidateId, BroadcastMode::kAuto, copts),
             0x5c32987824845841);
}

TEST(PricingPins, Lin) {
  const u64 pins[] = {0xbd395e35775cdfdf, 0xf117cdd8b3eb0386,
                      0x30903d4f6a46f682};
  size_t i = 0;
  const std::pair<const char*, CombineStrategy> strategies[] = {
      {"spc", CombineStrategy::kSinglePass},
      {"fpc", CombineStrategy::kFixedPasses},
      {"dpc", CombineStrategy::kDynamic}};
  for (const auto& [name, strategy] : strategies) {
    LinOptions opt;
    opt.min_support = 0.25;
    opt.strategy = strategy;
    opt.fixed_passes = 2;
    engine::Context ctx(pinned_cluster());
    simfs::SimFS fs(ctx.cluster());
    const LinRun lin = lin_mine(ctx, fs, level_db(), opt);
    std::ostringstream out;
    out << "jobs " << lin.num_jobs << " speculative "
        << lin.speculative_candidates << '\n';
    expect_pin(std::string("lin ") + name,
               out.str() + passes(lin.run) + priced(ctx), pins[i++]);
  }
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
