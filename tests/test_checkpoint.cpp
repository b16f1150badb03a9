// Checkpoint/resume tests: snapshot codec round-trip, the deterministic
// damage sweep (every truncation point, every flipped bit is rejected
// whole -- never half-loaded), store behavior, and kill-and-resume
// bit-identity for both YAFIM and the MRApriori baseline.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fim/checkpoint.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

namespace stdfs = std::filesystem;

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
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

std::string fresh_dir(const std::string& name) {
  const stdfs::path dir = stdfs::path(::testing::TempDir()) / name;
  stdfs::remove_all(dir);
  return dir.string();
}

CheckpointState sample_state() {
  CheckpointState state;
  state.fingerprint = 0xFEEDFACEu;
  state.pass = 3;
  state.num_transactions = 200;
  state.min_support_count = 17;
  state.setup_seconds = 1.25;
  state.aux = 4242;
  state.passes = {PassStats{1, 20, 12, 0.5}, PassStats{2, 66, 9, 0.75},
                  PassStats{3, 5, 2, 0.25}};
  state.itemsets = FrequentItemsets(17, 200);
  state.itemsets.add({1}, 50);
  state.itemsets.add({2}, 40);
  state.itemsets.add({1, 2}, 30);
  state.itemsets.add({1, 2, 7}, 18);
  state.frontier = {{1, 2, 7}};
  return state;
}

void expect_equal(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_EQ(a.num_transactions, b.num_transactions);
  EXPECT_EQ(a.min_support_count, b.min_support_count);
  EXPECT_EQ(a.setup_seconds, b.setup_seconds);
  EXPECT_EQ(a.aux, b.aux);
  ASSERT_EQ(a.passes.size(), b.passes.size());
  for (size_t i = 0; i < a.passes.size(); ++i) {
    EXPECT_EQ(a.passes[i].k, b.passes[i].k);
    EXPECT_EQ(a.passes[i].candidates, b.passes[i].candidates);
    EXPECT_EQ(a.passes[i].frequent, b.passes[i].frequent);
    EXPECT_EQ(a.passes[i].sim_seconds, b.passes[i].sim_seconds);
  }
  EXPECT_TRUE(a.itemsets.same_itemsets(b.itemsets));
  EXPECT_EQ(a.frontier, b.frontier);
}

TEST(Checkpoint, SnapshotRoundTrip) {
  const CheckpointState state = sample_state();
  const auto bytes = encode_snapshot(state);
  const auto decoded = decode_snapshot(bytes, state.fingerprint);
  ASSERT_TRUE(decoded.has_value());
  expect_equal(state, *decoded);
}

TEST(Checkpoint, EncodingIsDeterministic) {
  // Identical states must encode to identical bytes (hash-map iteration
  // order must not leak into the format) -- the resume bit-identity proof
  // rests on this.
  EXPECT_EQ(encode_snapshot(sample_state()), encode_snapshot(sample_state()));
}

TEST(Checkpoint, SnapshotBytesArePinned) {
  // Existing snapshots must keep resuming: the encoding of a fixed state is
  // pinned byte for byte (by its XXH64).
  const auto bytes = encode_snapshot(sample_state());
  EXPECT_EQ(xxh64(bytes.data(), bytes.size()), 0xfd4e0fd64cccb3c8ull);
}

TEST(Checkpoint, ForeignFingerprintRejected) {
  const CheckpointState state = sample_state();
  const auto bytes = encode_snapshot(state);
  EXPECT_FALSE(decode_snapshot(bytes, state.fingerprint + 1).has_value());
}

TEST(Checkpoint, EveryTruncationRejected) {
  const CheckpointState state = sample_state();
  const auto bytes = encode_snapshot(state);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto torn = std::span<const u8>(bytes.data(), len);
    EXPECT_FALSE(decode_snapshot(torn, state.fingerprint).has_value())
        << "torn snapshot of " << len << "/" << bytes.size()
        << " bytes must be rejected";
  }
}

TEST(Checkpoint, EveryBitFlipRejected) {
  // Flip each bit of the snapshot -- header fields, payload and the
  // trailing checksum alike -- and require rejection. Nothing damaged may
  // half-load.
  const CheckpointState state = sample_state();
  const auto bytes = encode_snapshot(state);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = bytes;
      damaged[byte] ^= static_cast<u8>(1u << bit);
      EXPECT_FALSE(decode_snapshot(damaged, state.fingerprint).has_value())
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Checkpoint, DirStoreRoundTripAndTmpFilter) {
  DirCheckpointStore store(fresh_dir("ck_dir_store"));
  EXPECT_FALSE(store.get("pass-0001.ck").has_value());

  store.put("pass-0001.ck", {1, 2, 3});
  store.put("pass-0002.ck", {4});
  // A crash between tmp-write and rename leaves a .tmp behind; it must not
  // be offered as a snapshot.
  std::ofstream(stdfs::path(store.dir()) / "pass-0003.ck.tmp") << "torn";

  EXPECT_EQ(store.list(),
            (std::vector<std::string>{"pass-0001.ck", "pass-0002.ck"}));
  EXPECT_EQ(store.get("pass-0001.ck"), (std::vector<u8>{1, 2, 3}));
  store.remove("pass-0001.ck");
  EXPECT_EQ(store.list(), (std::vector<std::string>{"pass-0002.ck"}));
}

TEST(Checkpoint, DirStoreFailuresAreTypedAndNameTheDirectory) {
  // A directory under a regular file can never be created.
  const std::string dir = fresh_dir("ck_typed_error");
  stdfs::create_directories(dir);
  const std::string file = (stdfs::path(dir) / "plain-file").string();
  std::ofstream(file) << "x";
  const std::string bad = file + "/checkpoints";
  try {
    DirCheckpointStore store(bad);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.dir(), bad);
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
  }

  // A put whose tmp file cannot be opened: the store's directory is gone.
  DirCheckpointStore store(dir);
  stdfs::remove_all(dir);
  EXPECT_THROW(store.put("pass-0001.ck", {1}), CheckpointError);
}

TEST(Checkpoint, DirStoreSweepsOrphanedTmpFilesOnOpen) {
  // A crash between tmp-write and rename leaves a *.tmp orphan on disk
  // forever (each put() uses a fresh name). Opening the store must sweep
  // such orphans -- and must never have offered them as snapshots.
  const std::string dir = fresh_dir("ck_tmp_sweep");
  {
    DirCheckpointStore store(dir);
    store.put("pass-0001.ck", {1, 2, 3});
  }
  const stdfs::path orphan = stdfs::path(dir) / "pass-0002.ck.tmp";
  std::ofstream(orphan) << "torn half-written snapshot";
  ASSERT_TRUE(stdfs::exists(orphan));

  DirCheckpointStore reopened(dir);
  EXPECT_FALSE(stdfs::exists(orphan)) << "orphaned .tmp not swept on open";
  // The real snapshot survives the sweep; the orphan was never listed.
  EXPECT_EQ(reopened.list(), (std::vector<std::string>{"pass-0001.ck"}));
  EXPECT_EQ(reopened.get("pass-0001.ck"), (std::vector<u8>{1, 2, 3}));
  EXPECT_FALSE(reopened.get("pass-0002.ck").has_value());
}

TEST(Checkpoint, LoadLatestSkipsDamagedTail) {
  DirCheckpointStore store(fresh_dir("ck_damaged_tail"));
  CheckpointState state = sample_state();
  for (u32 pass = 1; pass <= 3; ++pass) {
    state.pass = pass;
    save_snapshot(store, state);
  }
  // Damage the newest snapshot the way a crash mid-write would NOT (rename
  // is atomic) but a disk fault could: truncate it in place.
  auto newest = store.get(snapshot_name(3));
  ASSERT_TRUE(newest.has_value());
  newest->resize(newest->size() / 2);
  store.put(snapshot_name(3), *newest);

  u32 rejected = 0;
  const auto loaded =
      load_latest_snapshot(store, state.fingerprint, &rejected);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->pass, 2u);
  EXPECT_EQ(rejected, 1u);
}

TEST(Checkpoint, SimFSStoreAbsorbsCorruption) {
  sim::ClusterConfig cluster = sim::ClusterConfig::with_nodes(3);
  simfs::SimFS fs(cluster, sim::CorruptionProfile{});
  SimFSCheckpointStore store(fs, "hdfs://ck");

  CheckpointState state = sample_state();
  state.pass = 1;
  save_snapshot(store, state);
  state.pass = 2;
  save_snapshot(store, state);
  EXPECT_EQ(store.list(),
            (std::vector<std::string>{snapshot_name(1), snapshot_name(2)}));

  // Rot all replicas of the newest snapshot: SimFS reports it corrupt, the
  // store surfaces it as absent, and resume falls back to pass 1.
  fs.debug_corrupt("hdfs://ck/" + snapshot_name(2), 3);
  u32 rejected = 0;
  const auto loaded =
      load_latest_snapshot(store, state.fingerprint, &rejected);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->pass, 1u);
  EXPECT_EQ(rejected, 1u);
}

TEST(Checkpoint, YafimResumeIsBitIdentical) {
  const auto db = random_db(16, 200, 0.7, 100);
  engine::Context::Options copts = small_cluster();

  YafimOptions opt;
  opt.min_support = 0.25;

  // Reference: one uninterrupted run, no checkpointing.
  engine::Context ref_ctx(copts);
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = yafim_mine(ref_ctx, ref_fs, db, opt);
  ASSERT_GE(reference.passes.size(), 3u) << "need k >= 3 to test resume";

  // Crash after pass 2, then resume from the same checkpoint dir.
  DirCheckpointStore store(fresh_dir("ck_yafim_resume"));
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  engine::Context crash_ctx(copts);
  simfs::SimFS crash_fs(crash_ctx.cluster());
  const auto partial = yafim_mine(crash_ctx, crash_fs, db, opt);
  EXPECT_EQ(partial.passes.back().k, 2u);
  EXPECT_EQ(partial.resumed_pass, 0u);

  opt.stop_after_pass = 0;
  engine::Context resume_ctx(copts);
  simfs::SimFS resume_fs(resume_ctx.cluster());
  const auto resumed = yafim_mine(resume_ctx, resume_fs, db, opt);

  EXPECT_EQ(resumed.resumed_pass, 2u);
  EXPECT_TRUE(resumed.itemsets.same_itemsets(reference.itemsets));
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
  ASSERT_EQ(resumed.passes.size(), reference.passes.size());
  for (size_t i = 0; i < resumed.passes.size(); ++i) {
    EXPECT_EQ(resumed.passes[i].k, reference.passes[i].k);
    EXPECT_EQ(resumed.passes[i].candidates, reference.passes[i].candidates);
    EXPECT_EQ(resumed.passes[i].frequent, reference.passes[i].frequent);
  }

  // A second resume from the completed run's snapshots re-mines nothing
  // and still returns the full answer.
  engine::Context again_ctx(copts);
  simfs::SimFS again_fs(again_ctx.cluster());
  const auto again = yafim_mine(again_ctx, again_fs, db, opt);
  EXPECT_EQ(again.resumed_pass, again.passes.back().k);
  EXPECT_EQ(again.itemsets.sorted(), reference.itemsets.sorted());
}

TEST(Checkpoint, YafimIgnoresForeignCheckpoints) {
  // A store populated from one dataset must never seed a run over another.
  DirCheckpointStore store(fresh_dir("ck_yafim_foreign"));
  engine::Context::Options copts = small_cluster();
  YafimOptions opt;
  opt.min_support = 0.25;
  opt.checkpoint = &store;

  const auto db_a = random_db(16, 200, 0.7, 100);
  engine::Context ctx_a(copts);
  simfs::SimFS fs_a(ctx_a.cluster());
  (void)yafim_mine(ctx_a, fs_a, db_a, opt);
  ASSERT_FALSE(store.list().empty());

  const auto db_b = random_db(16, 200, 0.7, 101);
  engine::Context ref_ctx(copts);
  simfs::SimFS ref_fs(ref_ctx.cluster());
  YafimOptions plain;
  plain.min_support = 0.25;
  const auto reference = yafim_mine(ref_ctx, ref_fs, db_b, plain);

  engine::Context ctx_b(copts);
  simfs::SimFS fs_b(ctx_b.cluster());
  const auto run_b = yafim_mine(ctx_b, fs_b, db_b, opt);
  EXPECT_EQ(run_b.resumed_pass, 0u);
  EXPECT_EQ(run_b.itemsets.sorted(), reference.itemsets.sorted());
}

TEST(Checkpoint, MrAprioriResumeIsBitIdentical) {
  const auto db = random_db(16, 200, 0.7, 100);
  engine::Context::Options copts = small_cluster();

  MrAprioriOptions opt;
  opt.min_support = 0.25;

  engine::Context ref_ctx(copts);
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = mr_apriori_mine(ref_ctx, ref_fs, db, opt);
  ASSERT_GE(reference.passes.size(), 3u);

  DirCheckpointStore store(fresh_dir("ck_mrapriori_resume"));
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  engine::Context crash_ctx(copts);
  simfs::SimFS crash_fs(crash_ctx.cluster());
  const auto partial = mr_apriori_mine(crash_ctx, crash_fs, db, opt);
  EXPECT_EQ(partial.passes.back().k, 2u);

  opt.stop_after_pass = 0;
  engine::Context resume_ctx(copts);
  simfs::SimFS resume_fs(resume_ctx.cluster());
  const auto resumed = mr_apriori_mine(resume_ctx, resume_fs, db, opt);

  EXPECT_EQ(resumed.resumed_pass, 2u);
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
  ASSERT_EQ(resumed.passes.size(), reference.passes.size());
  for (size_t i = 0; i < resumed.passes.size(); ++i) {
    EXPECT_EQ(resumed.passes[i].k, reference.passes[i].k);
    EXPECT_EQ(resumed.passes[i].candidates, reference.passes[i].candidates);
    EXPECT_EQ(resumed.passes[i].frequent, reference.passes[i].frequent);
  }
}

/// Whether `ctx` recorded a stage labelled `label`.
bool has_stage(const engine::Context& ctx, const std::string& label) {
  for (const sim::StageRecord& stage : ctx.report().stages()) {
    if (stage.label == label) return true;
  }
  return false;
}

/// FPC(2) counts levels 2 and 3 alone, then 4-5 in one batch.
PassCombining fpc2() {
  PassCombining combining;
  combining.strategy = CombineStrategy::kFixedPasses;
  combining.fixed_passes = 2;
  return combining;
}

TEST(Checkpoint, YafimCombinedPassesResume) {
  // Pass combining changes the snapshot cadence (one per batch) and is part
  // of the fingerprint; resume under combining must still be exact.
  const auto db = random_db(16, 200, 0.7, 100);
  engine::Context::Options copts = small_cluster();

  YafimOptions opt;
  opt.min_support = 0.25;
  opt.combining = fpc2();

  engine::Context ref_ctx(copts);
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = yafim_mine(ref_ctx, ref_fs, db, opt);
  ASSERT_GE(reference.itemsets.max_k(), 5u);

  DirCheckpointStore store(fresh_dir("ck_yafim_combined"));
  opt.checkpoint = &store;
  opt.stop_after_pass = 3;
  engine::Context crash_ctx(copts);
  simfs::SimFS crash_fs(crash_ctx.cluster());
  (void)yafim_mine(crash_ctx, crash_fs, db, opt);

  opt.stop_after_pass = 0;
  engine::Context resume_ctx(copts);
  simfs::SimFS resume_fs(resume_ctx.cluster());
  const auto resumed = yafim_mine(resume_ctx, resume_fs, db, opt);
  EXPECT_EQ(resumed.resumed_pass, 3u);
  // The resume counts levels 4 and 5 in one cluster pass.
  EXPECT_TRUE(has_stage(resume_ctx, "pass4:ap_gen+buildHashTree"));
  EXPECT_FALSE(has_stage(resume_ctx, "pass5:ap_gen+buildHashTree"));
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
  ASSERT_EQ(resumed.passes.size(), reference.passes.size());
  for (size_t i = 0; i < resumed.passes.size(); ++i) {
    EXPECT_EQ(resumed.passes[i].k, reference.passes[i].k);
    EXPECT_EQ(resumed.passes[i].candidates, reference.passes[i].candidates);
  }
}

TEST(Checkpoint, MrAprioriCombinedPassesResume) {
  // The same shape on the MapReduce driver: a combined job's batch of
  // levels is snapshotted once, and the resume runs the next batch.
  const auto db = random_db(16, 200, 0.7, 100);
  engine::Context::Options copts = small_cluster();

  MrAprioriOptions opt;
  opt.min_support = 0.25;
  opt.combining = fpc2();

  engine::Context ref_ctx(copts);
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = mr_apriori_mine(ref_ctx, ref_fs, db, opt);
  ASSERT_GE(reference.itemsets.max_k(), 5u);

  DirCheckpointStore store(fresh_dir("ck_mr_combined"));
  opt.checkpoint = &store;
  opt.stop_after_pass = 3;
  engine::Context crash_ctx(copts);
  simfs::SimFS crash_fs(crash_ctx.cluster());
  (void)mr_apriori_mine(crash_ctx, crash_fs, db, opt);

  opt.stop_after_pass = 0;
  engine::Context resume_ctx(copts);
  simfs::SimFS resume_fs(resume_ctx.cluster());
  const auto resumed = mr_apriori_mine(resume_ctx, resume_fs, db, opt);
  EXPECT_EQ(resumed.resumed_pass, 3u);
  EXPECT_TRUE(has_stage(resume_ctx, "mrapriori:ap_gen L4"));
  EXPECT_FALSE(has_stage(resume_ctx, "mrapriori:ap_gen L5"));
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
  ASSERT_EQ(resumed.passes.size(), reference.passes.size());
  for (size_t i = 0; i < resumed.passes.size(); ++i) {
    EXPECT_EQ(resumed.passes[i].k, reference.passes[i].k);
    EXPECT_EQ(resumed.passes[i].candidates, reference.passes[i].candidates);
    EXPECT_EQ(resumed.passes[i].sim_seconds, reference.passes[i].sim_seconds);
  }
}

}  // namespace
}  // namespace yafim::fim
