#include "stream/miner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/rdd.h"
#include "engine/work.h"
#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace yafim::stream {

namespace {

using fim::CountPair;
using fim::Itemset;
using fim::Transaction;

using SupportMap =
    std::unordered_map<Itemset, u64, fim::ItemsetHash, fim::ItemsetEq>;
using ItemsetSet =
    std::unordered_set<Itemset, fim::ItemsetHash, fim::ItemsetEq>;

bool itemset_less(const Itemset& a, const Itemset& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return a < b;
}

std::string batch_label(u64 batch) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "batch%04llu",
                static_cast<unsigned long long>(batch));
  return buf;
}

/// The whole miner, one instance per stream_mine call. All mutable state is
/// a pure function of (source, options, completed batches), which is what
/// makes snapshot + source replay sufficient for exactly-once resume.
class StreamingMiner {
 public:
  StreamingMiner(engine::Context& ctx, simfs::SimFS& fs,
                 const fim::TransactionDB& source_db,
                 const StreamOptions& options)
      : ctx_(ctx),
        fs_(fs),
        options_(options),
        source_(source_db, options.source),
        controller_(options.backpressure) {
    YAFIM_CHECK(options_.num_batches > 0, "stream needs at least one batch");
    const std::vector<u8> raw = source_db.serialize();
    // The fingerprint folds in every knob that shapes per-batch state --
    // window/batch parameters, counting + broadcast mode, backpressure
    // ladder -- so a snapshot never resumes a differently-shaped stream.
    ByteWriter cfg;
    cfg.write_double(options_.min_support);
    cfg.write_u64(options_.num_batches);
    cfg.write_double(options_.source.window_s);
    cfg.write_double(options_.source.ingest_rate);
    cfg.write_u64(options_.source.seed);
    cfg.write_u32(static_cast<u32>(options_.count_mode));
    cfg.write_u32(static_cast<u32>(options_.broadcast_mode));
    cfg.write_u32(options_.partitions);
    cfg.write_double(options_.backpressure.widen_threshold);
    cfg.write_double(options_.backpressure.relax_threshold);
    cfg.write_u32(options_.backpressure.max_window_factor);
    cfg.write_double(options_.backpressure.slack_step);
    cfg.write_double(options_.backpressure.max_slack);
    fingerprint_ = fim::checkpoint_fingerprint(
        "stream", xxh64(raw.data(), raw.size()), 0,
        xxh64(cfg.data().data(), cfg.data().size()));
    resolve_kill_point();
  }

  StreamResult run() {
    ctx_.set_spill_fs(&fs_);
    u64 start_batch = 1;
    if (options_.checkpoint) {
      auto restored =
          load_latest_stream_snapshot(*options_.checkpoint, fingerprint_);
      if (restored) {
        restore(*restored);
        start_batch = restored->batch + 1;
        resumed_batch_ = restored->batch;
        obs::count(obs::CounterId::kCheckpointPassesSkipped,
                   restored->batch);
      }
    }
    for (u64 b = start_batch; b <= options_.num_batches; ++b) run_batch(b);
    finalize();
    return make_result();
  }

 private:
  // --- kill points -------------------------------------------------------

  void resolve_kill_point() {
    const engine::FaultProfile& fp = ctx_.fault_injector().profile();
    kill_batch_ = fp.stream_kill_batch;
    kill_phase_ = fp.stream_kill_phase;
    if (kill_batch_ == 0 && fp.stream_seed != 0) {
      // Derive a (batch, phase) pair by hashing the seed, so a CI loop can
      // sweep kill points with nothing but YAFIM_FAULT_STREAM_SEED.
      kill_batch_ =
          1 + mix64(fp.stream_seed ^ 0x9E3779B97F4A7C15ULL) %
                  options_.num_batches;
      kill_phase_ = static_cast<u32>(
          mix64(fp.stream_seed ^ 0xC2B2AE3D27D4EB4FULL) % kNumStreamPhases);
    }
    kill_phase_ = kill_phase_ % kNumStreamPhases;
  }

  void maybe_kill(u64 batch, StreamPhase phase) {
    if (kill_batch_ != 0 && batch == kill_batch_ &&
        static_cast<u32>(phase) == kill_phase_) {
      throw StreamKilledError(batch, phase);
    }
  }

  // --- resume ------------------------------------------------------------

  void restore(const StreamCheckpointState& s) {
    total_ = s.total_transactions;
    minc_ = s.min_support_count;
    state_.window_factor = s.window_factor;
    state_.reverify_slack = s.reverify_slack;
    controller_.restore_stats(s.widenings, s.slack_raises);
    reverifications_ = s.reverifications;
    supports_.reserve(s.supports.size());
    for (const auto& [itemset, support] : s.supports) {
      supports_.emplace(itemset, support);
    }
    frontier_.reserve(s.frontier.size());
    for (const Itemset& f : s.frontier) frontier_.insert(f);
    batches_ = s.batches;

    // The SimFS receiver state died with the process: rebuild the ingest
    // history by replaying the deterministic source from offset 0, priced
    // as one sequential WAL read-back.
    ctx_.set_pass(0);
    source_.seek(0);
    history_ = source_.take(s.source_offset);
    u64 wal_bytes = 0;
    for (const Transaction& t : history_) {
      wal_bytes += TransactionSource::transaction_bytes(t);
    }
    sim::StageRecord replay;
    replay.label = "stream:recover-replay";
    replay.kind = sim::StageKind::kSparkStage;
    replay.tasks = sim::split_work(
        s.source_offset * (1 + ctx_.cluster().record_parse_work),
        partitions());
    replay.dfs_read_bytes = wal_bytes;
    ctx_.record(std::move(replay));
  }

  // --- one micro-batch ---------------------------------------------------

  void run_batch(u64 b) {
    // Pin the fault-draw stream to the batch index: a resumed run re-derives
    // the same per-stage salts as the uninterrupted one, so injected task
    // failures / stragglers land on identical draws (exactly-once even
    // under composition with the other fault axes).
    ctx_.set_stage_epoch(b);
    ctx_.set_pass(static_cast<u32>(b));
    const std::string label = batch_label(b);
    const size_t stage_base = ctx_.report().stages().size();

    StreamBatchStats stats;
    stats.batch = b;
    stats.window_factor = state_.window_factor;
    // The interval this batch is judged against is the span of simulated
    // ingest it covers -- widening the window grows the budget too.
    const double interval_s =
        options_.source.window_s * stats.window_factor;

    // ---- ingest ----
    maybe_kill(b, StreamPhase::kIngest);
    const u64 n = source_.window_count(b, state_.window_factor);
    std::vector<Transaction> arrived = source_.take(n);
    u64 wal_bytes = 0;
    ByteWriter wal;
    wal.write_u64(arrived.size());
    for (const Transaction& t : arrived) {
      wal.write_u32_vec(t);
      wal_bytes += TransactionSource::transaction_bytes(t);
    }
    fs_.write("stream/wal/" + label, wal.take());
    {
      sim::StageRecord ingest;
      ingest.label = label + ":ingest";
      ingest.kind = sim::StageKind::kSparkStage;
      ingest.pass = ctx_.pass();
      ingest.tasks = sim::split_work(
          n * (1 + ctx_.cluster().stream_ingest_work), partitions());
      ingest.dfs_write_bytes = wal_bytes;
      ctx_.record(std::move(ingest));
    }
    history_.insert(history_.end(), arrived.begin(), arrived.end());
    stats.transactions = n;
    obs::count(obs::CounterId::kStreamTransactions, n);

    // ---- count ----
    maybe_kill(b, StreamPhase::kCount);
    // Both the item job and the tracked job consume this source, but a
    // parallelize() node is driver-held and never recomputed, so a
    // persist() here would be dead code (YL003).
    auto batch_rdd = ctx_.parallelize(std::move(arrived), options_.partitions)
                         .named(label + ":transactions");

    // Batch L1: every item's arrival count this window (no threshold -- an
    // infrequent item may become frequent later, so all counts are kept).
    const std::vector<fim::ItemCount> item_counts =
        batch_rdd
            .flat_map([](const Transaction& t) {
              return std::span<const fim::Item>(t);
            })
            .named(label + ":items")
            .map([](fim::Item i) {
              return fim::ItemCount(fim::Singleton{i}, 1);
            })
            .reduce_by_key([](u64 a, u64 c) { return a + c; }, 0,
                           fim::SingletonHash{}, label + ":item-count")
            .named(label + ":item-counts")
            .collect(label + ":item-collect");

    // Batch supports of every tracked k>=2 itemset, through the shared
    // counting core (min_count = 1: zero-support sets merge as +0).
    std::vector<CountPair> tracked_counts;
    const fim::CandidateBatch tracked = tracked_batch();
    if (!tracked.empty()) {
      tracked_counts = count_over(batch_rdd, tracked, label + ":track");
    }

    // ---- merge ----
    maybe_kill(b, StreamPhase::kMerge);
    total_ += n;
    for (const auto& [key, support] : item_counts) {
      supports_[Itemset{key.item}] += support;
    }
    for (auto& [itemset, support] : tracked_counts) {
      supports_[itemset] += support;
    }
    minc_ = min_support_count();
    const u64 hi = entry_threshold();
    // Hysteresis over the running supports: exit below MinSup (any size),
    // enter at the slack-raised threshold (items here; k>=2 sets inside the
    // level-wise re-verification walk, where the universe is rebuilt).
    for (const auto& [itemset, support] : supports_) {
      if (support < minc_) {
        frontier_.erase(itemset);
      } else if (itemset.size() == 1 && support >= hi) {
        frontier_.insert(itemset);
      }
    }

    // ---- reverify ----
    maybe_kill(b, StreamPhase::kReverify);
    stats.new_candidates = reverify(label, hi);
    const u64 deferred = count_deferred(hi);
    obs::count(obs::CounterId::kStreamReverifyDeferred, deferred);

    // ---- snapshot ----
    maybe_kill(b, StreamPhase::kSnapshot);
    {
      sim::SimReport slice;
      const auto& stages = ctx_.report().stages();
      for (size_t i = stage_base; i < stages.size(); ++i) {
        slice.add(stages[i]);
      }
      stats.sim_seconds = slice.total_seconds(ctx_.cost_model());
    }
    batches_.push_back(stats);
    deferred_at_close_ = deferred;
    // Controller first, snapshot second: the snapshot carries the posture
    // the *next* batch will run with, so a resume continues mid-ladder.
    controller_.observe(stats.sim_seconds, interval_s, deferred, &state_,
                        &ctx_.linter());
    if (options_.checkpoint) {
      save_stream_snapshot(*options_.checkpoint, snapshot_state(b));
    }

    // ---- boundary ----
    maybe_kill(b, StreamPhase::kBoundary);
    obs::count(obs::CounterId::kStreamBatches);
  }

  // --- incremental frontier maintenance ----------------------------------

  /// Level-wise walk over the frontier: rebuild the candidate universe with
  /// apriori_gen, count never-seen candidates over the full history, apply
  /// hysteresis per level (entries at `hi`, exits at MinSup), and drop
  /// tracked itemsets that fell out of the universe. Returns the number of
  /// candidates re-verified. Because level k's frontier is final before
  /// level k+1 is generated, a single walk reaches the fixpoint.
  u64 reverify(const std::string& label, u64 hi) {
    std::vector<Itemset> prev;
    for (const auto& [itemset, support] : supports_) {
      (void)support;
      if (itemset.size() == 1 && frontier_.count(itemset)) {
        prev.push_back(itemset);
      }
    }

    ItemsetSet universe;
    u64 reverified = 0;
    for (u32 k = 2; !prev.empty(); ++k) {
      engine::work::Scope gen_scope;
      const std::vector<Itemset> candidates = fim::to_itemsets(
          fim::apriori_gen_rows(fim::to_sorted_rows(prev), k));
      {
        sim::StageRecord gen;
        gen.label = label + ":reverify" + std::to_string(k) + ":ap_gen";
        gen.kind = sim::StageKind::kOverhead;
        gen.pass = ctx_.pass();
        gen.driver_work = gen_scope.measured();
        ctx_.record(std::move(gen));
      }
      if (candidates.empty()) break;

      std::vector<Itemset> fresh;
      for (const Itemset& c : candidates) {
        if (!supports_.count(c)) fresh.push_back(c);
      }
      if (!fresh.empty()) {
        reverified += fresh.size();
        obs::count(obs::CounterId::kStreamReverifications, fresh.size());
        // A crossing happened: count the new candidates over everything
        // ingested so far, so their supports are exact full-history values.
        for (const Itemset& c : fresh) supports_.emplace(c, 0);
        auto history_rdd = history();
        for (auto& [itemset, support] :
             count_over(history_rdd, make_batch({fresh}),
                        label + ":reverify" + std::to_string(k))) {
          supports_[itemset] = support;
        }
      }

      prev.clear();
      for (const Itemset& c : candidates) {
        universe.insert(c);
        const u64 support = supports_[c];
        bool in = frontier_.count(c) > 0;
        if (!in && support >= hi) {
          frontier_.insert(c);
          in = true;
        } else if (in && support < minc_) {
          frontier_.erase(c);
          in = false;
        }
        if (in) prev.push_back(c);
      }
    }

    // Tracked itemsets outside the rebuilt universe stop being counted; if
    // they ever re-enter, they come back as fresh candidates and get an
    // exact full-history recount above.
    for (auto it = supports_.begin(); it != supports_.end();) {
      if (it->first.size() >= 2 && universe.count(it->first) == 0) {
        frontier_.erase(it->first);
        it = supports_.erase(it);
      } else {
        ++it;
      }
    }
    return reverified;
  }

  /// Count `batch` against `transactions` through the shared core,
  /// min_count = 1. Caller owns merging the result.
  std::vector<CountPair> count_over(engine::RDD<Transaction>& transactions,
                                    const fim::CandidateBatch& batch,
                                    const std::string& pass_name) {
    return fim::count_batch(ctx_, transactions, batch,
                            options_.broadcast_mode,
                            {.count_mode = options_.count_mode,
                             .min_count = 1,
                             .pass_name = pass_name},
                            nullptr);
  }

  /// Candidate levels (itemsets of one size each, in any order) as one
  /// counting batch; empty levels drop out.
  fim::CandidateBatch make_batch(
      const std::vector<std::vector<Itemset>>& levels) const {
    std::vector<fim::ItemsetRows> rows;
    for (const std::vector<Itemset>& level : levels) {
      rows.push_back(fim::to_sorted_rows(level));
    }
    return fim::CandidateBatch(std::move(rows));
  }

  /// Tracked k>=2 itemsets as one counting batch, a level per size.
  fim::CandidateBatch tracked_batch() const {
    std::vector<std::vector<Itemset>> levels;
    for (const auto& [itemset, support] : supports_) {
      (void)support;
      const size_t k = itemset.size();
      if (k < 2) continue;
      if (levels.size() < k - 1) levels.resize(k - 1);
      levels[k - 2].push_back(itemset);
    }
    return make_batch(levels);
  }

  /// Fresh RDD over the full ingested history (driver-held replay buffer).
  /// Not persisted: parallelize() sources are never recomputed, so the
  /// multi-job consumption is free and a persist() would be dead (YL003).
  engine::RDD<Transaction> history() {
    return ctx_.parallelize(history_, options_.partitions)
        .named("stream:history");
  }

  // --- thresholds --------------------------------------------------------

  u64 min_support_count() const {
    return fim::min_count_ceil(options_.min_support, total_);
  }

  /// Frontier-entry threshold under the current backpressure slack.
  u64 entry_threshold() const {
    const double raw =
        static_cast<double>(minc_) * (1.0 + state_.reverify_slack);
    return std::max<u64>(static_cast<u64>(std::ceil(raw - 1e-9)), minc_);
  }

  /// Itemsets at or above MinSup whose frontier entry the slack deferred.
  u64 count_deferred(u64 hi) const {
    if (hi <= minc_) return 0;
    u64 deferred = 0;
    for (const auto& [itemset, support] : supports_) {
      if (support >= minc_ && support < hi &&
          frontier_.count(itemset) == 0) {
        ++deferred;
      }
    }
    return deferred;
  }

  // --- finalize ----------------------------------------------------------

  /// Drain every deferral: one slack-free merge + reverify walk. Both the
  /// interrupted and uninterrupted run execute this from identical
  /// boundary state, so the final output is bit-identical -- and because
  /// slack only ever deferred frontier *entries*, the drained frontier is
  /// exactly batch Apriori's answer over the concatenated history.
  void finalize() {
    ctx_.set_pass(0);
    if (total_ == 0) return;
    minc_ = min_support_count();
    for (const auto& [itemset, support] : supports_) {
      if (support < minc_) {
        frontier_.erase(itemset);
      } else if (itemset.size() == 1) {
        frontier_.insert(itemset);
      }
    }
    reverify("drain", minc_);
    deferred_at_close_ = count_deferred(entry_threshold());
  }

  // --- state marshalling -------------------------------------------------

  StreamCheckpointState snapshot_state(u64 b) const {
    StreamCheckpointState s;
    s.fingerprint = fingerprint_;
    s.batch = b;
    s.source_offset = source_.offset();
    s.total_transactions = total_;
    s.min_support_count = minc_;
    s.window_factor = state_.window_factor;
    s.reverify_slack = state_.reverify_slack;
    s.widenings = controller_.widenings();
    s.slack_raises = controller_.slack_raises();
    s.reverifications = reverifications_ + lifetime_reverified();
    s.supports.assign(supports_.begin(), supports_.end());
    s.frontier.assign(frontier_.begin(), frontier_.end());
    s.batches = batches_;
    return s;
  }

  u64 lifetime_reverified() const {
    u64 total = 0;
    for (const StreamBatchStats& s : batches_) {
      if (s.batch > resumed_batch_) total += s.new_candidates;
    }
    return total;
  }

  StreamResult make_result() const {
    StreamResult r;
    r.itemsets = fim::FrequentItemsets(minc_, total_);
    std::vector<Itemset> frequent(frontier_.begin(), frontier_.end());
    std::sort(frequent.begin(), frequent.end(), itemset_less);
    for (const Itemset& s : frequent) {
      r.itemsets.add(s, supports_.at(s));
    }
    r.total_transactions = total_;
    r.min_support_count = minc_;
    r.resumed_batch = resumed_batch_;
    r.window_factor = state_.window_factor;
    r.reverify_slack = state_.reverify_slack;
    r.widenings = controller_.widenings();
    r.slack_raises = controller_.slack_raises();
    r.reverifications = reverifications_ + lifetime_reverified();
    r.deferred_at_close = deferred_at_close_;
    r.ingest_interval_s = options_.source.window_s * state_.window_factor;
    r.batches = batches_;
    return r;
  }

  u32 partitions() const {
    return options_.partitions ? options_.partitions
                               : ctx_.default_partitions();
  }

  engine::Context& ctx_;
  simfs::SimFS& fs_;
  StreamOptions options_;
  TransactionSource source_;
  BackpressureController controller_;
  BackpressureState state_;

  u64 fingerprint_ = 0;
  u64 kill_batch_ = 0;
  u32 kill_phase_ = 0;

  std::vector<Transaction> history_;
  SupportMap supports_;
  ItemsetSet frontier_;
  u64 total_ = 0;
  u64 minc_ = 0;
  u64 resumed_batch_ = 0;
  u64 reverifications_ = 0;  ///< restored from snapshot (pre-resume batches)
  u64 deferred_at_close_ = 0;
  std::vector<StreamBatchStats> batches_;
};

}  // namespace

const char* stream_phase_name(StreamPhase phase) {
  switch (phase) {
    case StreamPhase::kIngest: return "ingest";
    case StreamPhase::kCount: return "count";
    case StreamPhase::kMerge: return "merge";
    case StreamPhase::kReverify: return "reverify";
    case StreamPhase::kSnapshot: return "snapshot";
    case StreamPhase::kBoundary: return "boundary";
  }
  return "unknown";
}

StreamKilledError::StreamKilledError(u64 batch, StreamPhase phase)
    : std::runtime_error("stream killed at batch " + std::to_string(batch) +
                         " phase " + stream_phase_name(phase)),
      batch_(batch),
      phase_(phase) {}

double StreamResult::steady_batch_seconds() const {
  if (batches.empty()) return 0.0;
  const size_t quartile = std::max<size_t>(1, batches.size() / 4);
  double sum = 0.0;
  for (size_t i = batches.size() - quartile; i < batches.size(); ++i) {
    sum += batches[i].sim_seconds;
  }
  return sum / static_cast<double>(quartile);
}

StreamResult stream_mine(engine::Context& ctx, simfs::SimFS& fs,
                         const fim::TransactionDB& source_db,
                         const StreamOptions& options) {
  return StreamingMiner(ctx, fs, source_db, options).run();
}

}  // namespace yafim::stream
