// Context: the minispark driver (SparkContext analogue).
//
// Owns the host thread pool, the simulated-cluster configuration and cost
// model, the fault injector, and the run's SimReport. RDDs are created
// through it (see engine/rdd.h for the template methods) and every stage an
// action triggers is recorded here with deterministic work counters.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "engine/detsan.h"
#include "engine/fault.h"
#include "engine/lint.h"
#include "engine/memory.h"
#include "engine/thread_pool.h"
#include "sim/cost_model.h"
#include "sim/metrics.h"
#include "util/common.h"
#include "util/thread_annotations.h"

namespace yafim::simfs {
class SimFS;
}

namespace yafim::engine {

template <typename T>
class RDD;
template <typename T>
class Broadcast;

/// Cap on map-side-combine hash reservations (RDD reduce_by_key and the
/// MapReduce combiner). Reserving one slot per *input pair* is right when
/// keys are mostly distinct, but in counting workloads (pass-2 Apriori:
/// millions of hits, tens of thousands of distinct candidates) it allocates
/// a hash table proportional to the hit count per task; distinct keys
/// beyond the cap still insert normally via rehash.
inline constexpr size_t kCombineReserveCap = size_t{1} << 16;

/// How shared data reaches the workers (paper §IV-C): Spark broadcast
/// variables (tree broadcast, the paper's choice) vs naively shipping a copy
/// with every task through the driver (the bottleneck it calls out).
enum class ShareMode { kBroadcast, kNaiveShip };

/// Construction options for Context. Defined outside the class so it can be
/// used as a default argument (nested classes with default member
/// initializers cannot).
struct ContextOptions {
  sim::ClusterConfig cluster = sim::ClusterConfig::paper();
  /// Host threads doing the real work; 0 = hardware concurrency.
  u32 host_threads = 0;
  /// Default number of RDD partitions; 0 = 2x simulated cores.
  u32 default_partitions = 0;
  ShareMode share_mode = ShareMode::kBroadcast;
  /// Task-level fault injection (engine/fault.h). Defaults to the
  /// YAFIM_FAULT_* environment (disabled when unset), so a whole test or
  /// bench binary can be run under injection without code changes.
  FaultProfile fault = FaultProfile::from_env();
  /// Plan linting (engine/lint.h). Off by default. (The explicit
  /// initializer keeps designated-init call sites clear of
  /// -Wmissing-field-initializers.)
  LintOptions lint = {};
  /// Determinism sanitizer (engine/detsan.h). Off by default; enabling it
  /// also forces the plan linter on (YL007 resolves node names through the
  /// linter's plan shadow).
  DetSanOptions detsan = {};
};

class Context {
 public:
  using Options = ContextOptions;

  explicit Context(Options opts = {});

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  const sim::ClusterConfig& cluster() const { return opts_.cluster; }
  const sim::CostModel& cost_model() const { return model_; }
  ThreadPool& pool() { return pool_; }
  FaultInjector& fault_injector() { return fault_; }
  ShareMode share_mode() const { return opts_.share_mode; }

  /// Per-executor memory ledger (engine/memory.h). Miners consult it
  /// before broadcasting; shuffle paths consult it before buffering.
  MemoryBudget& memory_budget() { return memory_budget_; }
  const MemoryBudget& memory_budget() const { return memory_budget_; }

  /// Filesystem shuffle spill blocks go to when a stage's buffers exceed
  /// the budget (simfs://spill/...). Null (the default) disables spilling
  /// even under a finite shuffle-buffer budget -- the engine cannot spill
  /// to a filesystem it was never handed. Not owned.
  void set_spill_fs(simfs::SimFS* fs) { spill_fs_ = fs; }
  simfs::SimFS* spill_fs() const { return spill_fs_; }
  /// Whether shuffle stages should spill `buffered_bytes` right now.
  bool should_spill(u64 buffered_bytes) const {
    return spill_fs_ != nullptr &&
           memory_budget_.shuffle_should_spill(buffered_bytes);
  }
  /// Compress spilled blocks with the util/bytes yz codec (priced by the
  /// cost model; on by default).
  void set_spill_compress(bool on) { spill_compress_ = on; }
  bool spill_compress() const { return spill_compress_; }
  /// Monotonic id making concurrent spill paths unique within the run.
  u64 next_spill_id() { return spill_seq_.fetch_add(1); }

  /// Lineage plan linter; configured from Options::lint, disabled by
  /// default. RDD nodes register themselves here and actions/shuffles call
  /// before_execute(); tests assert on linter().diagnostics().
  PlanLinter& linter() { return linter_; }
  const PlanLinter& linter() const { return linter_; }

  /// Determinism sanitizer; configured from Options::detsan, disabled by
  /// default. RDD compute paths consult it for sampled replays; mine_cli
  /// reads tasks_replayed()/divergences() for its `# detsan:` summary.
  DetSan& detsan() { return detsan_; }
  const DetSan& detsan() const { return detsan_; }

  // report()/sim_seconds() hand out the report guarded by report_mutex_.
  // Thread-safety analysis is suppressed deliberately: callers read the
  // report from the driver thread after the actions that fill it returned
  // (record() is the only concurrent writer and it has completed by then),
  // so locking here would suggest a protection the accessor cannot provide.
  sim::SimReport& report() YAFIM_NO_THREAD_SAFETY_ANALYSIS { return report_; }
  const sim::SimReport& report() const YAFIM_NO_THREAD_SAFETY_ANALYSIS {
    return report_;
  }

  /// Simulated seconds of everything recorded so far.
  double sim_seconds() const YAFIM_NO_THREAD_SAFETY_ANALYSIS {
    return report_.total_seconds(model_);
  }

  u32 default_partitions() const { return default_partitions_; }
  u32 next_rdd_id() { return next_rdd_id_.fetch_add(1); }

  /// Pass tag applied to stages recorded from now on (Apriori iteration
  /// number; 0 = outside any pass). Pass boundaries are where the memory
  /// ledger releases the previous pass's broadcasts and the
  /// YAFIM_FAULT_MEM_* shrink fires.
  void set_pass(u32 pass) {
    pass_ = pass;
    if (pass != 0) memory_budget_.begin_pass(pass);
  }
  u32 pass() const { return pass_; }

  /// Pin the stage-sequence counter to a per-epoch base (epoch << 20). The
  /// fault injector salts every draw with the stage sequence number, so a
  /// streaming run that restored batches 1..b from a snapshot would
  /// otherwise see *different* injected faults in batch b+1 than the
  /// uninterrupted run (fewer stages executed => lower sequence numbers).
  /// The StreamingMiner calls this at every batch start with the batch
  /// index, making the draw stream a pure function of (profile, batch,
  /// stage-within-batch) -- bit-identity holds across resume even under
  /// task-failure injection. 2^20 stages per epoch is far above any batch.
  ///
  /// Also resets the injector's accumulated per-node failure counts and
  /// blacklists: an epoch is a recovery point, and a resumed run starts
  /// with zero counts -- cross-epoch scheduling state would otherwise make
  /// its task placement (and pricing) drift from the uninterrupted run's.
  void set_stage_epoch(u64 epoch) {
    stage_seq_.store(epoch << 20, std::memory_order_relaxed);
    fault_.reset_epoch_state();
  }

  /// Stage bytes contributed by broadcast() calls since the last stage;
  /// attached to the next recorded stage according to share_mode.
  void add_pending_broadcast(u64 bytes) { pending_broadcast_ += bytes; }

  /// Execute `body(0..ntasks-1)` on the pool, measure per-task work, and
  /// record a StageRecord. `shuffle_bytes` may be filled in by the caller
  /// after the fact via the returned record's index -- reduce_by_key uses
  /// run_stage_with_shuffle instead.
  void run_stage(const std::string& label, u32 ntasks,
                 const std::function<void(u32)>& body);

  /// As run_stage, but also records shuffle bytes produced by the stage.
  /// `shuffle_bytes` is read after the tasks complete, so the body may
  /// accumulate into it.
  void run_stage_with_shuffle(const std::string& label, u32 ntasks,
                              const std::function<void(u32)>& body,
                              const std::atomic<u64>& shuffle_bytes);

  /// Execute `body(0..ntasks-1)` on the pool and return the measured
  /// per-task work, without recording a stage. Building block for
  /// substrates (e.g. MapReduce) that assemble their own StageRecords.
  /// `label` names the per-task wall-clock spans when tracing is on.
  ///
  /// This is also the engine's fault boundary: when the FaultProfile is
  /// enabled, every task launch consults it (injected failures with bounded
  /// retries, blacklist-aware placement, stragglers, speculative copies,
  /// stage retries) and throws StageFailedError once the attempt budget is
  /// exhausted. Because both the RDD scheduler and the MapReduce JobRunner
  /// funnel through here, both substrates face the same failures.
  std::vector<sim::TaskRecord> measure_tasks(
      const std::string& label, u32 ntasks,
      const std::function<void(u32)>& body);

  /// Record driver-side/overhead cost (initial DFS load, candidate
  /// generation, MR job startup).
  void record(sim::StageRecord record);

  // --- RDD factories; definitions in engine/rdd.h ---------------------
  /// Distribute `data` over `nparts` partitions (0 = default_partitions).
  template <typename T>
  RDD<T> parallelize(std::vector<T> data, u32 nparts = 0);

  /// Wrap pre-partitioned data (used by shuffles).
  template <typename T>
  RDD<T> from_partitions(std::vector<std::vector<T>> parts);

  /// Broadcast a value to all workers; definitions in engine/broadcast.h.
  /// `name` identifies the payload in lint diagnostics (YL002).
  template <typename T>
  Broadcast<T> broadcast(T value, u64 bytes,
                         const std::string& name = "broadcast");

 private:
  /// Faulty-path twin of measure_tasks (attempts, stragglers, speculation).
  std::vector<sim::TaskRecord> measure_tasks_with_faults(
      const std::string& label, u32 ntasks,
      const std::function<void(u32)>& body);

  Options opts_;
  sim::CostModel model_;
  ThreadPool pool_;
  FaultInjector fault_;
  MemoryBudget memory_budget_;
  PlanLinter linter_;
  DetSan detsan_;
  u32 default_partitions_;
  simfs::SimFS* spill_fs_ = nullptr;
  bool spill_compress_ = true;
  std::atomic<u64> spill_seq_{0};
  /// Stages launched so far; salts the deterministic injection draws.
  std::atomic<u64> stage_seq_{0};

  util::Mutex report_mutex_;
  sim::SimReport report_ YAFIM_GUARDED_BY(report_mutex_);

  std::atomic<u32> next_rdd_id_{0};
  u32 pass_ = 0;
  u64 pending_broadcast_ = 0;
};

}  // namespace yafim::engine
