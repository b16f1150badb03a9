// Replayable execution records.
//
// Every engine stage / MapReduce phase appends a StageRecord holding its raw
// counters (per-task work units, bytes moved, fixed overheads). Records are
// *cluster-independent*: `stage_seconds()` prices a record under any
// ClusterConfig, so a run recorded once can be replayed at 16, 24, ... 48
// cores -- which is exactly how the Fig. 5 speedup sweep is produced without
// re-mining.
#pragma once

#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "util/common.h"

namespace yafim::sim {

enum class StageKind {
  /// A Spark-style stage: cheap task launch, input already in memory.
  kSparkStage,
  /// A Hadoop map phase: JVM-per-task launch cost; input read from HDFS is
  /// accounted through dfs_read_bytes.
  kMapPhase,
  /// A Hadoop reduce phase: JVM-per-task launch cost; output write through
  /// dfs_write_bytes.
  kReducePhase,
  /// Pure overhead (job startup, driver-side candidate generation).
  kOverhead,
};

/// One task's contribution to a stage.
struct TaskRecord {
  /// Abstract compute units (see sim::CostModel).
  u64 work = 0;
  /// Launches of this task (1 + injected-failure retries). Each launch pays
  /// the stage's task-launch overhead; each retry also pays the cluster's
  /// relaunch backoff.
  u32 attempts = 1;
  /// Work units burned by failed attempts before they died (recharged on
  /// top of `work`).
  u64 wasted_work = 0;
  /// True for a speculative copy raced against a straggler (extra record
  /// appended to the stage; consumes a core like any task).
  bool speculative = false;
};

/// One stage of execution with everything needed to price it later.
struct StageRecord {
  std::string label;
  StageKind kind = StageKind::kSparkStage;
  /// Tag grouping stages into algorithm passes (Apriori iteration number,
  /// 1-based). 0 means outside any pass (e.g. initial load).
  u32 pass = 0;

  std::vector<TaskRecord> tasks;

  /// Bytes shuffled all-to-all between this stage and the next.
  u64 shuffle_bytes = 0;
  /// Bytes broadcast from the driver before the stage runs.
  u64 broadcast_bytes = 0;
  /// Bytes shipped naively (per task, through the driver) -- ablation mode.
  u64 naive_ship_bytes = 0;
  /// Task results the driver fetches through its single link: sum_arrays'
  /// partials when the driver merges them, or its reducers' output.
  u64 driver_fetch_bytes = 0;
  /// Bytes read from / written to the simulated HDFS.
  u64 dfs_read_bytes = 0;
  u64 dfs_write_bytes = 0;
  /// Driver-side serial compute (candidate generation, hash-tree build).
  u64 driver_work = 0;
  /// Fixed overhead in seconds (MR job startup).
  double fixed_overhead_s = 0.0;
};

/// Simulated duration of one stage under a cluster/cost model.
double stage_seconds(const StageRecord& stage, const CostModel& model);

/// Split `total_work` units over `ntasks` tasks as evenly as integers
/// allow. The per-task work sums to exactly `total_work` (the first
/// `total_work % ntasks` tasks carry one extra unit) -- use this instead
/// of `total / ntasks` per task, which silently drops up to ntasks - 1
/// units from the priced total.
std::vector<TaskRecord> split_work(u64 total_work, u32 ntasks);

class SimReport;

/// Human-readable per-stage breakdown of a run (label, kind, pass, tasks,
/// work, traffic, priced seconds) -- the engine's "Spark UI".
std::string format_report(const SimReport& report, const CostModel& model);

/// A full run: ordered stages plus convenience aggregations.
class SimReport {
 public:
  void add(StageRecord stage) { stages_.push_back(std::move(stage)); }
  void clear() { stages_.clear(); }

  const std::vector<StageRecord>& stages() const { return stages_; }
  bool empty() const { return stages_.empty(); }

  /// Total simulated seconds under `model`.
  double total_seconds(const CostModel& model) const;

  /// Simulated seconds per pass tag. Index 0 collects untagged stages
  /// (initial load etc.); index k collects pass k. The vector is sized to
  /// the largest tag present + 1.
  std::vector<double> pass_seconds(const CostModel& model) const;

  /// Aggregate counters across all stages (for reporting).
  u64 total_work() const;
  u64 total_shuffle_bytes() const;
  u64 total_dfs_read_bytes() const;
  u64 total_dfs_write_bytes() const;
  u64 total_broadcast_bytes() const;

 private:
  std::vector<StageRecord> stages_;
};

}  // namespace yafim::sim
