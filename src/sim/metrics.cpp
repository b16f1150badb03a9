#include "sim/metrics.h"

#include <algorithm>

#include "sim/makespan.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/table.h"

namespace yafim::sim {

namespace {

/// Deterministic per-task launch-overhead jitter in [0.5, 1.5).
///
/// Real task launches are heterogeneous (scheduling delay, code shipping,
/// executor state); modeling them as identical makes every stage quantize
/// into exact waves of ceil(tasks/cores), which produces stair-stepped
/// core-scaling curves no real cluster shows. Hash-based jitter keeps the
/// mean launch cost configured in ClusterConfig while restoring the smooth
/// makespan behaviour of heterogeneous tasks.
double launch_jitter(u64 task_index) {
  const u64 h = mix64(task_index ^ 0x51ac5ed5ULL);
  return 0.5 + static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<TaskRecord> split_work(u64 total_work, u32 ntasks) {
  YAFIM_CHECK(ntasks > 0, "split_work needs >= 1 task");
  std::vector<TaskRecord> tasks(ntasks);
  const u64 per_task = total_work / ntasks;
  const u64 extra = total_work % ntasks;
  for (u32 t = 0; t < ntasks; ++t) {
    tasks[t].work = per_task + (t < extra ? 1 : 0);
  }
  return tasks;
}

double stage_seconds(const StageRecord& stage, const CostModel& model) {
  const ClusterConfig& cluster = model.cluster();

  double launch = 0.0;
  switch (stage.kind) {
    case StageKind::kSparkStage:
      launch = cluster.spark_task_launch_s;
      break;
    case StageKind::kMapPhase:
    case StageKind::kReducePhase:
      launch = cluster.mr_task_launch_s;
      break;
    case StageKind::kOverhead:
      launch = 0.0;
      break;
  }

  std::vector<double> durations;
  durations.reserve(stage.tasks.size());
  for (size_t i = 0; i < stage.tasks.size(); ++i) {
    const TaskRecord& task = stage.tasks[i];
    // A task slot is occupied for: every launch's overhead, the work its
    // failed attempts burned, the retry backoffs between launches, and the
    // surviving attempt's work.
    const u32 launches = std::max(1u, task.attempts);
    durations.push_back(model.compute_seconds(task.work + task.wasted_work) +
                        launch * launch_jitter(i) * launches +
                        cluster.task_retry_backoff_s * (launches - 1));
  }
  double total = lpt_makespan(durations, cluster.total_cores());

  total += model.compute_seconds(stage.driver_work);
  total += stage.fixed_overhead_s;
  if (stage.dfs_read_bytes) total += model.dfs_read_seconds(stage.dfs_read_bytes);
  if (stage.dfs_write_bytes)
    total += model.dfs_write_seconds(stage.dfs_write_bytes);
  if (stage.shuffle_bytes) total += model.shuffle_seconds(stage.shuffle_bytes);
  if (stage.broadcast_bytes)
    total += model.broadcast_seconds(stage.broadcast_bytes);
  if (stage.naive_ship_bytes)
    total += model.naive_ship_seconds(stage.naive_ship_bytes,
                                      stage.tasks.size());
  if (stage.driver_fetch_bytes)
    total += model.driver_link_seconds(stage.driver_fetch_bytes);
  return total;
}

double SimReport::total_seconds(const CostModel& model) const {
  double total = 0.0;
  for (const StageRecord& s : stages_) total += stage_seconds(s, model);
  return total;
}

std::vector<double> SimReport::pass_seconds(const CostModel& model) const {
  u32 max_pass = 0;
  for (const StageRecord& s : stages_) max_pass = std::max(max_pass, s.pass);
  std::vector<double> by_pass(max_pass + 1, 0.0);
  for (const StageRecord& s : stages_) {
    by_pass[s.pass] += stage_seconds(s, model);
  }
  return by_pass;
}

std::string format_report(const SimReport& report, const CostModel& model) {
  auto kind_name = [](StageKind kind) -> const char* {
    switch (kind) {
      case StageKind::kSparkStage:
        return "spark";
      case StageKind::kMapPhase:
        return "map";
      case StageKind::kReducePhase:
        return "reduce";
      case StageKind::kOverhead:
        return "overhead";
    }
    return "?";
  };

  Table table({"pass", "stage", "kind", "tasks", "work", "shuffle", "bcast",
               "fetch", "dfs r/w", "sec"});
  for (const StageRecord& stage : report.stages()) {
    u64 work = stage.driver_work;
    for (const TaskRecord& t : stage.tasks) work += t.work;
    table.add_row(
        {Table::num(u64{stage.pass}), stage.label, kind_name(stage.kind),
         Table::num(u64{stage.tasks.size()}), Table::num(work),
         format_bytes(stage.shuffle_bytes),
         format_bytes(stage.broadcast_bytes + stage.naive_ship_bytes),
         format_bytes(stage.driver_fetch_bytes),
         format_bytes(stage.dfs_read_bytes) + "/" +
             format_bytes(stage.dfs_write_bytes),
         Table::num(stage_seconds(stage, model))});
  }
  std::string out = table.to_ascii();
  char total[64];
  std::snprintf(total, sizeof(total), "total: %.2f simulated seconds\n",
                report.total_seconds(model));
  return out + total;
}

u64 SimReport::total_work() const {
  u64 total = 0;
  for (const StageRecord& s : stages_) {
    total += s.driver_work;
    for (const TaskRecord& t : s.tasks) total += t.work;
  }
  return total;
}

u64 SimReport::total_shuffle_bytes() const {
  u64 total = 0;
  for (const StageRecord& s : stages_) total += s.shuffle_bytes;
  return total;
}

u64 SimReport::total_dfs_read_bytes() const {
  u64 total = 0;
  for (const StageRecord& s : stages_) total += s.dfs_read_bytes;
  return total;
}

u64 SimReport::total_dfs_write_bytes() const {
  u64 total = 0;
  for (const StageRecord& s : stages_) total += s.dfs_write_bytes;
  return total;
}

u64 SimReport::total_broadcast_bytes() const {
  u64 total = 0;
  for (const StageRecord& s : stages_) total += s.broadcast_bytes;
  return total;
}

}  // namespace yafim::sim
