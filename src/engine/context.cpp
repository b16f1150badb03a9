#include "engine/context.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "engine/work.h"
#include "obs/trace.h"

namespace yafim::engine {

namespace {

/// Injected failure thrown at task launch and caught by the attempt loop,
/// so recovery exercises a real C++ exception path through the machinery.
struct InjectedTaskFailure {
  u32 node;
};

}  // namespace

Context::Context(Options opts)
    : opts_(std::move(opts)),
      model_(opts_.cluster),
      pool_(opts_.host_threads),
      fault_(opts_.cluster, opts_.fault),
      memory_budget_(opts_.cluster, opts_.fault),
      default_partitions_(opts_.default_partitions
                              ? opts_.default_partitions
                              : 2 * opts_.cluster.total_cores()) {
  // DetSan resolves node names for YL007 through the linter's plan shadow,
  // so enabling the sanitizer forces the linter on.
  if (opts_.detsan.enabled) opts_.lint.enabled = true;
  linter_.configure(opts_.lint, opts_.cluster.executor_memory_bytes);
  detsan_.configure(opts_.detsan, &linter_);
  // Stages are launched from the constructing thread; name it in traces.
  obs::Tracer::instance().set_thread_name("driver");
}

std::vector<sim::TaskRecord> Context::measure_tasks(
    const std::string& label, u32 ntasks,
    const std::function<void(u32)>& body) {
  YAFIM_CHECK(!ThreadPool::on_pool_thread(),
              "stages must be launched from the driver thread");
  if (fault_.profile().enabled()) {
    return measure_tasks_with_faults(label, ntasks, body);
  }
  const bool traced = obs::enabled();
  std::vector<sim::TaskRecord> tasks(ntasks);
  pool_.parallel_for(ntasks, [&](u32 i) {
    std::optional<obs::Span> span;
    if (traced) {
      span.emplace("task", label);
      span->arg("index", i);
    }
    DetSan::StageScope stage_scope(detsan_.enabled() ? &label : nullptr);
    work::Scope scope;
    body(i);
    tasks[i].work = scope.measured();
    if (span) span->arg("work", tasks[i].work);
  });
  return tasks;
}

std::vector<sim::TaskRecord> Context::measure_tasks_with_faults(
    const std::string& label, u32 ntasks,
    const std::function<void(u32)>& body) {
  const FaultProfile& fp = fault_.profile();
  const u64 stage = stage_seq_.fetch_add(1, std::memory_order_relaxed);
  const bool traced = obs::enabled();

  std::vector<sim::TaskRecord> tasks(ntasks);
  for (sim::TaskRecord& t : tasks) t.attempts = 0;
  std::vector<u64> base_work(ntasks, 0);   // pre-straggler measured work
  std::vector<u8> exhausted(ntasks, 0);

  auto straggle = [&fp](u64 work) -> u64 {
    return static_cast<u64>(static_cast<double>(work) * fp.straggler_slowdown);
  };

  // A stage attempt runs every task in `todo` through the per-task attempt
  // budget; tasks that exhaust it are retried by the next stage attempt
  // with a fresh budget (Spark resubmits only the lost tasks).
  std::vector<u32> todo(ntasks);
  std::iota(todo.begin(), todo.end(), 0);
  const u32 max_stage_attempts = std::max(1u, fp.max_stage_attempts);
  for (u32 stage_attempt = 0;; ++stage_attempt) {
    pool_.parallel_for(static_cast<u32>(todo.size()), [&](u32 j) {
      const u32 i = todo[j];
      sim::TaskRecord& rec = tasks[i];
      DetSan::StageScope stage_scope(detsan_.enabled() ? &label : nullptr);
      std::optional<obs::Span> span;
      if (traced) {
        span.emplace("task", label);
        span->arg("index", i);
      }
      for (u32 attempt = 0;; ++attempt) {
        const u32 node = fault_.node_of(i);
        ++rec.attempts;
        try {
          if (fault_.draw_task_failure(stage, stage_attempt, i, attempt,
                                       node)) {
            throw InjectedTaskFailure{node};
          }
        } catch (const InjectedTaskFailure& failure) {
          fault_.note_task_failure(failure.node);
          if (traced) {
            obs::instant("fault", "task_failure",
                         {{"task", i},
                          {"attempt", attempt},
                          {"node", failure.node}});
          }
          if (attempt + 1 >= std::max(1u, fp.max_task_attempts)) {
            exhausted[i] = 1;
            if (span) span->arg("exhausted", 1);
            return;
          }
          fault_.note_task_retry();
          continue;
        }
        work::Scope scope;
        body(i);
        base_work[i] = scope.measured();
        rec.work = base_work[i];
        exhausted[i] = 0;
        if (fault_.draw_straggler(stage, i, /*copy=*/0)) {
          fault_.note_straggler();
          rec.work = straggle(base_work[i]);
          if (span) span->arg("straggler", 1);
        }
        break;
      }
      if (span) {
        span->arg("work", rec.work);
        if (rec.attempts > 1) span->arg("attempts", rec.attempts);
      }
    });

    std::vector<u32> failed;
    for (u32 i : todo) {
      if (exhausted[i]) failed.push_back(i);
    }
    if (failed.empty()) break;
    if (stage_attempt + 1 >= max_stage_attempts) {
      throw StageFailedError(label, static_cast<u32>(failed.size()),
                             stage_attempt + 1);
    }
    fault_.note_stage_retry();
    obs::instant("fault", "stage_retry",
                 {{"attempt", stage_attempt + 1},
                  {"failed_tasks", failed.size()}});
    todo = std::move(failed);
  }

  // Each launch beyond the surviving one burned a configured fraction of
  // the task's work before dying; the cost model recharges it.
  for (u32 i = 0; i < ntasks; ++i) {
    if (tasks[i].attempts > 1) {
      tasks[i].wasted_work = static_cast<u64>(
          static_cast<double>(tasks[i].attempts - 1) *
          fp.failed_attempt_work_fraction * static_cast<double>(base_work[i]));
    }
  }

  // Speculative execution: race a copy against any task slower than a
  // multiple of the stage's median runtime; the first finisher wins and the
  // loser is killed at that moment (both consumed a core until then).
  if (fp.speculation_multiple > 0.0 && ntasks >= 2) {
    std::vector<u64> sorted_work(ntasks);
    for (u32 i = 0; i < ntasks; ++i) sorted_work[i] = tasks[i].work;
    std::nth_element(sorted_work.begin(), sorted_work.begin() + ntasks / 2,
                     sorted_work.end());
    const double median = static_cast<double>(sorted_work[ntasks / 2]);
    std::vector<sim::TaskRecord> copies;
    if (median > 0.0) {
      const double threshold = fp.speculation_multiple * median;
      for (u32 i = 0; i < ntasks; ++i) {
        if (static_cast<double>(tasks[i].work) <= threshold) continue;
        const u64 copy_work = fault_.draw_straggler(stage, i, /*copy=*/1)
                                  ? straggle(base_work[i])
                                  : base_work[i];
        const bool win = copy_work < tasks[i].work;
        fault_.note_speculation(win);
        sim::TaskRecord copy;
        copy.work = std::min(copy_work, tasks[i].work);
        copy.speculative = true;
        copies.push_back(copy);
        if (traced) {
          obs::instant("fault", win ? "speculation_win" : "speculation_loss",
                       {{"task", i},
                        {"original_work", tasks[i].work},
                        {"copy_work", copy_work}});
        }
        if (win) tasks[i].work = copy_work;
      }
    }
    tasks.insert(tasks.end(), copies.begin(), copies.end());
  }
  return tasks;
}

void Context::run_stage(const std::string& label, u32 ntasks,
                        const std::function<void(u32)>& body,
                        const StageBytes* bytes) {
  std::optional<obs::Span> span;
  if (obs::enabled()) {
    span.emplace("stage", label);
    span->arg("ntasks", ntasks);
    if (pass_) span->arg("pass", pass_);
  }

  std::vector<sim::TaskRecord> tasks = measure_tasks(label, ntasks, body);

  sim::StageRecord record;
  record.label = label;
  record.kind = sim::StageKind::kSparkStage;
  record.pass = pass_;
  record.tasks = std::move(tasks);
  if (bytes) {
    record.shuffle_bytes = bytes->shuffle.load(std::memory_order_relaxed);
    record.driver_fetch_bytes = bytes->fetched.load(std::memory_order_relaxed);
  }
  if (pending_broadcast_ > 0) {
    if (opts_.share_mode == ShareMode::kBroadcast) {
      record.broadcast_bytes = pending_broadcast_;
    } else {
      record.naive_ship_bytes = pending_broadcast_;
    }
    pending_broadcast_ = 0;
  }
  if (span) {
    if (record.shuffle_bytes) span->arg("shuffle_bytes", record.shuffle_bytes);
    if (record.broadcast_bytes) {
      span->arg("broadcast_bytes", record.broadcast_bytes);
    }
    if (record.driver_fetch_bytes) {
      span->arg("driver_fetch_bytes", record.driver_fetch_bytes);
    }
    u64 total_work = 0;
    for (const sim::TaskRecord& t : record.tasks) total_work += t.work;
    span->arg("work", total_work);
    span->end();  // before record() drains, so this stage is included
  }
  this->record(std::move(record));
}

void Context::record(sim::StageRecord record) {
  if (obs::enabled()) {
    // Mirror the StageRecord's byte accounting into the wall-clock counter
    // registry off the very same record, so SimReport totals and traced
    // counters agree by construction.
    obs::count(obs::CounterId::kShuffleBytes, record.shuffle_bytes);
    obs::count(obs::CounterId::kBroadcastBytes, record.broadcast_bytes);
    obs::count(obs::CounterId::kNaiveShipBytes, record.naive_ship_bytes);
    obs::count(obs::CounterId::kDfsReadBytes, record.dfs_read_bytes);
    obs::count(obs::CounterId::kDfsWriteBytes, record.dfs_write_bytes);
  }
  {
    util::MutexLock lock(report_mutex_);
    report_.add(std::move(record));
  }
  // Stage/action boundary: collect what the worker threads buffered.
  if (obs::enabled()) obs::Tracer::instance().drain();
}

}  // namespace yafim::engine
