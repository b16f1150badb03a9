#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "util/table.h"
#include "util/thread_annotations.h"

namespace yafim::obs {

namespace {

using steady = std::chrono::steady_clock;

i64 steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

struct Tracer::ThreadBuffer {
  util::Mutex mutex;
  std::vector<TraceEvent> events YAFIM_GUARDED_BY(mutex);
  std::string name YAFIM_GUARDED_BY(mutex);
  /// Written once at registration (under Impl::mutex, before the buffer is
  /// published) and read only by the owning thread afterwards, so it needs
  /// no guard.
  u32 tid = 0;
};

struct Tracer::Impl {
  util::Mutex mutex;
  /// The list of buffers; each buffer's contents are behind its own mutex
  /// (two-level locking, always Impl::mutex before ThreadBuffer::mutex).
  std::vector<std::shared_ptr<ThreadBuffer>> buffers YAFIM_GUARDED_BY(mutex);
  std::vector<TraceEvent> drained YAFIM_GUARDED_BY(mutex);
  std::atomic<i64> epoch_ns{steady_now_ns()};
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  // Leaked: worker threads may trace during static destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> t_buffer;
  if (!t_buffer) {
    t_buffer = std::make_shared<ThreadBuffer>();
    util::MutexLock lock(impl_->mutex);
    t_buffer->tid = static_cast<u32>(impl_->buffers.size());
    impl_->buffers.push_back(t_buffer);
  }
  return *t_buffer;
}

void Tracer::start() { set_enabled(true); }

void Tracer::stop() { set_enabled(false); }

void Tracer::reset() {
  util::MutexLock lock(impl_->mutex);
  for (auto& buffer : impl_->buffers) {
    util::MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  impl_->drained.clear();
  impl_->epoch_ns.store(steady_now_ns(), std::memory_order_relaxed);
  CounterRegistry::instance().reset_all();
}

u64 Tracer::now_us() const {
  const i64 ns =
      steady_now_ns() - impl_->epoch_ns.load(std::memory_order_relaxed);
  return ns > 0 ? static_cast<u64>(ns) / 1000 : 0;
}

void Tracer::emit(TraceEvent event) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  util::MutexLock lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

void Tracer::set_thread_name(const std::string& name) {
  ThreadBuffer& buffer = local_buffer();
  util::MutexLock lock(buffer.mutex);
  buffer.name = name;
}

void Tracer::drain() {
  const u64 ts = now_us();
  util::MutexLock lock(impl_->mutex);
  for (auto& buffer : impl_->buffers) {
    util::MutexLock buffer_lock(buffer->mutex);
    for (auto& event : buffer->events) {
      impl_->drained.push_back(std::move(event));
    }
    buffer->events.clear();
  }
  if (!enabled()) return;
  // Stepped counter samples so Perfetto draws bytes/hits over time.
  for (const auto& [name, value] : CounterRegistry::instance().snapshot()) {
    if (value == 0) continue;
    TraceEvent sample;
    sample.name = name;
    sample.cat = "counter";
    sample.phase = TraceEvent::Phase::kCounter;
    sample.ts_us = ts;
    sample.args.emplace_back("value", value);
    impl_->drained.push_back(std::move(sample));
  }
}

std::vector<TraceEvent> Tracer::events() {
  drain();
  util::MutexLock lock(impl_->mutex);
  return impl_->drained;
}

std::string Tracer::chrome_json() {
  const std::vector<TraceEvent> drained = events();

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto begin_event = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n{";
  };

  // Thread-name metadata from the buffer registry.
  {
    util::MutexLock lock(impl_->mutex);
    for (const auto& buffer : impl_->buffers) {
      util::MutexLock buffer_lock(buffer->mutex);
      if (buffer->name.empty()) continue;
      begin_event();
      out += "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
             std::to_string(buffer->tid) + ",\"args\":{\"name\":\"";
      append_escaped(out, buffer->name);
      out += "\"}}";
    }
  }

  char buf[64];
  for (const TraceEvent& event : drained) {
    begin_event();
    out += "\"name\":\"";
    append_escaped(out, event.name);
    out += "\",\"cat\":\"";
    append_escaped(out, event.cat);
    out += "\"";
    switch (event.phase) {
      case TraceEvent::Phase::kComplete:
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu",
                      static_cast<unsigned long long>(event.ts_us),
                      static_cast<unsigned long long>(event.dur_us));
        out += buf;
        break;
      case TraceEvent::Phase::kInstant:
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"i\",\"ts\":%llu,\"s\":\"p\"",
                      static_cast<unsigned long long>(event.ts_us));
        out += buf;
        break;
      case TraceEvent::Phase::kCounter:
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"C\",\"ts\":%llu",
                      static_cast<unsigned long long>(event.ts_us));
        out += buf;
        break;
      case TraceEvent::Phase::kMeta:
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"M\",\"ts\":%llu",
                      static_cast<unsigned long long>(event.ts_us));
        out += buf;
        break;
    }
    out += ",\"pid\":1,\"tid\":" + std::to_string(event.tid);
    if (!event.args.empty()) {
      out += ",\"args\":{";
      for (size_t i = 0; i < event.args.size(); ++i) {
        if (i) out += ",";
        out += "\"";
        append_escaped(out, event.args[i].first);
        out += "\":" + std::to_string(event.args[i].second);
      }
      out += "}";
    }
    out += "}";
  }

  // Final counter totals, stamped after the last event.
  u64 end_ts = 0;
  for (const TraceEvent& event : drained) {
    end_ts = std::max(end_ts, event.ts_us + event.dur_us);
  }
  for (const auto& [name, value] : CounterRegistry::instance().snapshot()) {
    if (value == 0) continue;
    begin_event();
    out += "\"name\":\"";
    append_escaped(out, name);
    out += "\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":" +
           std::to_string(end_ts) +
           ",\"pid\":1,\"tid\":0,\"args\":{\"value\":" +
           std::to_string(value) + "}";
    out += "}";
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) {
  const std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  return written == json.size() && close_rc == 0;
}

std::string Tracer::summary() {
  const std::vector<TraceEvent> drained = events();

  // Aggregate stage spans and their task spans by label (task events carry
  // the stage label as their name), plus driver spans -- driver-side steps
  // such as the per-pass ap_gen + hash-tree build, which run no tasks.
  struct StageAgg {
    u64 runs = 0;
    u64 wall_us = 0;
    u64 tasks = 0;
    u64 task_us = 0;
    u64 max_task_us = 0;
  };
  std::vector<std::string> order;
  std::unordered_map<std::string, StageAgg> stages;
  auto agg_of = [&](const std::string& label) -> StageAgg& {
    auto it = stages.find(label);
    if (it == stages.end()) {
      order.push_back(label);
      it = stages.emplace(label, StageAgg{}).first;
    }
    return it->second;
  };

  for (const TraceEvent& event : drained) {
    if (event.phase != TraceEvent::Phase::kComplete) continue;
    const std::string cat = event.cat;
    if (cat == "stage" || cat == "driver") {
      StageAgg& agg = agg_of(event.name);
      ++agg.runs;
      agg.wall_us += event.dur_us;
    } else if (cat == "task") {
      StageAgg& agg = agg_of(event.name);
      ++agg.tasks;
      agg.task_us += event.dur_us;
      agg.max_task_us = std::max(agg.max_task_us, event.dur_us);
    }
  }

  std::string out =
      "== trace summary: stages and driver steps (wall-clock) ==\n";
  Table table({"stage", "runs", "tasks", "wall ms", "task ms", "avg task ms",
               "max task ms"});
  for (const std::string& label : order) {
    const StageAgg& agg = stages[label];
    const double avg_ms =
        agg.tasks ? agg.task_us / 1000.0 / static_cast<double>(agg.tasks)
                  : 0.0;
    table.add_row({label, Table::num(agg.runs), Table::num(agg.tasks),
                   Table::num(agg.wall_us / 1000.0, 3),
                   Table::num(agg.task_us / 1000.0, 3), Table::num(avg_ms, 3),
                   Table::num(agg.max_task_us / 1000.0, 3)});
  }
  out += table.to_ascii();

  out += "== counters ==\n";
  Table counters({"counter", "value"});
  for (const auto& [name, value] : CounterRegistry::instance().snapshot()) {
    if (value == 0) continue;
    counters.add_row({name, Table::num(value)});
  }
  out += counters.to_ascii();
  return out;
}

void instant(const char* cat, std::string name,
             std::vector<std::pair<std::string, u64>> args) {
  if (!enabled()) return;
  Tracer& tracer = Tracer::instance();
  TraceEvent event;
  event.name = std::move(name);
  event.cat = cat;
  event.phase = TraceEvent::Phase::kInstant;
  event.ts_us = tracer.now_us();
  event.args = std::move(args);
  tracer.emit(std::move(event));
}

}  // namespace yafim::obs
