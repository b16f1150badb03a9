// Wall-clock tracing: per-stage and per-task spans with steady-clock
// timestamps and thread ids, exported as Chrome trace-event JSON
// (chrome://tracing, Perfetto) or a compact per-stage summary table.
//
// Design (mirrors Spark's event log + UI at minispark scale):
//  * Each thread appends TraceEvents to its own buffer; the only lock taken
//    on the hot path is that buffer's private mutex, which is uncontended
//    except at the instant the driver drains it (action/stage boundaries).
//  * The global enabled flag (obs/metrics.h) gates everything: when tracing
//    is off a Span construct/destruct is a relaxed load and a branch, and no
//    allocation or clock read happens.
//  * The Tracer is a process-wide singleton so instrumentation points deep
//    in the engine (thread pool, RDD cache, hash tree) need no plumbing.
//    Tests and the CLI reset() it around a traced region.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/common.h"

namespace yafim::obs {

struct TraceEvent {
  enum class Phase : u8 {
    kComplete,  ///< Chrome "X": a span with ts + dur
    kInstant,   ///< Chrome "i": a point-in-time marker
    kCounter,   ///< Chrome "C": sampled counter value
    kMeta,      ///< Chrome "M": metadata (thread names)
  };

  std::string name;
  /// Category; must point at a string literal (stored unowned).
  const char* cat = "";
  Phase phase = Phase::kComplete;
  /// Microseconds since the tracer epoch (start()/reset()).
  u64 ts_us = 0;
  u64 dur_us = 0;
  /// Small dense thread id (0 = first thread seen, usually the driver).
  u32 tid = 0;
  /// Numeric span arguments (counts, bytes); rendered into Chrome "args".
  std::vector<std::pair<std::string, u64>> args;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Reset the epoch and enable collection.
  void start();
  /// Stop collecting (buffered events are kept until reset()).
  void stop();

  /// Drop all collected events and zero every counter in the registry.
  void reset();

  /// Microseconds since the epoch.
  u64 now_us() const;

  /// Append an event to the calling thread's buffer. No-op when disabled
  /// (callers on hot paths should pre-check enabled() to skip building the
  /// event at all).
  void emit(TraceEvent event);

  /// Name the calling thread in the exported trace ("driver", "pool-3").
  void set_thread_name(const std::string& name);

  /// Move per-thread buffers into the central log and append one counter
  /// sample per nonzero counter. The engine calls this at stage boundaries;
  /// exporters call it implicitly.
  void drain();

  /// Drained snapshot (drains first). Events are in per-thread order;
  /// global order is reconstructed from timestamps by consumers.
  std::vector<TraceEvent> events();

  /// Full Chrome trace-event JSON ({"traceEvents":[...]}).
  std::string chrome_json();
  /// Write chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path);

  /// Per-stage and per-driver-step wall-clock summary table plus counter
  /// totals -- the "Spark UI" for a traced run.
  std::string summary();

 private:
  Tracer();
  struct Impl;
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();
  Impl* impl_;
};

/// RAII span. Captures the start timestamp at construction and emits one
/// complete event when it ends (explicitly or at scope exit). Inert when
/// tracing is disabled at construction time.
class Span {
 public:
  Span(const char* cat, std::string name) : cat_(cat) {
    if (!enabled()) return;
    active_ = true;
    name_ = std::move(name);
    start_us_ = Tracer::instance().now_us();
  }
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  /// Attach a numeric argument (shown in the trace viewer's detail pane).
  void arg(std::string key, u64 value) {
    if (active_) args_.emplace_back(std::move(key), value);
  }

  void end() {
    if (!active_) return;
    active_ = false;
    Tracer& tracer = Tracer::instance();
    TraceEvent event;
    event.name = std::move(name_);
    event.cat = cat_;
    event.phase = TraceEvent::Phase::kComplete;
    event.ts_us = start_us_;
    event.dur_us = tracer.now_us() - start_us_;
    event.args = std::move(args_);
    tracer.emit(std::move(event));
  }

 private:
  const char* cat_;
  std::string name_;
  u64 start_us_ = 0;
  bool active_ = false;
  std::vector<std::pair<std::string, u64>> args_;
};

/// Emit a point-in-time marker (fault injection, executor kill).
void instant(const char* cat, std::string name,
             std::vector<std::pair<std::string, u64>> args = {});

}  // namespace yafim::obs
