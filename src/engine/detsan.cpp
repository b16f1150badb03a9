#include "engine/detsan.h"

#include <sstream>
#include <utility>

#include "engine/lint.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::engine {

namespace {

/// Thread-local stage label; owned by the string measure_tasks holds alive
/// for the duration of the stage.
thread_local const std::string* t_stage = nullptr;

const std::string& empty_stage() {
  static const std::string kEmpty;
  return kEmpty;
}

/// YL007 text for a permuted replay whose output diverged.
std::string replay_message(const char* op, const std::string& element) {
  return std::string("replay of ") + op +
         " with permuted input order diverged at " + element +
         "; the closure is impure or the reduce fn is "
         "non-commutative/non-associative";
}

}  // namespace

DetSanError::DetSanError(std::string node_name, std::string stage,
                         std::string element, const std::string& what)
    : std::runtime_error(what),
      node_name_(std::move(node_name)),
      stage_(std::move(stage)),
      element_(std::move(element)) {}

void DetSan::configure(const DetSanOptions& options, PlanLinter* linter) {
  enabled_ = options.enabled;
  sample_rate_ = options.sample_rate;
  seed_ = options.seed;
  fail_fast_ = options.fail_fast;
  linter_ = linter;
}

bool DetSan::should_replay(u32 node_id, u32 pid) const {
  if (!enabled_ || sample_rate_ <= 0.0) return false;
  if (sample_rate_ >= 1.0) return true;
  Rng rng(mix64(seed_ ^ (static_cast<u64>(node_id) << 32 | pid)));
  return rng.bernoulli(sample_rate_);
}

u64 DetSan::replay_seed(u32 node_id, u32 pid) const {
  return mix64(seed_ + 1) ^
         mix64(static_cast<u64>(node_id) << 32 | (pid + 1));
}

std::vector<u32> DetSan::permutation(size_t n, u64 seed) {
  std::vector<u32> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<u32>(i);
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  if (n >= 2) {
    // A shuffle can land on the identity (always for tiny n with some
    // probability); visiting elements in the original order tests nothing,
    // so rotate by one in that case. Still deterministic in the seed.
    bool identity = true;
    for (size_t i = 0; i < n && identity; ++i) identity = order[i] == i;
    if (identity) {
      const u32 first = order[0];
      for (size_t i = 0; i + 1 < n; ++i) order[i] = order[i + 1];
      order[n - 1] = first;
    }
  }
  return order;
}

void DetSan::note_replayed() {
  replayed_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::CounterId::kDetsanTasksReplayed);
}

void DetSan::report_divergence(u32 node_id, const char* op,
                               const std::string& element) {
  const std::string node_name = linter_ != nullptr
                                    ? linter_->node_label(node_id)
                                    : "rdd#" + std::to_string(node_id);
  diverged(node_id, node_name, op, element, replay_message(op, element));
}

void DetSan::report_divergence(const std::string& what, const char* op,
                               const std::string& element) {
  diverged(/*node=*/0, what, op, element, replay_message(op, element));
}

void DetSan::report_divergence_raw(const std::string& what, const char* op,
                                   const std::string& element) {
  diverged(/*node=*/0, what, op, element,
           "re-serialization of " + what + " diverged at " + element +
               "; the serialized block contains unstable (uninitialized or "
               "address-dependent) bytes");
}

void DetSan::diverged(u32 node, const std::string& node_name, const char* op,
                      const std::string& element, const std::string& message) {
  if (linter_ != nullptr) {
    linter_->note_detsan_divergence(node, node_name, message);
  }
  divergences_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::CounterId::kDetsanDivergences);
  if (!fail_fast_) return;
  const std::string stage = current_stage();
  std::ostringstream os;
  os << "DetSan: node '" << node_name << "'";
  if (!stage.empty()) os << " in stage '" << stage << "'";
  os << ": " << op << " replay diverged at " << element;
  throw DetSanError(node_name, stage, element, os.str());
}

const std::string& DetSan::current_stage() {
  return t_stage != nullptr ? *t_stage : empty_stage();
}

DetSan::StageScope::StageScope(const std::string* label) : prev_(t_stage) {
  if (label != nullptr) t_stage = label;
}

DetSan::StageScope::~StageScope() { t_stage = prev_; }

}  // namespace yafim::engine
