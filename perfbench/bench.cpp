#include "bench.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "engine/context.h"
#include "engine/rdd.h"
#include "engine/work.h"
#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "fim/fp_growth.h"
#include "fim/hash_tree.h"
#include "fim/yafim.h"
#include "harness.h"
#include "obs/trace.h"
#include "simfs/simfs.h"
#include "util/log.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {

namespace yd = yafim::datagen;
namespace ye = yafim::engine;
namespace yf = yafim::fim;
namespace ys = yafim::sim;

const std::vector<Workload>& workloads() {
  // Keep the why-sentences identical to BENCHMARK.json and README.md.
  static const std::vector<Workload> kWorkloads = {
      {"t10_lowsup",
       "T10I4D100K at 0.05%: 265k pass-2 and 948k pass-3 candidates, so "
       "ap_gen, tree build, broadcast, the sum_arrays merge and RSS dominate",
       &yd::make_t10i4d100k, 1.0, 0.0005, 0, 0, 2},
      {"chess_deep",
       "Chess at 80%: 13 passes of hash-tree probing over 3,196 dense rows "
       "with small cache-resident candidate sets; load, Phase I and merge "
       "stay under 1%",
       &yd::make_chess, 1.0, 0.80, 0, 0, 3},
      {"t10x10_scan",
       "T10 at scale 10 (1M distinct rows) at 3%: 2 passes, 84 itemsets; "
       "load, Phase I and the scan dominate while candidate-side layers idle",
       &yd::make_t10i4d100k, 10.0, 0.03, 0, 0, 0},
      {"t10_tight_mem",
       "T10 at the paper's 0.25% with 1 MiB executor memory and shuffle "
       "buffer: pass 2 falls back to routed shard trees and spills to SimFS",
       &yd::make_t10i4d100k, 1.0, 0.0025, u64{1} << 20, u64{1} << 20, 2},
  };
  return kWorkloads;
}

namespace {

/// A workload's database, serialized and staged on a SimFS whose
/// corruption profile is pinned off.
struct Staged {
  yf::TransactionDB db;
  std::unique_ptr<yafim::simfs::SimFS> fs;
  std::string path;
  u64 staged_bytes = 0;
};

/// One timed mine and what it cost.
struct Mine {
  yf::MiningRun run;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
};

/// Simulated seconds of a context's report grouped into the layers of the
/// per-layer table (README.md): load, Phase I, driver (ap_gen + tree
/// build), counting (broadcast, probe, merge, route), materialize.
struct SimLayers {
  double load_s = 0, phase1_s = 0, driver_s = 0, count_s = 0,
         materialize_s = 0;
};

/// One mine replayed in yafim_mine's order, with its spans and per-layer
/// metrics (trace_overhead and sim.* excluded; run() adds those).
struct Replay {
  yf::FrequentItemsets itemsets;
  double sim_total_s = 0.0;
  double replay_ms = 0.0;
  double unattributed_ms = 0.0;
  SpanLog spans;
  std::vector<Metric> metrics;
};

/// Null when no workload has that name.
const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Remove every YAFIM_* variable from the environment, so no ambient fault,
/// corruption or dataset-cache setting can change a number. Returns the
/// names removed.
std::vector<std::string> scrub_yafim_env() {
  std::vector<std::string> names;
  for (char** e = environ; e && *e; ++e) {
    const char* eq = std::strchr(*e, '=');
    std::string name(*e, eq ? static_cast<size_t>(eq - *e) : std::strlen(*e));
    if (name.rfind("YAFIM_", 0) == 0) names.push_back(std::move(name));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

/// Host threads: the CPUs this process may run on (sched_getaffinity),
/// not hardware_concurrency.
unsigned host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

/// Context options of every mine: the paper cluster (with the workload's
/// memory budgets), host threads pinned, fault injection pinned off.
ye::ContextOptions context_options(const Workload& w) {
  ye::ContextOptions o;
  o.cluster = ys::ClusterConfig::paper();
  if (w.executor_memory_bytes) {
    o.cluster.executor_memory_bytes = w.executor_memory_bytes;
  }
  o.cluster.shuffle_buffer_bytes = w.shuffle_buffer_bytes;
  o.host_threads = host_threads();
  o.fault = ye::FaultProfile{};  // all-zero: injection disabled
  return o;
}

Staged stage(const Workload& w, u64 seed) {
  Staged s;
  if (w.datagen_seed == 0) {
    s.db = w.make(w.scale, seed).db;
  } else {
    std::vector<yf::Transaction> rows =
        w.make(w.scale, w.datagen_seed).db.release();
    yafim::Rng rng(seed);
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.below(i)]);
    }
    s.db = yf::TransactionDB(std::move(rows));
  }
  s.fs = std::make_unique<yafim::simfs::SimFS>(context_options(w).cluster,
                                               ys::CorruptionProfile{});
  s.path = std::string("hdfs://perfbench/") + w.name;
  std::vector<yafim::u8> bytes = s.db.serialize();
  s.staged_bytes = bytes.size();
  s.fs->write(s.path, std::move(bytes));
  return s;
}

}  // namespace

void render_fimi(const yf::FrequentItemsets& itemsets, std::string& out) {
  out.clear();
  char buf[24];
  for (const auto& [itemset, support] : itemsets.sorted()) {
    for (size_t j = 0; j < itemset.size(); ++j) {
      if (j) out += ' ';
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), itemset[j]).ptr);
    }
    out += "  (";
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), support).ptr);
    out += ")\n";
  }
}

namespace {

/// yafim_mine with default options (the workload's MinSup) on a fresh
/// Context, ending with the FIMI rendering. `ctx_report`, when non-null,
/// receives the context's SimReport.
Mine mine_once(const Workload& w, const Staged& staged, PeakRss& rss,
               std::string& out, ys::SimReport* ctx_report = nullptr) {
  const ye::ContextOptions opts = context_options(w);
  yf::YafimOptions mine_opt;
  mine_opt.min_support = w.min_support;
  Mine m;
  // Hand freed heap back to the kernel first, so the high-water mark this
  // mine reports is not inflated by what earlier mines left cached.
  malloc_trim(0);
  rss.reset();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  {
    ye::Context ctx(opts);
    m.run = yf::yafim_mine(ctx, *staged.fs, staged.path, mine_opt);
    render_fimi(m.run.itemsets, out);
    m.wall_s = now_s() - t0;
    m.cpu_s = process_cpu_s() - cpu0;
    if (ctx_report) *ctx_report = ctx.report();
  }
  m.peak_rss_mib = rss.peak_mib();
  return m;
}

}  // namespace

bool Tally::record(const yf::FrequentItemsets* got,
                   const yf::FrequentItemsets& oracle) {
  ++attempted;
  const bool ok = got != nullptr && got->same_itemsets(oracle);
  if (!ok) ++failed;
  return ok;
}

namespace {

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

SimLayers sim_layers(const ys::SimReport& report, const ys::CostModel& model) {
  SimLayers l;
  for (const ys::StageRecord& st : report.stages()) {
    const double s = ys::stage_seconds(st, model);
    if (st.pass == 0) {
      l.load_s += s;
    } else if (st.pass == 1) {
      l.phase1_s += s;
    } else if (ends_with(st.label, "ap_gen+buildHashTree")) {
      l.driver_s += s;
    } else if (ends_with(st.label, ":materialize")) {
      l.materialize_s += s;
    } else {
      l.count_s += s;
    }
  }
  return l;
}

/// One mine replayed in yafim_mine's order through the library's public
/// functions, with obs counters on and a benchmark span around each layer
/// call, followed by the isolated probe and merge kernels.
Replay replay(const Workload& w, const Staged& staged, std::string& out) {
  using yafim::obs::CounterId;
  using yafim::obs::counter_value;
  Replay r;
  SpanLog& log = r.spans;
  yf::YafimOptions opt;  // yafim_mine's defaults, as in the timed mines
  opt.min_support = w.min_support;

  // Inputs of the isolated kernels, kept past the replay.
  std::vector<std::shared_ptr<std::vector<yf::HashTree>>> pass_trees;
  std::vector<u64> pass_widths;
  u32 partitions = 0;
  u64 load_bytes = 0, tree_bytes_total = 0, tree_nodes_total = 0;
  u64 pass2_candidates = 0;
  int pass2_count_span = -1;

  yafim::obs::Tracer& tracer = yafim::obs::Tracer::instance();
  tracer.reset();
  tracer.start();
  std::optional<Scoped> root(std::in_place, log, "replay");
  auto ctx = std::make_unique<ye::Context>(context_options(w));
  ye::Context& c = *ctx;
  yafim::simfs::SimFS& fs = *staged.fs;
  c.set_spill_fs(&fs);

  // ---- load: SimFS read + deserialize, then the cached transactions RDD.
  c.set_pass(0);
  std::optional<Scoped> load_span(std::in_place, log, "load");
  const std::vector<yafim::u8> raw = fs.read(staged.path);
  yf::TransactionDB db = yf::TransactionDB::deserialize(raw);
  load_bytes = raw.size();
  {
    // The same stage record yafim_mine charges for the parse.
    ys::StageRecord parse;
    parse.label = "load:textFile+parse";
    parse.kind = ys::StageKind::kSparkStage;
    parse.pass = c.pass();
    parse.tasks =
        ys::split_work(db.size() * (1 + c.cluster().record_parse_work),
                       c.default_partitions());
    parse.dfs_read_bytes = raw.size();
    c.record(std::move(parse));
  }
  const u64 min_count = db.min_support_count(opt.min_support);
  yf::FrequentItemsets itemsets(min_count, db.size());
  // Optional so it can be destroyed before the context it points into.
  std::optional<ye::RDD<yf::Transaction>> transactions(
      c.parallelize(db.release(), opt.partitions)
          .map([](const yf::Transaction& t) { return t; })
          .named("transactions"));
  transactions->persist();
  c.memory_budget().note_cached(raw.size());
  partitions = transactions->node()->num_partitions();
  load_span.reset();

  // ---- Phase I: the RDD chain of Algorithm 2.
  std::vector<yf::Itemset> frequent;
  {
    Scoped span(log, "phase1");
    c.set_pass(1);
    const std::vector<yf::CountPair> level =
        transactions->flat_map([](const yf::Transaction& t) { return t; })
            .named("phase1:items")
            .map([](const yf::Item& i) {
              return yf::CountPair(yf::Itemset{i}, 1);
            })
            .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0,
                           yf::ItemsetHash{}, "phase1:count")
            .named("phase1:counts")
            .filter([min_count](const yf::CountPair& kv) {
              return kv.second >= min_count;
            })
            .named("phase1:frequent")
            .collect("phase1:collect");
    for (const auto& [itemset, support] : level) {
      itemsets.add(itemset, support);
      frequent.push_back(itemset);
    }
  }

  // ---- Phase II: ap_gen -> tree build -> count, per pass.
  for (u32 k = 2; !frequent.empty(); ++k) {
    Scoped pass_span(log, "pass");
    c.set_pass(k);
    ye::work::Scope driver_scope;
    std::vector<yf::Itemset> candidates;
    {
      Scoped span(log, "ap_gen");
      candidates = yf::apriori_gen(frequent, k);
    }
    if (candidates.empty()) break;
    auto trees = std::make_shared<std::vector<yf::HashTree>>();
    u64 tree_bytes = 0, id_space = 0;
    {
      Scoped span(log, "tree_build");
      trees->emplace_back(std::move(candidates), opt.branching,
                          opt.leaf_capacity);
      tree_bytes = trees->back().serialized_bytes();
      ys::StageRecord gen;
      gen.label = "pass" + std::to_string(k) + ":ap_gen+buildHashTree";
      gen.kind = ys::StageKind::kOverhead;
      gen.pass = k;
      gen.driver_work = driver_scope.measured();
      c.record(std::move(gen));
      id_space = yf::HashTree::assign_id_offsets(*trees);
    }
    tree_bytes_total += tree_bytes;
    tree_nodes_total += trees->back().num_nodes();
    if (k == 2) pass2_candidates = trees->back().size();

    yf::CountCoreOptions count_opt;
    count_opt.count_mode = opt.count_mode;
    count_opt.use_hash_tree = opt.use_hash_tree;
    count_opt.partitioned = !c.memory_budget().broadcast_fits(tree_bytes);
    count_opt.broadcast_shards = opt.broadcast_shards;
    count_opt.branching = opt.branching;
    count_opt.leaf_capacity = opt.leaf_capacity;
    count_opt.kmin = k;
    count_opt.min_count = min_count;
    count_opt.pass_name = "pass" + std::to_string(k);
    std::vector<yf::CountPair> level;
    {
      Scoped span(log, "count");
      if (k == 2) pass2_count_span = span.id();
      level = yf::count_candidate_trees(c, *transactions, trees, tree_bytes,
                                        id_space, nullptr, count_opt);
    }
    frequent.clear();
    for (auto& [itemset, support] : level) {
      frequent.push_back(itemset);
      itemsets.add(std::move(itemset), support);
    }
    pass_trees.push_back(std::move(trees));
    pass_widths.push_back(id_space);
  }
  c.set_pass(0);

  // ---- Output: the same rendering every timed mine ends with.
  {
    Scoped span(log, "output");
    render_fimi(itemsets, out);
  }
  const int root_id = root->id();
  root.reset();
  tracer.stop();

  r.itemsets = std::move(itemsets);
  r.sim_total_s = c.report().total_seconds(c.cost_model());
  const std::vector<SpanRecord>& spans = log.spans();
  const std::vector<double> self = self_times_ms(spans);
  r.replay_ms = spans[static_cast<size_t>(root_id)].dur_ms();
  r.unattributed_ms = self[static_cast<size_t>(root_id)];
  std::unordered_map<std::string, double> self_by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    self_by_name[spans[i].name] += self[i];
  }

  u64 phase1_shuffle = 0, route_shuffle = 0;
  for (const ys::StageRecord& st : c.report().stages()) {
    if (st.pass == 1) phase1_shuffle += st.shuffle_bytes;
    if (st.label.find(":route") != std::string::npos) {
      route_shuffle += st.shuffle_bytes;
    }
  }
  const ye::MemoryBudget& mb = c.memory_budget();
  const u64 fallbacks = mb.broadcast_fallbacks();
  const u64 spill_blocks = mb.spill_blocks_written();
  const u64 spill_raw = mb.spill_bytes_raw();
  const u64 spill_stored = mb.spill_bytes_stored();
  transactions.reset();
  ctx.reset();

  // ---- Isolated kernels, outside the replay total.
  // Probe: HashTree::for_each_contained on one thread over every
  // transaction, for each pass's tree.
  u64 nodes_visited = 0, cand_checks = 0, hits = 0;
  double probe_ms = 0.0;
  {
    ye::work::Scope isolate;  // keep probe work units off the driver
    const double t0 = now_s();
    for (const auto& trees : pass_trees) {
      for (const yf::HashTree& tree : *trees) {
        yf::HashTree::Probe probe;
        for (const yf::Transaction& t : staged.db.transactions()) {
          tree.for_each_contained(t, probe, [&hits](yafim::u32) { ++hits; });
        }
        nodes_visited += probe.nodes_visited;
        cand_checks += probe.candidate_checks;
      }
    }
    probe_ms = (now_s() - t0) * 1e3;
  }
  pass_trees.clear();

  // Merge: sum_arrays at the run's partition count and each pass's id
  // width, on a fresh context. Inputs are produced lazily per map task, as
  // the counting stage produces them, so the kernel's footprint matches
  // the real merge's.
  double merge_ms = 0.0;
  for (const u64 width : pass_widths) {
    ye::Context mc(context_options(w));
    std::vector<yafim::u32> ids(partitions);
    std::iota(ids.begin(), ids.end(), 0u);
    auto arrays =
        mc.parallelize(std::move(ids), partitions)
            .map_partitions([width](const std::vector<yafim::u32>& part) {
              std::vector<std::vector<u64>> arr;
              for (const yafim::u32 p : part) {
                std::vector<u64> a(width, 0);
                for (u64 i = p % 7; i < width; i += 7) a[i] = 1;
                arr.push_back(std::move(a));
              }
              return arr;
            });
    const double t0 = now_s();
    const std::vector<u64> merged = arrays.sum_arrays(width, "merge-kernel");
    merge_ms += (now_s() - t0) * 1e3;
    if (merged.size() != width) throw std::runtime_error("merge kernel width");
  }

  auto ms_of = [&](const char* name) {
    const auto it = self_by_name.find(name);
    return it == self_by_name.end() ? 0.0 : it->second;
  };
  r.metrics = {
      {"load.ms", ms_of("load"), "ms"},
      {"load.bytes", static_cast<double>(load_bytes), "bytes"},
      {"phase1.ms", ms_of("phase1"), "ms"},
      {"phase1.shuffle_bytes", static_cast<double>(phase1_shuffle), "bytes"},
      {"ap_gen.ms", ms_of("ap_gen"), "ms"},
      {"ap_gen.candidates",
       static_cast<double>(counter_value(CounterId::kCandidatesGenerated)),
       "count"},
      {"ap_gen.pruned",
       static_cast<double>(counter_value(CounterId::kCandidatesPruned)),
       "count"},
      {"tree_build.ms", ms_of("tree_build"), "ms"},
      {"tree.bytes", static_cast<double>(tree_bytes_total), "bytes"},
      {"tree.nodes", static_cast<double>(tree_nodes_total), "count"},
      {"count.ms", ms_of("count"), "ms"},
      {"pass2.count.ms",
       pass2_count_span >= 0 ? self[static_cast<size_t>(pass2_count_span)]
                             : 0.0,
       "ms"},
      {"pass2.candidates", static_cast<double>(pass2_candidates), "count"},
      {"pass.overhead.ms", ms_of("pass"), "ms"},
      {"probe.ms", probe_ms, "ms"},
      {"probe.nodes_visited", static_cast<double>(nodes_visited), "count"},
      {"probe.cand_checks", static_cast<double>(cand_checks), "count"},
      {"probe.hits", static_cast<double>(hits), "count"},
      {"probe.hit_ratio",
       cand_checks ? static_cast<double>(hits) / cand_checks : 0.0, "ratio"},
      {"merge.ms", merge_ms, "ms"},
      {"merge.bytes",
       static_cast<double>(counter_value(CounterId::kArrayReduceBytes)),
       "bytes"},
      {"merge.cells",
       static_cast<double>(counter_value(CounterId::kArrayReduceCells)),
       "count"},
      {"broadcast.bytes",
       static_cast<double>(counter_value(CounterId::kBroadcastBytes)),
       "bytes"},
      {"pool.tasks", static_cast<double>(counter_value(CounterId::kPoolTasks)),
       "count"},
      {"pool.task_run_ms",
       static_cast<double>(counter_value(CounterId::kPoolTaskRunUs)) / 1e3,
       "ms"},
      {"pool.queue_wait_ms",
       static_cast<double>(counter_value(CounterId::kPoolQueueWaitUs)) / 1e3,
       "ms"},
      {"memory.fallbacks", static_cast<double>(fallbacks), "count"},
      {"spill.blocks", static_cast<double>(spill_blocks), "count"},
      {"spill.bytes_raw", static_cast<double>(spill_raw), "bytes"},
      {"spill.bytes_stored", static_cast<double>(spill_stored), "bytes"},
      {"route.shuffle_bytes", static_cast<double>(route_shuffle), "bytes"},
      {"cache.hits", static_cast<double>(counter_value(CounterId::kCacheHits)),
       "count"},
      {"cache.misses",
       static_cast<double>(counter_value(CounterId::kCacheMisses)), "count"},
      {"output.ms", ms_of("output"), "ms"},
      {"unattributed.ms", r.unattributed_ms, "ms"},
  };
  return r;
}

/// Why this binary must not produce numbers, or "" when it may.
std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are on (a Debug build); configure RelWithDebInfo";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  return "";
}

/// `src` with the support of its first itemset raised by one.
yf::FrequentItemsets altered(const yf::FrequentItemsets& src) {
  yf::FrequentItemsets out(src.min_support_count(), src.num_transactions());
  bool first = true;
  for (const auto& [itemset, support] : src.sorted()) {
    out.add(itemset, first ? support + 1 : support);
    first = false;
  }
  return out;
}

// Set-up repeats until it has run kMinSetups times and for kSetupBudgetS
// seconds (at most kMaxSetups times); setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 100;
constexpr double kSetupBudgetS = 2.0;
// Named layer spans must cover at least this share of the replay.
constexpr double kMinSpanCoverage = 0.95;

void note_stats(std::FILE* out, const char* name,
                const std::vector<double>& v) {
  std::fprintf(out, "# %s: median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g n=%zu\n",
               name, median(v), quantile(v, 0.25), quantile(v, 0.75),
               *std::min_element(v.begin(), v.end()),
               *std::max_element(v.begin(), v.end()), v.size());
}

}  // namespace

int run(const RunOptions& opt, std::FILE* out) {
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (const std::string why = build_refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }
  if (!(opt.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  const std::vector<std::string> scrubbed = scrub_yafim_env();
  yafim::set_log_level(yafim::LogLevel::kWarn);

  // ---- set-up: datagen + serialize + stage on SimFS, repeated.
  std::vector<double> setup_s;
  Staged staged;
  const double setup_start = now_s();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          now_s() - setup_start < kSetupBudgetS)) {
    staged = Staged{};  // release the previous copy before the next one
    const double t0 = now_s();
    staged = stage(*w, opt.seed);
    setup_s.push_back(now_s() - t0);
  }

  // ---- oracle, outside set-up and before any timed mine.
  yf::FrequentItemsets oracle =
      yf::fp_growth_mine(staged.db, w->min_support).itemsets;
  if (opt.alter_oracle) oracle = altered(oracle);

  PeakRss rss;
  const ye::ContextOptions ctx_opt = context_options(*w);
  const u32 default_partitions = ye::Context(ctx_opt).default_partitions();
  std::string scrubbed_list;
  for (const std::string& name : scrubbed) {
    scrubbed_list += (scrubbed_list.empty() ? "" : ",") + name;
  }
  std::fprintf(out, "# perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
               w->name, static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0);
  std::fprintf(out,
               "# env: host_threads=%u default_partitions=%u build=%s "
               "compiler=\"%s\" peak_rss=%s scrubbed_env=%s\n",
               ctx_opt.host_threads, default_partitions, PERFBENCH_BUILD_TYPE,
               PERFBENCH_COMPILER,
               rss.per_interval() ? "per-mine" : "process-wide",
               scrubbed_list.empty() ? "none" : scrubbed_list.c_str());
  std::fprintf(out,
               "# data: transactions=%llu staged_bytes=%llu minsup=%g "
               "oracle_itemsets=%llu%s\n",
               static_cast<unsigned long long>(staged.db.size()),
               static_cast<unsigned long long>(staged.staged_bytes),
               w->min_support,
               static_cast<unsigned long long>(oracle.total()),
               opt.alter_oracle ? " (altered)" : "");

  std::string text;
  Tally tally;
  auto checked_mine = [&](ys::SimReport* report) -> std::optional<Mine> {
    try {
      return mine_once(*w, staged, rss, text, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: mine threw: %s\n", e.what());
      return std::nullopt;
    }
  };

  // ---- warm-up: checked, not timed.
  bool correct = true;
  const std::optional<Mine> warm = checked_mine(nullptr);
  if (!warm || !warm->run.itemsets.same_itemsets(oracle)) {
    std::fprintf(stderr, "perfbench: warm-up mine did not match the oracle\n");
    correct = false;
  }
  const double ref_sim_s = warm ? warm->run.total_seconds() : 0.0;

  // ---- timed mines, closed loop, one client.
  std::vector<double> walls, cpus;
  double peak_mib = 0.0;
  u64 sim_mismatches = 0;
  ys::SimReport report;
  const double start = now_s();
  do {
    const std::optional<Mine> m = checked_mine(&report);
    tally.record(m ? &m->run.itemsets : nullptr, oracle);
    if (!m) continue;
    walls.push_back(m->wall_s);
    cpus.push_back(m->cpu_s);
    peak_mib = std::max(peak_mib, m->peak_rss_mib);
    if (m->run.total_seconds() != ref_sim_s) ++sim_mismatches;
  } while (now_s() - start < opt.seconds);
  if (sim_mismatches) {
    std::fprintf(stderr, "perfbench: sim_s differed between mines (%llu)\n",
                 static_cast<unsigned long long>(sim_mismatches));
    correct = false;
  }
  if (walls.empty()) {
    std::fprintf(stderr, "perfbench: no mine completed\n");
    return 1;
  }
  std::fprintf(out, "# mine_s samples:");
  for (const double v : walls) std::fprintf(out, " %.4f", v);
  std::fprintf(out, "\n");
  note_stats(out, "mine_s", walls);
  note_stats(out, "cpu_s", cpus);
  note_stats(out, "setup_s", setup_s);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"mine_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"peak_rss_mb", peak_mib, "MiB"},
        {"sim_s", ref_sim_s, "sim-s"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    // ---- traced replay of one mine, then its checks.
    std::optional<Replay> rep;
    try {
      rep.emplace(replay(*w, staged, text));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: replay threw: %s\n", e.what());
    }
    if (!tally.record(rep ? &rep->itemsets : nullptr, oracle)) {
      std::fprintf(stderr, "perfbench: replay itemsets differ from the oracle\n");
    }
    if (!rep) return 1;
    if (warm && !rep->itemsets.same_itemsets(warm->run.itemsets)) {
      std::fprintf(stderr, "perfbench: replay itemsets differ from the mine's\n");
      correct = false;
    }
    if (std::abs(rep->sim_total_s - ref_sim_s) > 1e-9 * ref_sim_s) {
      std::fprintf(stderr,
                   "perfbench: replay priced %.9g sim-s, the mine %.9g: the "
                   "replay no longer follows yafim_mine\n",
                   rep->sim_total_s, ref_sim_s);
      correct = false;
    }
    const double coverage = 1.0 - rep->unattributed_ms / rep->replay_ms;
    std::fprintf(out, "# replay: wall_ms=%.3f span_coverage=%.4f\n",
                 rep->replay_ms, coverage);
    if (coverage < kMinSpanCoverage) {
      std::fprintf(stderr, "perfbench: layer spans cover %.1f%% of the "
                   "replay, below %.0f%%\n",
                   coverage * 100.0, kMinSpanCoverage * 100.0);
      correct = false;
    }
    if (!opt.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(opt.out_dir, ec);
      const std::string path = opt.out_dir + "/spans-" + w->name + "-seed" +
                               std::to_string(opt.seed) + ".json";
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << rep->spans.chrome_json();
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      } else {
        std::fprintf(out, "# spans written to %s\n", path.c_str());
      }
    }
    const ys::CostModel model(ctx_opt.cluster);
    const SimLayers sim = sim_layers(report, model);
    metrics = std::move(rep->metrics);
    metrics.push_back({"trace_overhead", rep->replay_ms / (median(walls) * 1e3),
                       "ratio"});
    metrics.push_back({"sim.load_s", sim.load_s, "sim-s"});
    metrics.push_back({"sim.phase1_s", sim.phase1_s, "sim-s"});
    metrics.push_back({"sim.driver_s", sim.driver_s, "sim-s"});
    metrics.push_back({"sim.count_s", sim.count_s, "sim-s"});
    metrics.push_back({"sim.materialize_s", sim.materialize_s, "sim-s"});
  }

  correct = correct && tally.failed == 0;
  std::fprintf(out, "# failed_frac=%.6g (%llu of %llu mines)\n",
               tally.failed_frac(),
               static_cast<unsigned long long>(tally.failed),
               static_cast<unsigned long long>(tally.attempted));
  std::fprintf(out, "%s\n",
               result_json(correct, tally.attempted, tally.failed, metrics)
                   .c_str());
  std::fflush(out);
  return correct ? 0 : 1;
}

}  // namespace perfbench
