// RDD<T>: a typed, lazy, partitioned, immutable dataset -- the minispark
// analogue of Spark's resilient distributed dataset.
//
// * Narrow transformations build lineage nodes that run in one task per
//   partition: the task computes the whole operator chain, as a Spark stage
//   does. They are not fused: each node builds its whole output partition
//   before the next node reads it, where Spark streams elements through the
//   chain. Each is element-wise (map/flat_map/filter) or per-partition
//   (map_partitions, the seeded samples, zip_with_index).
// * Wide operations (reduce_by_key, group_by_key, sum_arrays) are stage
//   boundaries: they execute a map stage, then merge its output. The keyed
//   ones always partition it (accounting shuffle bytes) and run a reduce
//   stage. sum_arrays ships each map task's partial whole or as its
//   nonzero cells, whichever is smaller, and prices both sides on what
//   ships; a merge narrow enough that no reduce stage could launch for
//   less ends on the driver instead, with no shuffle and no reduce stage.
//   group_by_key and a shuffling sum_arrays spill their map output under
//   memory pressure; reduce_by_key does not.
// * persist() caches computed partitions in (simulated) executor memory;
//   a partition lost to fault injection -- or LRU-evicted under a finite
//   executor memory budget -- is transparently recomputed from lineage
//   (engine/fault.h).
// * Actions (collect/count/reduce/collect_as_map) run every partition
//   through Context::run_stage, which records one StageRecord per stage
//   with deterministic per-task work counters.
//
// The operator set is what the miners, examples and benches call: the
// paper's textFile/flatMap/map/reduceByKey/filter/collect/broadcast/cache
// (textFile is each miner's own DFS load stage) plus the shuffles and
// samplers the related-work miners need.
#pragma once

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/broadcast.h"
#include "engine/bytes_of.h"
#include "engine/context.h"
#include "engine/detsan.h"
#include "engine/error.h"
#include "engine/lint.h"
#include "engine/work.h"
#include "obs/metrics.h"
#include "simfs/simfs.h"
#include "util/bytes.h"
#include "util/canon_hash.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace yafim::engine {

namespace detail {

template <typename P>
struct PairTraits {
  static constexpr bool is_pair = false;
  // Placeholders so default template arguments that name these typedefs are
  // well-formed for non-pair T; the requires-clauses keep them unused.
  using key_type = void;
  using mapped_type = void;
};

template <typename K, typename V>
struct PairTraits<std::pair<K, V>> {
  static constexpr bool is_pair = true;
  using key_type = K;
  using mapped_type = V;
};

template <typename T>
struct ArrayTraits {
  static constexpr bool is_array = false;
  using elem_type = void;
};

template <typename E>
struct ArrayTraits<std::vector<E>> {
  static constexpr bool is_array = true;
  using elem_type = E;
};

// --- DetSan replay support (engine/detsan.h) ----------------------------
//
// Operators re-execute sampled tasks with a permuted input order and
// compare canonical hashes of the two outputs; these helpers hold the
// compare-and-report plumbing so each operator's hook stays a few lines.
// Replays run inside the task's work::Scope and call work::add like the
// primary pass, so their cost is priced into the sim automatically.

/// util::canon_hash_value(v), also for a type whose overload lives in its
/// own namespace and is declared after this header (fim::Singleton): a
/// qualified call would bind only the overloads declared before it, while
/// this one adds those ADL finds where the template is instantiated.
template <typename U>
u64 canon_hash(const U& v) {
  using util::canon_hash_value;
  return canon_hash_value(v);
}

/// Index of the first element of `primary` that `replay` cannot account
/// for under multiset equality (primary.size() when replay only has
/// extras). Called on the divergence path only.
template <typename U>
size_t detsan_first_unmatched(const std::vector<U>& primary,
                              const std::vector<U>& replay) {
  std::unordered_map<u64, i64> counts;
  counts.reserve(replay.size());
  for (const U& e : replay) ++counts[canon_hash(e)];
  for (size_t i = 0; i < primary.size(); ++i) {
    if (--counts[canon_hash(primary[i])] < 0) return i;
  }
  return primary.size();
}

/// Element-wise operators (map/flat_map/filter): a pure closure over a
/// permuted input must produce the permuted -- i.e. multiset-equal --
/// output.
template <typename U>
void detsan_check_multiset(DetSan& ds, u32 node_id, const char* op,
                           const std::vector<U>& primary,
                           const std::vector<U>& replay) {
  ds.note_replayed();
  if (util::canon_hash_unordered(primary) ==
      util::canon_hash_unordered(replay)) {
    return;
  }
  const size_t at = detsan_first_unmatched(primary, replay);
  ds.report_divergence(node_id, op,
                       "element index " + std::to_string(at) + " of " +
                           std::to_string(primary.size()) +
                           " (replay produced " +
                           std::to_string(replay.size()) + " element(s))");
}

/// Order-contractual operators (map_partitions, sum_arrays accumulators):
/// replaying with the identical input must reproduce the identical output,
/// element for element.
template <typename U>
void detsan_check_ordered(DetSan& ds, u32 node_id, const char* op,
                          const std::vector<U>& primary,
                          const std::vector<U>& replay) {
  ds.note_replayed();
  if (util::canon_hash_ordered(primary) == util::canon_hash_ordered(replay)) {
    return;
  }
  const size_t common = std::min(primary.size(), replay.size());
  size_t at = common;  // only the lengths differ
  for (size_t i = 0; i < common; ++i) {
    if (canon_hash(primary[i]) != canon_hash(replay[i])) {
      at = i;
      break;
    }
  }
  ds.report_divergence(node_id, op,
                       "element index " + std::to_string(at) + " of " +
                           std::to_string(primary.size()));
}

/// Map-side combine accumulators (reduce_by_key and the MapReduce
/// combiner): the key -> accumulated-value maps of the primary and the
/// permuted-order replay must agree as multisets of (key, value) pairs --
/// this is exactly the engine's commutativity contract for the combine fn,
/// and it also catches hash-map iteration order leaking *into* the values. `who` is an rdd id, or names a task outside the plan.
template <typename Who, typename K, typename V, typename Hash>
void detsan_check_kv(DetSan& ds, const Who& who, const char* op,
                     const std::unordered_map<K, V, Hash>& primary,
                     const std::unordered_map<K, V, Hash>& replay) {
  ds.note_replayed();
  if (util::canon_hash_unordered(primary) ==
      util::canon_hash_unordered(replay)) {
    return;
  }
  for (const auto& [k, v] : primary) {
    const auto it = replay.find(k);
    if (it != replay.end() && canon_hash(it->second) == canon_hash(v)) {
      continue;
    }
    ds.report_divergence(
        who, op,
        std::string(it == replay.end() ? "key missing from replay"
                                       : "combined value for key") +
            " (key hash " + std::to_string(canon_hash(k)) + ", " +
            std::to_string(primary.size()) + " vs " +
            std::to_string(replay.size()) + " key(s))");
    return;
  }
  ds.report_divergence(who, op,
                       "replay-only key(s): " + std::to_string(replay.size()) +
                           " vs " + std::to_string(primary.size()));
}

/// Partition fold (RDD::reduce): an associative + commutative f reaches
/// the same accumulator from any fold order.
template <typename T, typename F>
void detsan_replay_fold(DetSan& ds, u32 node_id, u32 pid,
                        const std::vector<T>& in, const T& acc, F& f) {
  if (in.size() < 2 || !ds.should_replay(node_id, pid)) return;
  const std::vector<u32> order =
      DetSan::permutation(in.size(), ds.replay_seed(node_id, pid));
  T racc = in[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    work::add(1);
    racc = f(racc, in[order[i]]);
  }
  ds.note_replayed();
  if (canon_hash(acc) == canon_hash(racc)) return;
  ds.report_divergence(node_id, "reduce",
                       "partition fold over " + std::to_string(in.size()) +
                           " element(s): permuted fold order disagrees");
}

/// Visit `in` in place, or in `order` (a DetSan replay permutation; empty
/// exactly when `in` is).
template <typename Vec, typename F>
void for_each_in(Vec& in, std::span<const u32> order, F&& f) {
  if (order.empty()) {
    for (auto& x : in) f(x);
  } else {
    for (u32 i : order) f(in[i]);
  }
}

/// Map-side combine, the map half of Spark's combineByKey: fold the (k, v)
/// pairs of `in` into one value per key -- a key's first value, then
/// merge(acc, v) for each later one -- visiting them as for_each_in does. One
/// work unit per pair. An rvalue `in` gives up its keys to the map instead
/// of copying them. Serves reduce_by_key and the MapReduce combiner, and
/// their DetSan replays.
template <typename Hash, typename Pairs, typename Merge>
auto combine_pairs(Pairs&& in, std::span<const u32> order, Merge& merge) {
  using P = typename std::remove_cvref_t<Pairs>::value_type;
  using K = typename P::first_type;
  using V = typename P::second_type;
  using Key = std::conditional_t<std::is_lvalue_reference_v<Pairs>, const K&,
                                 K&&>;
  std::unordered_map<K, V, Hash> acc;
  acc.reserve(std::min(in.size(), kCombineReserveCap));
  for_each_in(in, order, [&](auto& kv) {
    work::add(1);
    // Copies the value only when the key is new: one lookup per pair.
    auto [it, inserted] =
        acc.try_emplace(static_cast<Key>(kv.first), kv.second);
    if (!inserted) it->second = merge(std::move(it->second), kv.second);
  });
  return acc;
}

/// DetSan replay of a map-side combine: rebuild the combiners with `in`
/// visited in a permuted order and compare the key -> value maps. The
/// caller decides whether the task is sampled.
template <typename Who, typename P, typename Map, typename Merge>
void detsan_replay_combine(DetSan& ds, const Who& who, u64 seed,
                           const char* op, const std::vector<P>& in,
                           const Map& primary, Merge& merge) {
  const std::vector<u32> order = DetSan::permutation(in.size(), seed);
  detsan_check_kv(ds, who, op, primary,
                  combine_pairs<typename Map::hasher>(in, order, merge));
}

/// Move every (k, v) of `pairs` into bucket hash(k) % buckets.size() and
/// return the shuffle bytes: byte_size(k) + byte_size(v) per pair.
template <typename Pairs, typename K, typename V, typename Hash>
u64 hash_partition(Pairs& pairs,
                   std::vector<std::vector<std::pair<K, V>>>& buckets,
                   const Hash& hash) {
  u64 bytes = 0;
  for (auto& [k, v] : pairs) {
    bytes += byte_size(k) + byte_size(v);
    buckets[hash(k) % buckets.size()].emplace_back(
        std::move(const_cast<K&>(k)), std::move(v));
  }
  return bytes;
}

/// Base lineage node: owns the partition cache and fault-recovery logic.
template <typename T>
class Node : public CacheHolder {
 public:
  using Part = std::shared_ptr<const std::vector<T>>;

  Node(Context& ctx, u32 nparts)
      : CacheHolder(ctx.next_rdd_id(), nparts, &Node::drop_thunk),
        ctx_(ctx),
        nparts_(nparts) {
    YAFIM_CHECK(nparts_ > 0, "an RDD needs at least one partition");
  }

  virtual ~Node() {
    if (persisted_) ctx_.fault_injector().unregister_holder(this);
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Recompute partition `pid` from lineage (never consults the cache).
  virtual std::vector<T> compute(u32 pid) = 0;

  Context& ctx() const { return ctx_; }
  u32 id() const { return holder_id(); }
  u32 num_partitions() const { return nparts_; }

  void persist() {
    {
      util::MutexLock lock(mutex_);
      if (persisted_) return;
      persisted_ = true;
      cache_.resize(nparts_);
      ever_cached_.assign(nparts_, false);
      hit_seq_.assign(nparts_, 0);
    }
    // Outside our (leaf) lock: the injector takes its own lock and may call
    // back into drop_cached (see the locking protocol in engine/fault.h).
    ctx_.fault_injector().register_holder(this);
    if (ctx_.linter().enabled()) ctx_.linter().note_persist(id());
  }

  bool persisted() const {
    util::MutexLock lock(mutex_);
    return persisted_;
  }

  /// Cache-aware partition access.
  virtual Part get(u32 pid) {
    YAFIM_DCHECK(pid < nparts_, "partition out of range");
    FaultInjector& injector = ctx_.fault_injector();
    Part hit;
    bool corrupt = false;
    {
      util::MutexLock lock(mutex_);
      if (persisted_ && cache_[pid]) {
        // Deterministic corruption draw per (rdd, partition, hit#): corrupt
        // backing bytes are discarded here and the fall-through recompute
        // below is the lineage repair (ever_cached_ stays true, so it is
        // counted as a recovery recomputation).
        if (injector.draw_cached_corruption(id(), pid, hit_seq_[pid]++)) {
          cache_[pid].reset();
          corrupt = true;
        } else {
          obs::count(obs::CounterId::kCacheHits);
          hit = cache_[pid];
        }
      }
    }
    // Outside our (leaf) lock: the injector takes its own mutex to forget
    // the stale LRU entry.
    if (corrupt) injector.note_cache_corruption(id(), pid);
    if (hit) {
      // Outside our (leaf) lock: the LRU refresh may race with an eviction
      // of this very partition, but `hit` keeps the data alive either way.
      if (injector.cache_budget_enabled()) injector.note_cache_hit(id(), pid);
      if (ctx_.linter().enabled()) ctx_.linter().note_cache_read(id());
      return hit;
    }
    auto data = std::make_shared<const std::vector<T>>(compute(pid));
    // Priced only under a finite budget; byte_size walks the partition.
    const u64 bytes =
        injector.cache_budget_enabled() ? byte_size(*data) : 0;
    bool inserted = false;
    Part out;
    {
      util::MutexLock lock(mutex_);
      if (!persisted_) return data;
      if (!cache_[pid]) {
        obs::count(obs::CounterId::kCacheMisses);
        // A re-fill after a drop is a lineage recomputation (fault
        // recovery / cache-pressure degradation).
        if (ever_cached_[pid]) injector.note_recomputation();
        cache_[pid] = std::move(data);
        ever_cached_[pid] = true;
        inserted = true;
      }
      out = cache_[pid];
    }
    if (inserted && injector.cache_budget_enabled()) {
      // Outside our lock: admission may LRU-evict (possibly from this very
      // node, taking our lock again from under the injector's).
      injector.note_cache_insert(id(), pid, bytes);
    }
    return out;
  }

 protected:
  /// Lineage-shadow registration for the plan linter (engine/lint.h);
  /// called from derived constructors, which know the operator kind and
  /// parent ids the base cannot.
  void lint_register(PlanOp op, std::initializer_list<u32> parents) {
    if (ctx_.linter().enabled()) {
      ctx_.linter().register_node(id(), op, parents);
    }
  }

 private:
  // CacheHolder drop thunk. Runs with the injector lock held, possibly
  // concurrently with a derived destructor; it must only touch Node<T>
  // members, which are destroyed after ~Node's body has unregistered us.
  static bool drop_thunk(CacheHolder* holder, u32 pid) {
    auto* self = static_cast<Node*>(holder);
    util::MutexLock lock(self->mutex_);
    if (!self->persisted_ || pid >= self->nparts_ || !self->cache_[pid]) {
      return false;
    }
    self->cache_[pid].reset();
    return true;
  }

  Context& ctx_;
  u32 nparts_;

  // Leaf lock in the engine's lock order: nothing is called with mutex_
  // held (injector callbacks happen outside it; see engine/fault.h).
  mutable util::Mutex mutex_;
  bool persisted_ YAFIM_GUARDED_BY(mutex_) = false;
  std::vector<Part> cache_ YAFIM_GUARDED_BY(mutex_);
  std::vector<bool> ever_cached_ YAFIM_GUARDED_BY(mutex_);
  /// Cache hits served per partition; salts the corruption draw so repeat
  /// accesses get independent (but replay-stable) draws.
  std::vector<u64> hit_seq_ YAFIM_GUARDED_BY(mutex_);
};

/// Data already resident per partition (parallelize(), shuffle outputs).
/// Held by the driver, so it is never "lost" and needs no cache.
template <typename T>
class MaterializedNode final : public Node<T> {
 public:
  MaterializedNode(Context& ctx, std::vector<std::vector<T>> parts)
      : Node<T>(ctx, static_cast<u32>(std::max<size_t>(1, parts.size()))) {
    this->lint_register(PlanOp::kSource, {});
    if (parts.empty()) parts.emplace_back();
    data_.reserve(parts.size());
    for (auto& p : parts) {
      data_.push_back(std::make_shared<const std::vector<T>>(std::move(p)));
    }
  }

  std::vector<T> compute(u32 pid) override { return *data_[pid]; }

  typename Node<T>::Part get(u32 pid) override { return data_[pid]; }

 private:
  std::vector<typename Node<T>::Part> data_;
};

/// Element-wise narrow node (map / flat_map / filter): `step(x, out)`
/// appends x's outputs to `out` and charges its own work. DetSan replays
/// the same step over a permuted input: a pure step yields the same
/// multiset.
template <typename T, typename U, typename Step>
class ElementwiseNode final : public Node<U> {
 public:
  ElementwiseNode(std::shared_ptr<Node<T>> parent, PlanOp op, Step step)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        op_(op),
        step_(std::move(step)) {
    this->lint_register(op_, {parent_->id()});
  }

  std::vector<U> compute(u32 pid) override {
    auto in = parent_->get(pid);
    std::vector<U> out = run(*in, {});
    if constexpr (util::is_canon_hashable_v<U>) {
      DetSan& ds = this->ctx().detsan();
      if (ds.should_replay(this->id(), pid)) {
        const std::vector<u32> order =
            DetSan::permutation(in->size(), ds.replay_seed(this->id(), pid));
        detsan_check_multiset(ds, this->id(), plan_op_name(op_), out,
                              run(*in, order));
      }
    }
    return out;
  }

 private:
  std::vector<U> run(const std::vector<T>& in, std::span<const u32> order) {
    std::vector<U> out;
    out.reserve(in.size());
    for_each_in(in, order, [&](const T& x) { step_(x, out); });
    return out;
  }

  std::shared_ptr<Node<T>> parent_;
  PlanOp op_;
  Step step_;
};

/// Narrow node computing a whole partition at once: `fn(pid, partition)`
/// returns the output partition and charges its own work. With a DetSan
/// op name (map_partitions) the replay re-runs fn on the *same* input and
/// must reproduce the output element for element: partition functions may
/// legitimately depend on element order (tid assignment, zips), so only
/// their determinism is checked. Without one (the seeded samples,
/// zip_with_index) the node is unhooked: its output is a function of
/// position by design.
template <typename T, typename U, typename Fn>
class PartitionNode final : public Node<U> {
 public:
  PartitionNode(std::shared_ptr<Node<T>> parent, PlanOp op,
                const char* detsan_op, Fn fn)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        detsan_op_(detsan_op),
        fn_(std::move(fn)) {
    this->lint_register(op, {parent_->id()});
  }

  std::vector<U> compute(u32 pid) override {
    auto in = parent_->get(pid);
    std::vector<U> out = fn_(pid, *in);
    if constexpr (util::is_canon_hashable_v<U>) {
      DetSan& ds = this->ctx().detsan();
      if (detsan_op_ != nullptr && ds.should_replay(this->id(), pid)) {
        detsan_check_ordered(ds, this->id(), detsan_op_, out, fn_(pid, *in));
      }
    }
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  const char* detsan_op_;
  Fn fn_;
};

// --- shuffle spill (memory-pressure degradation) -----------------------
//
// group_by_key and a sum_arrays that shuffles (and the MapReduce map
// output, through mapreduce/job.h) spill; reduce_by_key keeps its combined
// pairs in memory at any buffer size. When such a shuffle's map-side
// buffers exceed the per-node budget (ClusterConfig::shuffle_buffer_bytes,
// via Context::should_spill), the stage spills its blocks to the context's
// spill filesystem: each map task's output is genuinely serialized,
// optionally compressed with the util/bytes yz codec, written to
// checksummed simfs (so corruption injection covers spilled data like any
// other block), and read back before the reduce stage. The spill and read-back are priced as DFS I/O
// plus codec CPU through the cost model.
//
// The blocks' wire format (spill_put/spill_get, is_spillable_v) lives in
// engine/bytes_of.h next to byte_size(), which prices the same bytes.

/// One spill block as encoded on a pool thread: the bytes to store
/// (yz-compressed when the context compresses spills), their serialized
/// size before compression, and DetSan's serialize-twice finding for the
/// block (empty when the block was clean or not sampled).
struct EncodedBlock {
  std::vector<u8> stored;
  u64 raw = 0;
  std::string unstable_at;
};

/// Per-shuffle spill controller. `Block` is one map task's buffered output
/// (a partial in the form it ships for sum_arrays, the per-reduce bucket
/// vector for keyed shuffles). The codec runs on the pool; simfs writes,
/// pricing and DetSan reports stay on the driver, in block-index order.
/// Lifecycle:
///   admit(bytes)      -- driver: admit the stage's buffers into the ledger
///                        and decide, once, whether the stage spills
///   encode(i, block)  -- any thread: serialize, DetSan check, compress
///   write(blocks)     -- driver: write to simfs, free the ledger bytes
///   restore(sink)     -- driver: read back and decode on the pool, handing
///                        block i to sink(i, block) on a pool thread
/// round_trip(blocks) chains encode/write/restore for shuffles whose map
/// stage buffered every block before the spill decision. The destructor
/// releases the ledger bytes and removes the spill files.
template <typename Block>
class ShuffleSpill {
 public:
  ShuffleSpill(Context& ctx, std::string label)
      : ctx_(ctx),
        label_(std::move(label)),
        detsan_id_(static_cast<u32>(
            mix64(xxh64(label_.data(), label_.size(), 0)))) {}

  ShuffleSpill(const ShuffleSpill&) = delete;
  ShuffleSpill& operator=(const ShuffleSpill&) = delete;

  ~ShuffleSpill() {
    if (buffered_ && !spilled_) {
      ctx_.memory_budget().release_shuffle_buffered(buffered_);
    }
    for (const std::string& path : paths_) ctx_.spill_fs()->remove(path);
  }

  /// Returns whether the stage's `bytes` of buffers spill.
  bool admit(u64 bytes) {
    buffered_ = bytes;
    if (bytes) ctx_.memory_budget().note_shuffle_buffered(bytes);
    compress_ = ctx_.spill_compress();
    return ctx_.should_spill(bytes);
  }

  EncodedBlock encode(u32 index, const Block& block) const {
    EncodedBlock out;
    spill_put(out.stored, block);
    out.raw = out.stored.size();
    // Serialize-twice check: a block whose wire bytes differ across two
    // serializations of the same data carries uninitialized or
    // address-dependent bytes. Host-only (no work::add): the sim prices
    // the spill itself via record_io, not the encoder's determinism.
    DetSan& ds = ctx_.detsan();
    if (ds.enabled() && ds.should_replay(detsan_id_, index)) {
      std::vector<u8> again;
      spill_put(again, block);
      ds.note_replayed();
      if (again != out.stored) {
        const auto diff = std::mismatch(out.stored.begin(), out.stored.end(),
                                        again.begin(), again.end());
        out.unstable_at =
            "byte offset " +
            std::to_string(diff.first - out.stored.begin()) + " of " +
            std::to_string(out.raw);
      }
    }
    if (compress_) out.stored = yz_compress(out.stored);
    return out;
  }

  void write(std::vector<EncodedBlock> blocks) {
    const std::string prefix =
        "spill/" + label_ + "-" + std::to_string(ctx_.next_spill_id()) + "/";
    // Lowest block first, before anything reaches simfs: with fail_fast
    // the first report throws.
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (blocks[i].unstable_at.empty()) continue;
      ctx_.detsan().report_divergence_raw(
          "spill block '" + label_ + "' #" + std::to_string(i),
          "spill-serialize", blocks[i].unstable_at);
    }
    simfs::SimFS& fs = *ctx_.spill_fs();
    paths_.reserve(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      const u64 raw = blocks[i].raw;
      const u64 stored = blocks[i].stored.size();
      paths_.push_back(prefix + "block-" + std::to_string(i));
      fs.write(paths_.back(), std::move(blocks[i].stored));
      ctx_.memory_budget().note_spill_write(raw, stored);
      raw_total_ += raw;
      stored_total_ += stored;
    }
    record_io(label_ + ":spill", /*write=*/true, raw_total_, stored_total_);
    ctx_.memory_budget().release_shuffle_buffered(buffered_);
    spilled_ = true;
  }

  template <typename Sink>
  void restore(Sink&& sink) {
    YAFIM_CHECK(spilled_, "spill: restore before write");
    simfs::SimFS& fs = *ctx_.spill_fs();
    ctx_.pool().parallel_for(static_cast<u32>(paths_.size()), [&](u32 i) {
      std::vector<u8> bytes = fs.read(paths_[i]);
      if (compress_) bytes = yz_decompress(bytes);
      Block block;
      size_t pos = 0;
      spill_get(std::span<const u8>(bytes), pos, block);
      YAFIM_CHECK(pos == bytes.size(), "spill: trailing bytes in block");
      ctx_.memory_budget().note_spill_read(bytes.size());
      sink(i, std::move(block));
    });
    record_io(label_ + ":spill-read", /*write=*/false, raw_total_,
              stored_total_);
  }

  void round_trip(std::vector<Block>& blocks) {
    std::vector<EncodedBlock> encoded(blocks.size());
    ctx_.pool().parallel_for(static_cast<u32>(blocks.size()), [&](u32 i) {
      encoded[i] = encode(i, blocks[i]);
      Block().swap(blocks[i]);  // the encoded copy replaces the buffer
    });
    write(std::move(encoded));
    restore([&blocks](u32 i, Block&& block) { blocks[i] = std::move(block); });
  }

 private:
  /// Price one side of the spill round trip: DFS I/O of the stored bytes
  /// plus the codec CPU over the raw bytes (cluster spill_*_work_per_kb).
  void record_io(const std::string& stage_label, bool write, u64 raw_bytes,
                 u64 stored_bytes) {
    const sim::ClusterConfig& cluster = ctx_.cluster();
    sim::StageRecord rec;
    rec.label = stage_label;
    rec.kind = sim::StageKind::kSparkStage;
    rec.pass = ctx_.pass();
    if (write) {
      rec.dfs_write_bytes = stored_bytes;
    } else {
      rec.dfs_read_bytes = stored_bytes;
    }
    const u64 work_per_kb = compress_ ? (write ? cluster.spill_compress_work_per_kb
                                               : cluster.spill_decompress_work_per_kb)
                                      : 0;
    const u32 tasks = static_cast<u32>(std::max<size_t>(
        1, std::min<size_t>(paths_.size(), ctx_.default_partitions())));
    rec.tasks = sim::split_work((raw_bytes / 1024) * work_per_kb, tasks);
    ctx_.record(std::move(rec));
  }

  Context& ctx_;
  std::string label_;
  /// Names this shuffle in DetSan's sampling draw (blocks have no rdd id).
  u32 detsan_id_;
  u64 buffered_ = 0;
  bool spilled_ = false;
  bool compress_ = false;
  u64 raw_total_ = 0;
  u64 stored_total_ = 0;
  std::vector<std::string> paths_;
};

template <typename E>
void add_cells(std::vector<E>& acc, const std::vector<E>& part) {
  for (size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
}

/// Count `part`'s nonzero cells in each slice [bounds[r], bounds[r + 1])
/// into nonzero[r]; with `acc`, add `part` into it in the same pass. The
/// fused pass reads four cells per step into four running counts, which
/// keeps it as fast as the add alone (one count cost ~12% more).
template <typename E>
void count_nonzero(const E* part, std::span<const size_t> bounds,
                   u64* nonzero, E* acc = nullptr) {
  for (size_t r = 0; r + 1 < bounds.size(); ++r) {
    size_t i = bounds[r];
    const size_t end = bounds[r + 1];
    u64 n0 = 0, n1 = 0, n2 = 0, n3 = 0;
    for (; acc && i + 4 <= end; i += 4) {
      const E p0 = part[i], p1 = part[i + 1], p2 = part[i + 2],
              p3 = part[i + 3];
      acc[i] += p0;
      acc[i + 1] += p1;
      acc[i + 2] += p2;
      acc[i + 3] += p3;
      n0 += p0 != E{};
      n1 += p1 != E{};
      n2 += p2 != E{};
      n3 += p3 != E{};
    }
    for (; i < end; ++i) {
      if (acc) acc[i] += part[i];
      n0 += part[i] != E{};
    }
    nonzero[r] = n0 + n1 + n2 + n3;
  }
}

/// The sparse form of a partial with `entries` nonzero cells.
template <typename E>
ArrayPartial<E> sparse_partial(const std::vector<E>& cells, u64 entries) {
  ArrayPartial<E> out;
  out.sparse = true;
  out.ids.reserve(entries);
  out.cells.reserve(entries);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i] == E{}) continue;
    out.ids.push_back(static_cast<u32>(i));
    out.cells.push_back(cells[i]);
  }
  return out;
}

/// Width-cell integer accumulators shared by one stage's tasks. A task
/// borrows a free slot for the length of its fold; the pool runs at most
/// one task per worker, so min(pool size, tasks) slots never run dry and
/// the host holds that many arrays however many tasks the stage has.
/// Integer addition is exact in any order, so which task lands in which
/// slot cannot change the sums.
template <typename E>
  requires std::is_integral_v<E>
class FoldSlots {
 public:
  FoldSlots(u32 slots, size_t width) : width_(width), cells_(slots) {
    for (u32 s = slots; s > 0; --s) free_.push_back(s - 1);
  }

  /// Run add(acc) on one borrowed slot's width cells (any thread).
  template <typename Add>
  void fold(Add&& add) {
    u32 slot = 0;
    {
      util::MutexLock lock(mutex_);
      YAFIM_CHECK(!free_.empty(), "fold: more concurrent tasks than slots");
      slot = free_.back();
      free_.pop_back();
    }
    std::vector<E>& acc = cells_[slot];  // ours until pushed back below
    if (acc.empty()) acc.assign(width_, E{});
    add(acc);
    util::MutexLock lock(mutex_);
    free_.push_back(slot);
  }

  /// The slots any fold touched (driver, once the folds are done).
  std::vector<std::vector<E>> take() {
    std::vector<std::vector<E>> out;
    for (std::vector<E>& acc : cells_) {
      if (!acc.empty()) out.push_back(std::move(acc));
    }
    return out;
  }

 private:
  size_t width_;
  std::vector<std::vector<E>> cells_;
  util::Mutex mutex_;
  std::vector<u32> free_ YAFIM_GUARDED_BY(mutex_);
};

/// Arrays of integer cells E, which sum_arrays merges exactly.
template <typename T, typename E>
inline constexpr bool is_count_array_v =
    ArrayTraits<T>::is_array &&
    std::is_same_v<E, typename ArrayTraits<T>::elem_type> &&
    std::is_integral_v<E>;

/// What a sum_arrays merge returns: every cell, or only the (id, sum) of
/// the cells that reach its minimum.
template <typename E>
struct MergedArrays {
  std::vector<E> cells;
  std::vector<std::pair<u32, E>> kept;
};

/// Whether a sum_arrays merge ends on the driver: only when even its
/// ceiling -- every map task's partial dense, merged cell by cell (and the
/// merged cells scanned once, with `scan`), those partials' bytes through
/// the driver's link -- prices no more than the launch floor of the
/// `reduce_tasks` empty tasks a reduce stage would run.
template <typename E>
bool merges_on_driver(const Context& ctx, u32 map_tasks, u32 reduce_tasks,
                      u64 width, bool scan) {
  const sim::CostModel& model = ctx.cost_model();
  sim::StageRecord floor;
  floor.tasks.resize(reduce_tasks);
  const double ceiling =
      model.compute_seconds((u64{map_tasks} + scan) * width) +
      model.driver_link_seconds(u64{map_tasks} *
                                ArrayPartial<E>::dense_bytes(width));
  return ceiling <= sim::stage_seconds(floor, model);
}

}  // namespace detail

/// Value-semantic handle to a lineage node. Cheap to copy.
template <typename T>
class RDD {
 public:
  using value_type = T;

  explicit RDD(std::shared_ptr<detail::Node<T>> node)
      : node_(std::move(node)) {}

  u32 num_partitions() const { return node_->num_partitions(); }
  u32 id() const { return node_->id(); }
  Context& ctx() const { return node_->ctx(); }

  /// Cache computed partitions in executor memory (Spark's MEMORY_ONLY).
  RDD& persist() {
    node_->persist();
    return *this;
  }
  bool persisted() const { return node_->persisted(); }

  /// Attach a human-readable debug name; lint diagnostics reference it
  /// instead of "rdd#<id>", matching the stage labels in traces. Chainable
  /// at the creation site: `ctx.parallelize(db).named("transactions")`.
  RDD& named(const std::string& name) {
    Context& ctx = node_->ctx();
    if (ctx.linter().enabled()) ctx.linter().set_node_name(id(), name);
    return *this;
  }

  // --- narrow transformations (lazy) ---------------------------------

  template <typename F>
  auto map(F f) const {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    return elementwise<U>(
        PlanOp::kMap,
        [f = std::move(f)](const T& x, std::vector<U>& out) mutable {
          work::add(1);
          out.push_back(f(x));
        });
  }

  /// `f` must return an iterable container of the output element type.
  template <typename F>
  auto flat_map(F f) const {
    using C = std::decay_t<std::invoke_result_t<F, const T&>>;
    using U = typename C::value_type;
    return elementwise<U>(
        PlanOp::kFlatMap,
        [f = std::move(f)](const T& x, std::vector<U>& out) mutable {
          auto produced = f(x);
          work::add(1 + produced.size());
          out.insert(out.end(), std::make_move_iterator(produced.begin()),
                     std::make_move_iterator(produced.end()));
        });
  }

  template <typename F>
  RDD<T> filter(F f) const {
    return elementwise<T>(
        PlanOp::kFilter,
        [f = std::move(f)](const T& x, std::vector<T>& out) mutable {
          work::add(1);
          if (f(x)) out.push_back(x);
        });
  }

  /// `f(const std::vector<T>& partition) -> std::vector<U>`.
  template <typename F>
  auto map_partitions(F f) const {
    using C = std::decay_t<std::invoke_result_t<F, const std::vector<T>&>>;
    using U = typename C::value_type;
    return per_partition(
        PlanOp::kMapPartitions, "map_partitions",
        [f = std::move(f)](u32, const std::vector<T>& part) mutable
        -> std::vector<U> {
          work::add(part.size());
          return f(part);
        });
  }

  /// Draw `n` independent Bernoulli(fraction) samples in one pass over the
  /// data: emits (sample_id, element) for every sample that keeps the
  /// element. Each (partition, sample) pair gets its own Rng stream, so
  /// sample s's membership is deterministic in (seed, partition) alone and
  /// independent of how many sibling samples are drawn alongside it.
  RDD<std::pair<u32, T>> sample_each(u32 n, double fraction, u64 seed) const {
    YAFIM_CHECK(n > 0, "multi-sample needs at least one sample");
    return per_partition(
        PlanOp::kSample, nullptr,
        [n, fraction, seed](u32 pid, const std::vector<T>& in) {
          std::vector<Rng> streams;
          streams.reserve(n);
          for (u32 s = 0; s < n; ++s) {
            streams.push_back(Rng(seed).split(pid).split(s));
          }
          std::vector<std::pair<u32, T>> out;
          for (const T& x : in) {
            work::add(1);
            for (u32 s = 0; s < n; ++s) {
              if (streams[s].bernoulli(fraction)) out.emplace_back(s, x);
            }
          }
          return out;
        });
  }

  /// Deterministically scatter elements round-robin into `n` disjoint
  /// splits: emits (split_id, element) with every element in exactly one
  /// split (the SON "mapper split" shape, without a shuffle).
  RDD<std::pair<u32, T>> disjoint_splits(u32 n) const {
    YAFIM_CHECK(n > 0, "multi-sample needs at least one sample");
    return per_partition(
        PlanOp::kSample, nullptr, [n](u32 pid, const std::vector<T>& in) {
          // Offset by pid so split 0 does not collect every partition's
          // first element.
          std::vector<std::pair<u32, T>> out;
          out.reserve(in.size());
          u64 j = 0;
          for (const T& x : in) {
            work::add(1);
            out.emplace_back(static_cast<u32>((pid + j++) % n), x);
          }
          return out;
        });
  }

  /// Pair every element with its global index in partition order (Spark's
  /// zipWithIndex). Runs one counting stage to learn partition offsets.
  auto zip_with_index(const std::string& label = "zipWithIndex") const {
    std::vector<u64> offsets = partition_sizes(label + ":count");
    std::exclusive_scan(offsets.begin(), offsets.end(), offsets.begin(),
                        u64{0});
    return per_partition(
        PlanOp::kZipWithIndex, nullptr,
        [offsets = std::move(offsets)](u32 pid, const std::vector<T>& in) {
          std::vector<std::pair<T, u64>> out;
          out.reserve(in.size());
          u64 index = offsets[pid];
          for (const T& x : in) {
            work::add(1);
            out.emplace_back(x, index++);
          }
          return out;
        });
  }

  // --- pair-RDD operations --------------------------------------------

  /// Shuffle + aggregate values per key, with map-side combining (Spark's
  /// reduceByKey). Only available when T is std::pair<K, V>. `Hash` must
  /// hash K deterministically. Map side: each task folds its pairs into one
  /// value per key, which DetSan replays in a permuted order, then
  /// hash-partitions them. Reduce side: the same fold across map tasks.
  /// One work unit per pair on each side.
  template <typename F,
            typename Hash = std::hash<typename detail::PairTraits<T>::key_type>>
    requires detail::PairTraits<T>::is_pair
  RDD<T> reduce_by_key(F combine, u32 out_partitions = 0, Hash hash = Hash{},
                       const std::string& label = "reduceByKey") const {
    using K = typename detail::PairTraits<T>::key_type;
    using V = typename detail::PairTraits<T>::mapped_type;
    auto merge = [&](V&& a, const V& b) -> V { return combine(a, b); };

    Context& ctx = node_->ctx();
    const u32 map_tasks = node_->num_partitions();
    const u32 reduce_tasks = out_partitions ? out_partitions : map_tasks;

    lint_consume(PlanLinter::Consume::kShuffle, label);
    Buckets map_out(map_tasks);
    StageBytes shipped;
    ctx.run_stage(
        label + ":map-combine", map_tasks,
        [&](u32 pid) {
          auto in = node_->get(pid);
          auto acc = detail::combine_pairs<Hash>(*in, {}, merge);
          // The fn is checked here at the map-combine stage; the reduce
          // side applies the same merge, so a non-commutative one cannot
          // slip through unexercised.
          if constexpr (util::is_canon_hashable_v<K> &&
                        util::is_canon_hashable_v<V>) {
            DetSan& ds = ctx.detsan();
            if (ds.should_replay(node_->id(), pid)) {
              detail::detsan_replay_combine(
                  ds, node_->id(), ds.replay_seed(node_->id(), pid),
                  "reduce_by_key", *in, acc, merge);
            }
          }
          map_out[pid].resize(reduce_tasks);
          shipped.shuffle.fetch_add(
              detail::hash_partition(acc, map_out[pid], hash),
              std::memory_order_relaxed);
        },
        &shipped);

    std::vector<std::vector<T>> out(reduce_tasks);
    ctx.run_stage(label + ":reduce", reduce_tasks, [&](u32 r) {
      std::unordered_map<K, V, Hash> acc;
      for (u32 m = 0; m < map_tasks; ++m) {
        for (auto& [k, v] : map_out[m][r]) {
          work::add(1);
          auto [it, inserted] = acc.try_emplace(std::move(k), std::move(v));
          if (!inserted) it->second = merge(std::move(it->second), v);
        }
      }
      out[r].reserve(acc.size());
      for (auto& [k, v] : acc) {
        out[r].emplace_back(std::move(const_cast<K&>(k)), std::move(v));
      }
    });
    return ctx.from_partitions(std::move(out));
  }

  /// Shuffle + gather all values per key (Spark's groupByKey). No map-side
  /// combining is possible, so the full value stream crosses the shuffle --
  /// prefer reduce_by_key when the downstream only folds.
  template <typename Hash = std::hash<typename detail::PairTraits<T>::key_type>>
    requires detail::PairTraits<T>::is_pair
  auto group_by_key(u32 out_partitions = 0, Hash hash = Hash{},
                    const std::string& label = "groupByKey") const {
    using K = typename detail::PairTraits<T>::key_type;
    using V = typename detail::PairTraits<T>::mapped_type;
    using Out = std::pair<K, std::vector<V>>;

    Context& ctx = node_->ctx();
    const u32 map_tasks = node_->num_partitions();
    const u32 reduce_tasks = out_partitions ? out_partitions : map_tasks;

    lint_consume(PlanLinter::Consume::kShuffle, label);
    Buckets map_out(map_tasks);
    StageBytes shipped;
    ctx.run_stage(
        label + ":map", map_tasks,
        [&](u32 pid) {
          auto in = node_->get(pid);
          map_out[pid].resize(reduce_tasks);
          u64 bytes = 0;
          for (const T& kv : *in) {
            work::add(1);
            bytes += byte_size(kv);
            map_out[pid][hash(kv.first) % reduce_tasks].push_back(kv);
          }
          shipped.shuffle.fetch_add(bytes, std::memory_order_relaxed);
        },
        &shipped);

    // Spillable key/value shapes degrade to simfs when the buffered bytes
    // exceed the shuffle budget; other shapes keep the in-memory path.
    std::optional<detail::ShuffleSpill<std::vector<std::vector<T>>>> spill;
    if constexpr (detail::is_spillable_v<T>) {
      spill.emplace(ctx, label);
      if (spill->admit(shipped.shuffle.load(std::memory_order_relaxed))) {
        spill->round_trip(map_out);
      }
    }

    std::vector<std::vector<Out>> out(reduce_tasks);
    ctx.run_stage(label + ":reduce", reduce_tasks, [&](u32 r) {
      std::unordered_map<K, std::vector<V>, Hash> groups;
      for (u32 m = 0; m < map_tasks; ++m) {
        for (auto& [k, v] : map_out[m][r]) {
          work::add(1);
          groups[std::move(k)].push_back(std::move(v));
        }
      }
      out[r].reserve(groups.size());
      for (auto& [k, vs] : groups) {
        out[r].emplace_back(std::move(const_cast<K&>(k)), std::move(vs));
      }
    });
    return ctx.from_partitions(std::move(out));
  }

  // --- actions (eager) -------------------------------------------------

  std::vector<T> collect(const std::string& label = "collect") const {
    Context& ctx = node_->ctx();
    const u32 n = node_->num_partitions();
    lint_consume(PlanLinter::Consume::kAction, label);
    std::vector<typename detail::Node<T>::Part> parts(n);
    ctx.run_stage(label, n, [&](u32 pid) { parts[pid] = node_->get(pid); });

    size_t total = 0;
    for (const auto& p : parts) total += p->size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& p : parts) out.insert(out.end(), p->begin(), p->end());
    return out;
  }

  u64 count(const std::string& label = "count") const {
    const std::vector<u64> sizes = partition_sizes(label);
    return std::accumulate(sizes.begin(), sizes.end(), u64{0});
  }

  /// Fold all elements with an associative, commutative `f`. Aborts on an
  /// empty RDD (mirrors Spark, which throws).
  template <typename F>
  T reduce(F f, const std::string& label = "reduce") const {
    Context& ctx = node_->ctx();
    const u32 n = node_->num_partitions();
    lint_consume(PlanLinter::Consume::kAction, label);
    std::vector<std::optional<T>> partials(n);
    ctx.run_stage(label, n, [&](u32 pid) {
      auto in = node_->get(pid);
      if (in->empty()) return;
      T acc = (*in)[0];
      for (size_t i = 1; i < in->size(); ++i) {
        work::add(1);
        acc = f(acc, (*in)[i]);
      }
      if constexpr (util::is_canon_hashable_v<T>) {
        detail::detsan_replay_fold(ctx.detsan(), node_->id(), pid, *in, acc,
                                   f);
      }
      partials[pid] = std::move(acc);
    });

    std::optional<T> result;
    for (auto& p : partials) {
      if (!p) continue;
      result = result ? f(*result, *p) : std::move(*p);
    }
    if (!result) {
      throw EngineError(EngineErrorKind::kEmptyReduce,
                        "reduce() on an empty RDD");
    }
    return *result;
  }

  /// Collect a pair RDD into a hash map (keys must be unique, e.g. after
  /// reduce_by_key).
  template <typename Hash = std::hash<typename detail::PairTraits<T>::key_type>>
    requires detail::PairTraits<T>::is_pair
  auto collect_as_map(const std::string& label = "collectAsMap") const {
    using K = typename detail::PairTraits<T>::key_type;
    using V = typename detail::PairTraits<T>::mapped_type;
    std::unordered_map<K, V, Hash> out;
    for (auto& [k, v] : collect(label)) {
      auto [it, inserted] = out.emplace(std::move(k), std::move(v));
      if (!inserted) {
        throw EngineError(EngineErrorKind::kDuplicateKey,
                          "duplicate key in collect_as_map()");
      }
      (void)it;
    }
    return out;
  }

  /// Element-wise sum of fixed-width integer arrays -- the dense
  /// counterpart of reduce_by_key for counting against a known universe of
  /// `width` candidate ids. Every element must be a std::vector of exactly
  /// `width` cells (EngineError{kArrayWidthMismatch} otherwise). Returns
  /// the fully merged array on the driver; merge_arrays prices the merge.
  template <typename E = typename detail::ArrayTraits<T>::elem_type>
    requires detail::is_count_array_v<T, E>
  std::vector<E> sum_arrays(size_t width,
                            const std::string& label = "sumArrays") const {
    return merge_arrays<E>(width, std::nullopt, label).cells;
  }

  /// sum_arrays keeping only the cells whose sum reaches `min`, as (id,
  /// sum) pairs in id order: the paper's reduceByKey -> filter -> collect,
  /// with the filter run where the merge ends.
  template <typename E = typename detail::ArrayTraits<T>::elem_type>
    requires detail::is_count_array_v<T, E>
  std::vector<std::pair<u32, E>> sum_arrays_at_least(
      size_t width, E min, const std::string& label = "sumArrays") const {
    return merge_arrays<E>(width, min, label).kept;
  }

  std::shared_ptr<detail::Node<T>> node() const { return node_; }

 private:
  /// A shuffle's map-side output: [map task][reduce task] -> elements.
  using Buckets = std::vector<std::vector<std::vector<T>>>;

  /// The merge behind sum_arrays (no `min`) and sum_arrays_at_least,
  /// priced as on the cluster. Each map task combines its partition's
  /// arrays into one partial and ships it in the smaller of two forms,
  /// decided from its own cells (detail::ArrayPartial): dense, 8 + width
  /// cells' bytes, or sparse, 8 bytes plus a u32 id and a cell per nonzero
  /// cell, only when strictly smaller. A dense partial costs its width per
  /// input array combined; a sparse one a unit per entry emitted, plus the
  /// width per input array past the first. Merging costs a unit per cell
  /// of a dense partial and per entry of a sparse one, and with a `min` a
  /// unit per merged cell scanned for survivors.
  ///
  /// The merge ends one of two ways, chosen before the map stage runs
  /// (detail::merges_on_driver):
  /// * on the driver: the partials return as task results, with no shuffle
  ///   and no spill, and a `:aggregate` overhead record charges the merge
  ///   to the driver and the partials' bytes to its link;
  /// * on the reducers: the partials shuffle to a `:reduce` stage that
  ///   slices the id space contiguously over its tasks. Slice r merges its
  ///   cells of every dense partial and its entries of every sparse one,
  ///   and returns its cells (dense), or with a `min` its survivors
  ///   (sparse), through the driver's link.
  ///
  /// The host never holds those partials at once. A task folds its inputs
  /// into one of min(pool size, map_tasks) FoldSlots, counting each reduce
  /// slice's nonzero cells in the same pass. When the shuffle spills
  /// (decided before it runs, on the dense size every partial is bounded
  /// by), a task encodes its partial in the form it ships straight into its
  /// spill block instead, and the restored blocks fold into the same
  /// slots. The merge sums the slots. The fold is exact only for integer
  /// cells, hence integral E.
  template <typename E>
  detail::MergedArrays<E> merge_arrays(size_t width, std::optional<E> min,
                                       const std::string& label) const {
    using Partial = detail::ArrayPartial<E>;
    Context& ctx = node_->ctx();
    const u32 map_tasks = node_->num_partitions();
    const u32 reduce_tasks = static_cast<u32>(std::max<size_t>(
        1, std::min<size_t>(ctx.default_partitions(), width)));
    // Reduce task r sums cells [bounds[r], bounds[r + 1]).
    std::vector<size_t> bounds(reduce_tasks + 1);
    for (u32 r = 0; r <= reduce_tasks; ++r) {
      bounds[r] = width * r / reduce_tasks;
    }
    const bool on_driver = detail::merges_on_driver<E>(
        ctx, map_tasks, reduce_tasks, width, min.has_value());

    lint_consume(PlanLinter::Consume::kShuffle, label);
    detail::ShuffleSpill<Partial> spill(ctx, label);
    const bool spilling =
        !on_driver && spill.admit(map_tasks * Partial::dense_bytes(width));
    std::vector<detail::EncodedBlock> blocks(spilling ? map_tasks : 0);
    detail::FoldSlots<E> slots(std::min(ctx.pool().size(), map_tasks), width);
    // Per map task: its nonzero cells in each reduce slice, and its form.
    std::vector<u64> nonzero(size_t{map_tasks} * reduce_tasks, 0);
    std::vector<u8> sparse(map_tasks, 0);
    StageBytes partials;
    std::atomic<bool> bad_width{false};
    ctx.run_stage(
        label + ":map-combine", map_tasks,
        [&](u32 pid) {
          auto in = node_->get(pid);
          for (const auto& arr : *in) {
            if (arr.size() != width) {
              bad_width.store(true, std::memory_order_relaxed);
              return;
            }
          }
          u64* nz = nonzero.data() + size_t{pid} * reduce_tasks;
          DetSan& ds = ctx.detsan();
          const bool replay = ds.should_replay(node_->id(), pid);
          // The partial is a lone input array itself; it materializes only
          // to combine several, to replay or to spill.
          std::vector<E> partial;
          const bool combined = spilling || replay || in->size() > 1;
          if (combined) {
            partial.assign(width, E{});
            for (const auto& arr : *in) detail::add_cells(partial, arr);
          }
          // Permuted-order re-accumulation: += over a permuted element
          // order must land on the same cells.
          if (replay) {
            std::vector<E> racc(width, E{});
            for (u32 i : DetSan::permutation(
                     in->size(), ds.replay_seed(node_->id(), pid))) {
              work::add(width);
              detail::add_cells(racc, (*in)[i]);
            }
            detail::detsan_check_ordered(ds, node_->id(), "sum_arrays",
                                         partial, racc);
          }
          const E* cells = combined      ? partial.data()
                           : in->empty() ? nullptr
                                         : in->front().data();
          if (spilling) {
            detail::count_nonzero(cells, bounds, nz);
          } else if (cells) {
            slots.fold([&](std::vector<E>& acc) {
              detail::count_nonzero(cells, bounds, nz, acc.data());
            });
          }
          const u64 entries = std::accumulate(nz, nz + reduce_tasks, u64{0});
          const u64 inputs = in->size();
          sparse[pid] = Partial::ships_sparse(width, entries);
          if (sparse[pid]) {
            work::add(entries + (inputs > 1 ? width * (inputs - 1) : 0));
            partials.shuffle.fetch_add(Partial::sparse_bytes(entries),
                                       std::memory_order_relaxed);
          } else {
            work::add(width * inputs);
            partials.shuffle.fetch_add(Partial::dense_bytes(width),
                                       std::memory_order_relaxed);
          }
          if (spilling) {
            Partial shipped;
            if (sparse[pid]) {
              shipped = detail::sparse_partial(partial, entries);
            } else {
              shipped.cells = std::move(partial);
            }
            blocks[pid] = spill.encode(pid, shipped);
          }
        },
        // Ending on the driver, the partials are task results that
        // :aggregate fetches, not shuffle output.
        on_driver ? nullptr : &partials);
    if (bad_width.load(std::memory_order_relaxed)) {
      throw EngineError(
          EngineErrorKind::kArrayWidthMismatch,
          label + ": input array width != " + std::to_string(width));
    }
    const u64 partial_bytes = partials.shuffle.load(std::memory_order_relaxed);
    obs::count(obs::CounterId::kArrayReduceBytes, partial_bytes);

    if (spilling) {
      spill.write(std::move(blocks));
      spill.restore([&slots](u32, Partial&& part) {
        slots.fold([&part](std::vector<E>& acc) {
          if (!part.sparse) return detail::add_cells(acc, part.cells);
          for (size_t j = 0; j < part.ids.size(); ++j) {
            acc[part.ids[j]] += part.cells[j];
          }
        });
      });
    }

    // Priced as merging what every map task shipped into each slice, then
    // scanning the slice for survivors.
    std::vector<u64> merge_work(reduce_tasks, 0);
    for (u32 r = 0; r < reduce_tasks; ++r) {
      const u64 slice = bounds[r + 1] - bounds[r];
      for (u32 p = 0; p < map_tasks; ++p) {
        merge_work[r] +=
            sparse[p] ? nonzero[size_t{p} * reduce_tasks + r] : slice;
      }
      if (min) merge_work[r] += slice;
    }
    const std::vector<std::vector<E>> parts = slots.take();
    std::vector<E> merged(width, E{});
    std::vector<std::vector<std::pair<u32, E>>> kept(min ? reduce_tasks : 0);
    auto merge_slice = [&](u32 r) {
      for (const std::vector<E>& part : parts) {
        for (size_t i = bounds[r]; i < bounds[r + 1]; ++i) merged[i] += part[i];
      }
      if (!min) return;
      for (size_t i = bounds[r]; i < bounds[r + 1]; ++i) {
        if (merged[i] >= *min) {
          kept[r].emplace_back(static_cast<u32>(i), merged[i]);
        }
      }
    };
    if (on_driver) {
      for (u32 r = 0; r < reduce_tasks; ++r) merge_slice(r);
      sim::StageRecord aggregate;
      aggregate.label = label + ":aggregate";
      aggregate.kind = sim::StageKind::kOverhead;
      aggregate.pass = ctx.pass();
      aggregate.driver_work =
          std::accumulate(merge_work.begin(), merge_work.end(), u64{0});
      aggregate.driver_fetch_bytes = partial_bytes;
      ctx.record(std::move(aggregate));
    } else {
      StageBytes results;
      ctx.run_stage(
          label + ":reduce", reduce_tasks,
          [&](u32 r) {
            work::add(merge_work[r]);
            merge_slice(r);
            results.fetched.fetch_add(
                min ? Partial::sparse_bytes(kept[r].size())
                    : Partial::dense_bytes(bounds[r + 1] - bounds[r]),
                std::memory_order_relaxed);
          },
          &results);
    }
    obs::count(obs::CounterId::kArrayReduceCells, width);
    detail::MergedArrays<E> out;
    if (!min) {
      out.cells = std::move(merged);
      return out;
    }
    for (auto& slice : kept) {
      out.kept.insert(out.kept.end(), slice.begin(), slice.end());
    }
    return out;
  }

  /// Plan-linter consumption hook, called right before an action/shuffle
  /// pulls this RDD's partitions (engine/lint.h walks the lineage then).
  void lint_consume(PlanLinter::Consume kind, const std::string& label) const {
    Context& ctx = node_->ctx();
    if (ctx.linter().enabled()) {
      ctx.linter().before_execute(node_->id(), kind, label);
    }
  }

  template <typename U, typename Step>
  RDD<U> elementwise(PlanOp op, Step step) const {
    return RDD<U>(std::make_shared<detail::ElementwiseNode<T, U, Step>>(
        node_, op, std::move(step)));
  }

  template <typename Fn>
  auto per_partition(PlanOp op, const char* detsan_op, Fn fn) const {
    using U = typename std::invoke_result_t<Fn&, u32,
                                            const std::vector<T>&>::value_type;
    return RDD<U>(std::make_shared<detail::PartitionNode<T, U, Fn>>(
        node_, op, detsan_op, std::move(fn)));
  }

  /// One stage reading every partition's size (count, zip_with_index).
  std::vector<u64> partition_sizes(const std::string& label) const {
    Context& ctx = node_->ctx();
    const u32 n = node_->num_partitions();
    lint_consume(PlanLinter::Consume::kAction, label);
    std::vector<u64> sizes(n, 0);
    ctx.run_stage(label, n,
                  [&](u32 pid) { sizes[pid] = node_->get(pid)->size(); });
    return sizes;
  }

  std::shared_ptr<detail::Node<T>> node_;
};

// --- Context factory definitions (declared in engine/context.h) ---------

template <typename T>
RDD<T> Context::from_partitions(std::vector<std::vector<T>> parts) {
  return RDD<T>(
      std::make_shared<detail::MaterializedNode<T>>(*this, std::move(parts)));
}

template <typename T>
RDD<T> Context::parallelize(std::vector<T> data, u32 nparts) {
  if (nparts == 0) nparts = default_partitions();
  const size_t n = data.size();
  nparts = static_cast<u32>(
      std::max<size_t>(1, std::min<size_t>(nparts, std::max<size_t>(1, n))));

  std::vector<std::vector<T>> parts(nparts);
  const size_t base = n / nparts;
  const size_t extra = n % nparts;
  size_t offset = 0;
  for (u32 p = 0; p < nparts; ++p) {
    const size_t len = base + (p < extra ? 1 : 0);
    parts[p].assign(std::make_move_iterator(data.begin() + offset),
                    std::make_move_iterator(data.begin() + offset + len));
    offset += len;
  }
  return from_partitions(std::move(parts));
}

}  // namespace yafim::engine
