#include "fim/hash_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace yafim::fim {

u32 HashTree::default_branching(u64 num_candidates, u32 k) {
  if (num_candidates == 0 || k == 0) return 8;
  const double per_level =
      std::pow(static_cast<double>(num_candidates), 1.0 / k);
  const double fanout = std::ceil(2.0 * per_level);
  return static_cast<u32>(std::clamp(fanout, 8.0, 1024.0));
}

HashTree::HashTree(std::vector<Itemset> candidates, u32 branching,
                   u32 leaf_capacity)
    : HashTree(to_rows(candidates), branching, leaf_capacity) {}

HashTree::HashTree(ItemsetRows candidates, u32 branching, u32 leaf_capacity)
    : rows_(std::move(candidates)),
      branching_(branching),
      leaf_capacity_(leaf_capacity) {
  size_ = static_cast<u32>(rows_.size());
  if (branching_ == 0) branching_ = default_branching(size_, rows_.width);
  YAFIM_CHECK(branching_ >= 2, "branching must be >= 2");
  YAFIM_CHECK(leaf_capacity_ >= 1, "leaf capacity must be >= 1");
  YAFIM_CHECK(rows_.items.size() == size_t{size_} * rows_.width,
              "candidate rows must be whole, non-empty itemsets");
  for (u32 ci = 0; ci < size_; ++ci) {
    YAFIM_DCHECK(std::adjacent_find(rows_.row(ci), rows_.row(ci) + k(),
                                    std::greater_equal<Item>()) ==
                     rows_.row(ci) + k(),
                 "candidates must be canonical");
  }
  build();
}

void HashTree::build() {
  // Node i's candidates are the run bucket_arena_[first, first + count);
  // the root's run is every id in ascending order. Nodes are processed in
  // index order, which is breadth-first because children are appended.
  bucket_arena_.resize(size_);
  std::iota(bucket_arena_.begin(), bucket_arena_.end(), 0u);
  nodes_.push_back(Node{0, size_, kNone});
  std::vector<u32> slot_of;  // child slot per position of the run
  std::vector<u32> sorted;   // the run, stably ordered by child slot
  std::vector<u32> cursor(branching_);
  u32 depth = 0;
  size_t level_end = 1;  // first node of depth + 1
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i == level_end) {
      ++depth;
      level_end = nodes_.size();
    }
    const u32 first = nodes_[i].first;
    const u32 count = nodes_[i].count;
    if (count <= leaf_capacity_ || depth >= k()) {
      nodes_[i].leaf_id = num_leaves_++;
      continue;
    }
    // Interior: counting sort of the run by child_slot(items[depth]); each
    // non-empty slot becomes a child over its sub-run.
    u32* run = bucket_arena_.data() + first;
    slot_of.resize(count);
    sorted.resize(count);
    std::fill(cursor.begin(), cursor.end(), 0u);
    for (u32 p = 0; p < count; ++p) {
      slot_of[p] = child_slot(rows_.row(run[p])[depth]);
      ++cursor[slot_of[p]];
    }
    const u32 children = static_cast<u32>(child_arena_.size());
    child_arena_.resize(children + branching_, kNone);
    u32 offset = 0;
    for (u32 slot = 0; slot < branching_; ++slot) {
      const u32 n = cursor[slot];
      cursor[slot] = offset;
      if (n == 0) continue;
      child_arena_[children + slot] = static_cast<u32>(nodes_.size());
      nodes_.push_back(Node{first + offset, n, kNone});
      offset += n;
    }
    for (u32 p = 0; p < count; ++p) sorted[cursor[slot_of[p]]++] = run[p];
    std::copy(sorted.begin(), sorted.end(), run);
    nodes_[i] = Node{children, branching_, kNone};
  }
}

u64 HashTree::serialized_bytes(const std::vector<HashTree>& trees) {
  u64 bytes = 0;
  for (const HashTree& tree : trees) bytes += tree.serialized_bytes();
  return bytes;
}

u64 HashTree::serialized_bytes() const {
  // Matches the historical per-vector accounting byte for byte: 16-byte
  // header, (8 + 4k) per candidate itemset, 8 per node plus 4 per bucket or
  // child slot. Every candidate id occupies exactly one bucket slot and
  // every interior node carries branching_ child slots, so the arena sizes
  // are those same sums.
  return 16 + u64{size_} * (8 + u64{k()} * sizeof(Item)) +
         nodes_.size() * 8 + bucket_arena_.size() * sizeof(u32) +
         child_arena_.size() * sizeof(u32);
}

}  // namespace yafim::fim
