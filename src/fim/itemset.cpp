#include "fim/itemset.h"

#include <algorithm>
#include <sstream>

#include "util/rng.h"

namespace yafim::fim {

bool is_canonical(const Itemset& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

void canonicalize(Itemset& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool contains_all(const Transaction& t, const Itemset& s) {
  YAFIM_DCHECK(is_canonical(t) && is_canonical(s), "inputs must be canonical");
  size_t ti = 0;
  for (Item needle : s) {
    while (ti < t.size() && t[ti] < needle) ++ti;
    if (ti == t.size() || t[ti] != needle) return false;
    ++ti;
  }
  return true;
}

std::string to_string(const Itemset& s) {
  std::ostringstream out;
  out << '{';
  for (size_t i = 0; i < s.size(); ++i) {
    if (i) out << ", ";
    out << s[i];
  }
  out << '}';
  return out.str();
}

ItemsetRows to_rows(const std::vector<Itemset>& sets) {
  ItemsetRows rows;
  if (sets.empty()) return rows;
  rows.width = static_cast<u32>(sets.front().size());
  YAFIM_CHECK(rows.width >= 1, "itemsets must be non-empty");
  rows.items.reserve(sets.size() * rows.width);
  for (const Itemset& s : sets) {
    YAFIM_CHECK(s.size() == rows.width, "all itemsets must have equal size");
    rows.items.insert(rows.items.end(), s.begin(), s.end());
  }
  return rows;
}

ItemsetRows to_sorted_rows(const std::vector<Itemset>& sets) {
  if (std::is_sorted(sets.begin(), sets.end())) return to_rows(sets);
  std::vector<Itemset> sorted = sets;
  std::sort(sorted.begin(), sorted.end());
  return to_rows(sorted);
}

std::vector<Itemset> to_itemsets(const ItemsetRows& rows) {
  std::vector<Itemset> out;
  out.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out.push_back(rows.itemset(i));
  return out;
}

size_t ItemsetHash::operator()(const Itemset& s) const {
  // FNV-style fold of each item through a strong 64-bit mixer; stable
  // across platforms and runs (required by the shuffle partitioner).
  u64 h = kSeed ^ s.size();
  for (Item item : s) {
    h = mix64(h ^ item);
  }
  return static_cast<size_t>(h);
}

}  // namespace yafim::fim
