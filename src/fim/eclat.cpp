#include "fim/eclat.h"

#include <map>

#include "fim/count_core.h"
#include "fim/tidlist_mining.h"

namespace yafim::fim {

MiningRun eclat_mine(const TransactionDB& db, double min_support) {
  const u64 min_count = db.min_support_count(min_support);
  MiningRun run;
  run.itemsets = FrequentItemsets(min_count, db.size());

  // Vertical layout: item -> sorted tid list. std::map keeps item order
  // ascending, as the prefix-class recursion requires.
  std::map<Item, TidList> vertical;
  const auto& tx = db.transactions();
  for (u32 tid = 0; tid < tx.size(); ++tid) {
    for (Item i : tx[tid]) vertical[i].push_back(tid);
  }

  std::vector<std::pair<Item, TidList>> roots;
  for (auto& [item, tids] : vertical) {
    if (tids.size() >= min_count) roots.emplace_back(item, std::move(tids));
  }

  // L2 in one scan: the pair kernel counts every pair of frequent items on
  // the triangular matrix over their ranks, so only the pairs that reach
  // min_count are intersected. Past kMaxPairCells (128 MiB of cells) every
  // pair is intersected instead, and the intersection decides.
  constexpr u64 kMaxPairCells = u64{1} << 24;
  const u64 m = roots.size();
  std::vector<u64> pair_counts;
  if (m >= 2 && m * (m - 1) / 2 <= kMaxPairCells) {
    std::vector<Item> items;
    for (const auto& [item, tids] : roots) items.push_back(item);
    const PairMatrix pairs(std::move(items));
    pair_counts.assign(pairs.num_pairs(), 0);
    for (const Transaction& t : tx) pairs.count_row(t, pair_counts.data());
  }

  // The root class of mine_tidlist_class, with L2 read off the matrix.
  std::vector<std::pair<Itemset, u64>> found;
  u64 pair = 0;  // matrix cell of (i, j): row-major over i < j
  for (size_t i = 0; i < roots.size(); ++i) {
    const Itemset prefix{roots[i].first};
    found.emplace_back(prefix, roots[i].second.size());
    std::vector<std::pair<Item, TidList>> extensions;
    for (size_t j = i + 1; j < roots.size(); ++j, ++pair) {
      if (!pair_counts.empty() && pair_counts[pair] < min_count) continue;
      TidList tids = intersect_tidlists(roots[i].second, roots[j].second);
      if (tids.size() >= min_count) {
        extensions.emplace_back(roots[j].first, std::move(tids));
      }
    }
    if (!extensions.empty()) {
      mine_tidlist_class(prefix, extensions, min_count, found);
    }
  }
  for (auto& [itemset, support] : found) {
    run.itemsets.add(std::move(itemset), support);
  }

  for (u32 k = 1; k <= run.itemsets.max_k(); ++k) {
    run.passes.push_back(
        PassStats{k, run.itemsets.level(k).size(),
                  run.itemsets.level(k).size(), 0.0});
  }
  return run;
}

}  // namespace yafim::fim
