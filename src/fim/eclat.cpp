#include "fim/eclat.h"

#include <map>

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
  std::vector<std::pair<Itemset, u64>> found;
  mine_tidlist_class({}, roots, min_count, found);
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
