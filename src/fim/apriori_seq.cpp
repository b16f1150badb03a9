#include "fim/apriori_seq.h"

#include <algorithm>
#include <unordered_map>

#include "fim/candidate_gen.h"
#include "fim/hash_tree.h"

namespace yafim::fim {

MiningRun apriori_mine(const TransactionDB& db,
                       const AprioriOptions& options) {
  const u64 min_count = options.min_count
                            ? options.min_count
                            : db.min_support_count(options.min_support);
  MiningRun run;
  run.itemsets = FrequentItemsets(min_count, db.size());

  // L1: one pass over D counting single items.
  std::unordered_map<Item, u64> item_counts;
  for (const Transaction& t : db.transactions()) {
    for (Item i : t) ++item_counts[i];
  }
  ItemsetRows frequent{1, {}};
  for (const auto& [item, count] : item_counts) {
    if (count >= min_count) {
      run.itemsets.add(Itemset{item}, count);
      frequent.items.push_back(item);
    }
  }
  std::sort(frequent.items.begin(), frequent.items.end());
  run.passes.push_back(
      PassStats{1, item_counts.size(), frequent.size(), 0.0});

  // Lk from L(k-1) until no candidates survive.
  for (u32 k = 2; !frequent.empty(); ++k) {
    ItemsetRows candidates = apriori_gen_rows(frequent, k);
    if (candidates.empty()) break;
    const HashTree tree(std::move(candidates), /*branching=*/0,
                        /*leaf_capacity=*/16);
    std::vector<u64> counts(tree.size(), 0);
    HashTree::Probe probe;
    for (const Transaction& t : db.transactions()) {
      tree.for_each_contained(t, probe, [&](u32 ci) { ++counts[ci]; });
    }

    frequent = ItemsetRows{k, {}};
    for (u32 ci = 0; ci < tree.size(); ++ci) {
      if (counts[ci] >= min_count) {
        run.itemsets.add(tree.rows().itemset(ci), counts[ci]);
        frequent.items.insert(frequent.items.end(), tree.rows().row(ci),
                              tree.rows().row(ci) + k);
      }
    }
    run.passes.push_back(PassStats{k, tree.size(), frequent.size(), 0.0});
  }
  return run;
}

}  // namespace yafim::fim
