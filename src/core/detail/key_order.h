// The (key, index) order every phase sorts by: keys by the caller's Compare,
// the element index breaking ties (the paper's "use an element's index to
// break ties"), so all keys behave as if distinct.  The pivot-tree descent,
// the LC fat-tree descent and the splitter-tree descent compare through this
// one function.  LeafItemLess (leaf_sort.h) spells the same order with early
// returns: inside the leaf sort the branchy form measured faster on skewed
// input (sort_permutation at N = 2^16 on sorted, reversed, organ-pipe and
// few-distinct keys ran 8% slower through this function).
//
// Both comparisons always run and combine bitwise, so the answer is a value,
// not a branch: a descent built on it lowers the child choice to setcc plus
// an indexed load, with no data-dependent jump to mispredict.
#pragma once

#include <cstdint>

namespace wfsort::detail {

template <typename Key, typename Compare>
inline bool key_index_less(const Compare& cmp, const Key& ka, std::int64_t ia,
                           const Key& kb, std::int64_t ib) {
  const bool lt = cmp(ka, kb);
  const bool gt = cmp(kb, ka);
  return lt | (!gt & (ia < ib));
}

}  // namespace wfsort::detail
