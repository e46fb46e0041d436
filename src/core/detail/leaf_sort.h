// Fast sequential sort for phase-3 leaf blocks (and partition buckets).
//
// Below Tuning::seq_cutoff the engine stops paying pointer-chasing prices:
// instead of walking the subtree in order (one dependent cache miss per
// node), it gathers the subtree's (key, index) pairs into scratch, sorts
// them with the introsort-style routine in this header, and emits the ranks
// in one streaming pass.  The same routine sorts the partition-phase
// buckets (bare keys or (key, index) pairs, partition_phase.h) and the
// splitter samples.
//
// The sort is the pdqsort recipe reduced to its load-bearing parts:
//
//   * insertion sort at or below kInsertionThreshold elements;
//   * median-of-3 pivot selection (pseudomedian-of-9 for larger ranges);
//   * Hoare partitioning with a chunked branch-free scan: comparison results
//     are packed 8-at-a-time into a bitmask and consumed with countr_zero,
//     so the scan takes one data-dependent branch per 8 elements instead of
//     one per element;
//   * a bad-pivot budget of floor(log2 n)+1; a partition whose smaller side
//     is below len/8 spends one unit and swaps a few elements of each side
//     to break the input's pattern, and an exhausted budget falls back to
//     heapsort — the classic introsort O(n log n) worst-case guarantee,
//     exercised in test_engine_detail with a quicksort-adversarial input;
//   * pdqsort's equal-key step: a range that is not leftmost sits right of a
//     split point, so the element before it is <= all of it.  A pivot not
//     greater than that element is the range's minimum; its equals move
//     left in one pass and are done, so bare keys with few distinct values
//     shed a whole key per partition instead of splitting it down to
//     insertion sorts (or exhausting the budget).
//
// Comparisons go through a strict-weak-order functor; the engine instantiates
// it with the (key, then index) order of TreeState::less, so a leaf-sorted
// block is bit-identical to the in-order walk it replaces.  The routine is
// sequential and operates on private scratch only — wait-freedom is the
// caller's concern (gather/emit poll the fault checkpoint; the sort itself
// is bounded work on local memory).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace wfsort::detail {

// Dispatch/volume counters, accumulated locally and folded into telemetry by
// the caller (telemetry/report.h kLeaf* counters).
struct LeafSortTally {
  std::uint64_t blocks = 0;           // top-level leaf_sort calls
  std::uint64_t insertion_sorts = 0;  // ranges finished by insertion sort
  std::uint64_t heapsorts = 0;        // bad-pivot fallbacks taken
  std::uint64_t partition_swaps = 0;  // element swaps performed by partitions
};

inline constexpr std::ptrdiff_t kInsertionThreshold = 24;
inline constexpr std::ptrdiff_t kPseudomedianThreshold = 128;

namespace leaf {

template <typename T, typename Less>
void insertion_sort(T* first, T* last, Less less) {
  for (T* cur = first + 1; cur < last; ++cur) {
    if (!less(*cur, *(cur - 1))) continue;
    T tmp = std::move(*cur);
    T* hole = cur;
    do {
      *hole = std::move(*(hole - 1));
      --hole;
    } while (hole != first && less(tmp, *(hole - 1)));
    *hole = std::move(tmp);
  }
}

// Order a,b,c in place (3 compares, ≤3 swaps); *b ends up the median.
template <typename T, typename Less>
void sort3(T* a, T* b, T* c, Less less) {
  if (less(*b, *a)) std::swap(*a, *b);
  if (less(*c, *b)) {
    std::swap(*b, *c);
    if (less(*b, *a)) std::swap(*a, *b);
  }
}

// Move a median-ish pivot to *first: median-of-3 for short ranges,
// pseudomedian-of-9 (median of three medians-of-3) for longer ones.
template <typename T, typename Less>
void select_pivot(T* first, T* last, Less less) {
  const std::ptrdiff_t len = last - first;
  T* mid = first + len / 2;
  if (len > kPseudomedianThreshold) {
    // Ninther: medians of three spread triples, then their median, which
    // ends up at *mid and is swapped into the pivot slot.
    sort3(first, mid, last - 1, less);
    sort3(first + 1, mid - 1, last - 2, less);
    sort3(first + 2, mid + 1, last - 3, less);
    sort3(mid - 1, mid, mid + 1, less);
    std::swap(*first, *mid);
  } else {
    sort3(mid, first, last - 1, less);  // median lands at *first
  }
}

// Hoare split around the pivot value at *first, with a BlockQuicksort-style
// branch-free scan.  Returns a split point s in (first, last): every element
// of [first, s) is <= pivot and every element of [s, last) is >= pivot
// (equals stop both scans and may land on either side — that is what keeps
// duplicate-heavy input balanced).  Both sides are non-empty, so recursing
// on [first, s) and [s, last) always makes progress.
//
// Each direction examines one block of up to 64 elements at a time, packing
// its comparison results into a bitmask with a branch-free loop; stoppers
// (left: >= pivot, right: <= pivot) are then consumed pairwise with
// countr_zero ACROSS swaps, so every element is compared exactly once and
// the only data-dependent branch is one per swap.  The two live blocks are
// always disjoint — each is carved off the unexamined gap [u0, u1) before
// the gap pointer moves past it — so a swap writes only to two consumed
// stopper slots and never invalidates a pending mask bit.  When the gap is
// exhausted, at most one mask still has stoppers (a refill that finds the
// gap empty breaks the loop before any lone-sided swap), and the leftover
// walk moves them to the boundary one self-swap-safe exchange each.
template <typename T, typename Less>
T* hoare_split(T* first, T* last, Less less, std::uint64_t* swaps) {
  constexpr std::ptrdiff_t kBlock = 64;
  const T pivot = *first;
  T* u0 = first + 1;  // unexamined gap is [u0, u1)
  T* u1 = last;
  std::uint64_t ml = 0, mr = 0;  // pending stoppers: ml bit b = lb[b],
  T* lb = u0;                    // mr bit b = rb[-1 - b]
  T* rb = u1;

  for (;;) {
    if (ml == 0) {  // refill the forward mask from the low end of the gap
      std::ptrdiff_t wl;
      do {
        lb = u0;
        wl = std::min<std::ptrdiff_t>(u1 - u0, kBlock);
        for (std::ptrdiff_t b = 0; b < wl; ++b) {
          ml |= static_cast<std::uint64_t>(!less(lb[b], pivot)) << b;
        }
        u0 += wl;
      } while (ml == 0 && wl == kBlock);
    }
    if (mr == 0) {  // refill the backward mask from the high end of the gap
      std::ptrdiff_t wr;
      do {
        rb = u1;
        wr = std::min<std::ptrdiff_t>(u1 - u0, kBlock);
        for (std::ptrdiff_t b = 0; b < wr; ++b) {
          mr |= static_cast<std::uint64_t>(!less(pivot, rb[-1 - b])) << b;
        }
        u1 -= wr;
      } while (mr == 0 && wr == kBlock);
    }
    if (ml == 0 || mr == 0) break;  // gap exhausted on the empty side(s)
    do {  // consume stopper pairs; both blocks stay disjoint and examined
      std::swap(lb[std::countr_zero(ml)], rb[-1 - std::countr_zero(mr)]);
      ++*swaps;
      ml &= ml - 1;
      mr &= mr - 1;
    } while (ml != 0 && mr != 0);
  }

  if (ml != 0) {
    // Leftover left stoppers (>= pivot) sit inside the last left block
    // [lb, u0); everything at and above u0 == u1 is already >= pivot.  Move
    // them flush against the boundary, highest position first — the target
    // slot is either the stopper itself (self-swap) or a clean <= pivot
    // element, never a pending stopper.
    T* r = u0;
    while (ml != 0) {
      const int h = 63 - std::countl_zero(ml);
      --r;
      std::swap(lb[h], *r);
      ++*swaps;
      ml &= ~(std::uint64_t{1} << h);
    }
    return r;  // r >= lb > first; r < last because >= 1 stopper moved
  }
  if (mr != 0) {
    // Mirror: leftover right stoppers (<= pivot) inside (u1, rb]; everything
    // below u0 == u1 is already <= pivot.  A leftover mask always took part
    // in >= 1 pair swap, so the boundary stays left of `last`.
    T* l = u0;
    while (mr != 0) {
      const int h = 63 - std::countl_zero(mr);
      std::swap(rb[-1 - h], *l);
      ++*swaps;
      ++l;
      mr &= ~(std::uint64_t{1} << h);
    }
    return l;
  }
  // Clean finish: [first, u0) <= pivot, [u0, last) >= pivot.  u0 == last
  // means the pivot was a maximum — hand it the top slot so the right side
  // is non-empty.
  if (u0 == last) {
    std::swap(*first, *(last - 1));
    ++*swaps;
    return last - 1;
  }
  return u0;
}

template <typename T, typename Less>
void sift_down(T* first, std::ptrdiff_t len, std::ptrdiff_t i, Less less) {
  for (;;) {
    std::ptrdiff_t child = 2 * i + 1;
    if (child >= len) return;
    if (child + 1 < len && less(first[child], first[child + 1])) ++child;
    if (!less(first[i], first[child])) return;
    std::swap(first[i], first[child]);
    i = child;
  }
}

template <typename T, typename Less>
void heapsort(T* first, T* last, Less less) {
  const std::ptrdiff_t len = last - first;
  for (std::ptrdiff_t i = len / 2 - 1; i >= 0; --i) sift_down(first, len, i, less);
  for (std::ptrdiff_t end = len - 1; end > 0; --end) {
    std::swap(first[0], first[end]);
    sift_down(first, end, 0, less);
  }
}

// Move every element equal to the pivot at *first — the range's minimum —
// to the front, in one pass; returns the end of that run of equals.
template <typename T, typename Less>
T* partition_equal(T* first, T* last, Less less, std::uint64_t* swaps) {
  T* m = first + 1;
  for (T* p = first + 1; p < last; ++p) {
    if (!less(*first, *p)) {
      std::swap(*m, *p);
      ++*swaps;
      ++m;
    }
  }
  return m;
}

// pdqsort's pattern breaking after an unbalanced split: swap the ends of
// [first, last) with elements a quarter in, so patterned input (organ pipe)
// does not hand the next pivot selection the same bad samples.
template <typename T>
void break_pattern(T* first, T* last) {
  const std::ptrdiff_t len = last - first;
  if (len < kInsertionThreshold) return;
  const int k = len > kPseudomedianThreshold ? 3 : 1;  // the ninther reads 3 per end
  for (int i = 0; i < k; ++i) {
    std::swap(first[i], first[len / 4 + i]);
    std::swap(last[-1 - i], last[-len / 4 - i]);
  }
}

// `leftmost` is false when first[-1] exists and is <= every element of
// [first, last).
template <typename T, typename Less>
void sort_impl(T* first, T* last, Less less, int budget, bool leftmost,
               LeafSortTally* tally) {
  for (;;) {
    const std::ptrdiff_t len = last - first;
    if (len <= kInsertionThreshold) {
      if (len > 1) {
        insertion_sort(first, last, less);
        ++tally->insertion_sorts;
      }
      return;
    }
    if (budget <= 0) {
      heapsort(first, last, less);
      ++tally->heapsorts;
      return;
    }
    select_pivot(first, last, less);
    if (!leftmost && !less(first[-1], *first)) {
      first = partition_equal(first, last, less, &tally->partition_swaps);
      continue;
    }
    T* s = hoare_split(first, last, less, &tally->partition_swaps);
    const std::ptrdiff_t left = s - first;
    const std::ptrdiff_t right = last - s;
    if (left < len / 8 || right < len / 8) {
      // Unbalanced: spend one unit, and break the input's pattern (pdqsort's
      // fixed-offset swaps inside each side) so the next pivot is not as bad.
      --budget;
      break_pattern(first, s);
      break_pattern(s, last);
    }
    // Recurse into the smaller side, loop on the larger (O(log n) stack).
    // Every element of [first, s) is <= every element of [s, last), so the
    // right side is never leftmost.
    if (left < right) {
      sort_impl(first, s, less, budget, leftmost, tally);
      first = s;
      leftmost = false;
    } else {
      sort_impl(s, last, less, budget, false, tally);
      last = s;
    }
  }
}

}  // namespace leaf

// Sort [first, last) under `less` (a strict weak order).  `tally` is
// required; pass a throwaway when the caller doesn't report telemetry.
template <typename T, typename Less>
void leaf_sort(T* first, T* last, Less less, LeafSortTally* tally) {
  ++tally->blocks;
  if (last - first <= 1) return;
  // floor(log2 n) + 1 — the introsort depth allowance.
  const int budget =
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(last - first)));
  leaf::sort_impl(first, last, less, budget, /*leftmost=*/true, tally);
}

// Test hook: same sort with an explicit bad-pivot budget, so unit tests can
// force the heapsort fallback without crafting a full adversarial stream.
template <typename T, typename Less>
void leaf_sort_with_budget(T* first, T* last, Less less, int budget,
                           LeafSortTally* tally) {
  ++tally->blocks;
  if (last - first <= 1) return;
  leaf::sort_impl(first, last, less, budget, /*leftmost=*/true, tally);
}

// The (key, index) pair a leaf block is sorted by; ordering matches
// TreeState::less (key by Compare, index breaks ties) so the result is
// bit-identical to the in-order subtree walk it replaces.
template <typename Key>
struct LeafItem {
  Key key;
  std::int64_t idx;
};

template <typename Key, typename Compare>
struct LeafItemLess {
  Compare cmp;
  bool operator()(const LeafItem<Key>& a, const LeafItem<Key>& b) const {
    if (cmp(a.key, b.key)) return true;
    if (cmp(b.key, a.key)) return false;
    return a.idx < b.idx;
  }
};

}  // namespace wfsort::detail
