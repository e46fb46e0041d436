// Phases 2 and 3 — subtree summation (Figure 5) and placement (Figure 6).
//
// Both are full tree traversals performed independently by every worker;
// all writes are idempotent (the tree is frozen after phase 1, so sizes and
// places are deterministic), which is what makes concurrent duplicated work
// harmless.
//
// Spreading.  The paper uses processor-ID bits to choose the child visit
// order at each depth, so concurrent workers fan out over disjoint subtrees.
// PIDs only have log P significant bits; below that depth raw PID bits are
// all zero and every helper would walk the same path.  We therefore derive
// the decision bit from a hash of (pid, depth), which preserves the paper's
// even split near the root in distribution and keeps helpers spread at
// every depth (ablated in bench fig_e12).
//
// Pruning.  tree_sum skips a subtree when its root's size is known — safe,
// because sizes propagate bottom-up: size > 0 implies the whole subtree is
// summed.  Figure 6 prunes on place > 0, but places propagate TOP-DOWN, so
// a placed subtree root says nothing about its interior: a worker pruning
// on it can count itself complete while another still emits below (see
// DESIGN.md and EXPERIMENTS.md E12).  find_place_emit instead prunes on an
// explicit completion flag, set bottom-up once a whole subtree is placed:
// phase-2 semantics for phase 3, crash-safe AND work-sharing.  It is the
// only rule; the simulator keeps the other two (sim::PlacePrune).
//
// Sequential cutoff.  With `seq_cutoff > 0`, find_place_emit handles any
// subtree of at most that many elements locally (sort_block): the subtree's
// (key, index) pairs are gathered into contiguous scratch, sorted with the
// pdqsort-style leaf_sort, and emitted as consecutive ranks with streaming
// writes and no per-node completion flags.  The result is identical to an
// in-order walk (place_block, kept for reference and tests) — the tree
// already encodes the order — but the gather overlaps its cache misses and
// the sort runs on cache-resident memory, so much larger cutoffs pay.  The
// completion flag of the block's ROOT is published only after the walk
// (try_claim_place_done), so a crashed walker leaves nothing claimed and
// any other worker redoes the block idempotently: wait-freedom is
// untouched — nobody ever waits for a block winner (docs/native_engine.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/detail/leaf_sort.h"
#include "core/detail/tree_state.h"
#include "telemetry/recorder.h"

namespace wfsort::detail {

// Child visited first by worker `pid` at `depth`: an even pseudo-random
// split at every level.
inline Side spread_side(std::uint32_t pid, std::uint32_t depth) {
  const std::uint64_t h =
      mix64((std::uint64_t{pid} << 32) | std::uint64_t{depth});
  return (h & 1u) != 0 ? kBig : kSmall;
}
inline Side other(Side s) { return s == kSmall ? kBig : kSmall; }

// `keep_going` is polled once per tree node touched; returning false aborts
// the traversal (fault injection) and the phase returns false.

template <typename Key, typename Compare, typename Check>
bool tree_sum(TreeState<Key, Compare>& st, std::uint32_t pid, Check&& keep_going) {
  if (st.n() == 0) return true;
  struct Frame {
    std::int64_t node;
    std::uint32_t depth;
    std::uint8_t stage;      // 0: fresh, 1: first child done, 2: both done
    std::int64_t first_sum;  // result of the first child
    std::int64_t small;      // children, loaded once at stage 0
    std::int64_t big;
  };
  // thread_local: persistent pool workers reuse the DFS stack across runs
  // (zero steady-state allocations); run_worker is never reentrant on one
  // thread, so the scratch cannot be aliased.
  static thread_local std::vector<Frame> stack;
  stack.clear();
  stack.reserve(64);
  stack.push_back({st.root_idx(), 0, 0, 0, kNoIdx, kNoIdx});
  std::int64_t ret = 0;  // value "returned" by the frame just popped (or by
                         // an absent child, which contributes 0 in place)

  while (!stack.empty()) {
    if (!keep_going()) return false;
    Frame& f = stack.back();  // pushes below re-read the reference
    switch (f.stage) {
      case 0: {
        const std::int64_t s = st.size_of(f.node);
        if (s > 0) {  // someone already summed this whole subtree
          ret = s;
          stack.pop_back();
          break;
        }
        f.small = st.child_of(f.node, kSmall);
        f.big = st.child_of(f.node, kBig);
        if (f.small == kNoIdx && f.big == kNoIdx) {  // leaf fast path
          st.set_size(f.node, 1);
          ret = 1;
          stack.pop_back();
          break;
        }
        f.stage = 1;
        const Side first = spread_side(pid, f.depth);
        const std::int64_t c = first == kSmall ? f.small : f.big;
        if (c == kNoIdx) {
          ret = 0;  // absent child: fall through to stage 1 with sum 0
          break;
        }
        const std::uint32_t d = f.depth + 1;
        st.prefetch(c);
        stack.push_back({c, d, 0, 0, kNoIdx, kNoIdx});
        break;
      }
      case 1: {
        f.first_sum = ret;
        f.stage = 2;
        const Side second = other(spread_side(pid, f.depth));
        const std::int64_t c = second == kSmall ? f.small : f.big;
        if (c == kNoIdx) {
          ret = 0;
          break;
        }
        const std::uint32_t d = f.depth + 1;
        st.prefetch(c);
        stack.push_back({c, d, 0, 0, kNoIdx, kNoIdx});
        break;
      }
      default: {
        const std::int64_t total = f.first_sum + ret + 1;
        st.set_size(f.node, total);
        ret = total;
        stack.pop_back();
        break;
      }
    }
  }
  return true;
}

// Sequential block placement: emit the whole subtree under `node` (whose
// `sub` elements precede it) by one in-order walk, assigning consecutive
// ranks.  `scratch` is the caller's reusable stack.  All writes are
// idempotent — every walker of the same block computes identical values.
template <typename Key, typename Compare, typename Check>
bool place_block(TreeState<Key, Compare>& st, std::int64_t node, std::int64_t sub,
                 std::vector<std::int64_t>& scratch, Check&& keep_going) {
  scratch.clear();
  std::int64_t rank = sub;
  std::int64_t cur = node;
  while (cur != kNoIdx || !scratch.empty()) {
    while (cur != kNoIdx) {
      scratch.push_back(cur);
      cur = st.child_of(cur, kSmall);
      if (cur != kNoIdx) st.prefetch(cur);
    }
    cur = scratch.back();
    scratch.pop_back();
    if (!keep_going()) return false;
    st.emit(cur, ++rank);
    cur = st.child_of(cur, kBig);
  }
  return true;
}

// Sequential block placement, sort-based: gather the subtree's (key, index)
// pairs into contiguous scratch with a traversal that prefetches BOTH
// children (independent misses overlap, unlike place_block's dependent
// in-order chain), sort them with leaf_sort, and emit consecutive ranks in
// one streaming pass.  The comparator is TreeState::less verbatim (key by
// Compare, index breaks ties), so the emitted ranks are identical to
// place_block's — the tree already encodes this order; the sort just
// recomputes it from cache-friendly memory.  All writes are idempotent.
// `keep_going` is polled once per gathered node and once per emitted
// element; the sort between them is bounded local work on private scratch.
template <typename Key, typename Compare, typename Check>
bool sort_block(TreeState<Key, Compare>& st, std::int64_t node, std::int64_t sub,
                std::vector<LeafItem<Key>>& items,
                std::vector<std::int64_t>& scratch, LeafSortTally& tally,
                Check&& keep_going) {
  items.clear();
  scratch.clear();
  scratch.push_back(node);
  while (!scratch.empty()) {
    const std::int64_t cur = scratch.back();
    scratch.pop_back();
    if (!keep_going()) return false;
    items.push_back({st.key_of(cur), cur});
    const std::int64_t small = st.child_of(cur, kSmall);
    const std::int64_t big = st.child_of(cur, kBig);
    if (small != kNoIdx) {
      st.prefetch(small);
      scratch.push_back(small);
    }
    if (big != kNoIdx) {
      st.prefetch(big);
      scratch.push_back(big);
    }
  }
  leaf_sort(items.data(), items.data() + items.size(),
            LeafItemLess<Key, Compare>{st.cmp}, &tally);
  std::int64_t rank = sub;
  for (const LeafItem<Key>& it : items) {
    if (!keep_going()) return false;
    st.emit(it.idx, ++rank);
  }
  return true;
}

// Phase 3 with output emission: place every element and store it into
// st.out at its final rank, pruning subtrees whose completion flag is set.
// Subtrees of at most `seq_cutoff` elements are handled by sort_block (0
// disables the cutoff).
template <typename Key, typename Compare, typename Check,
          typename Tel = std::nullptr_t>
bool find_place_emit(TreeState<Key, Compare>& st, std::uint32_t pid,
                     std::uint64_t seq_cutoff, Check&& keep_going, Tel tel = nullptr) {
  constexpr bool kTel = telemetry::kTelEnabled<Tel>;
  if (st.n() == 0) return true;
  struct Frame {
    std::int64_t node;
    std::int64_t sub;  // elements known to precede this subtree
    std::uint32_t depth;
    std::uint8_t stage;  // 1 = post-frame: both children complete
  };
  // thread_local for the same reason as tree_sum's stack: steady-state
  // pooled runs reuse the worker's warmed-up capacity instead of
  // reallocating per run.
  static thread_local std::vector<Frame> stack;
  static thread_local std::vector<std::int64_t> scratch;
  static thread_local std::vector<LeafItem<Key>> items;
  stack.clear();
  stack.reserve(96);
  scratch.clear();
  items.clear();
  if (seq_cutoff != 0) {
    const std::size_t cap = static_cast<std::size_t>(
        std::min<std::uint64_t>(seq_cutoff, static_cast<std::uint64_t>(st.n())));
    scratch.reserve(cap);
    items.reserve(cap);
  }
  stack.push_back({st.root_idx(), 0, 0, 0});

  while (!stack.empty()) {
    if (!keep_going()) return false;
    const Frame f = stack.back();
    if (f.stage == 1) {  // post-frame: whole subtree below is placed
      st.mark_place_done(f.node);
      stack.pop_back();
      continue;
    }
    if (st.place_done_of(f.node)) {
      stack.pop_back();
      continue;
    }

    if (seq_cutoff != 0 &&
        static_cast<std::uint64_t>(st.size_of(f.node)) <= seq_cutoff) {
      LeafSortTally lt;
      if (!sort_block(st, f.node, f.sub, items, scratch, lt, keep_going)) {
        return false;
      }
      [[maybe_unused]] const bool claimed = st.try_claim_place_done(f.node);
      if constexpr (kTel) {
        if (tel != nullptr && tel->detail) {
          tel->count(telemetry::Counter::kSeqBlocks);
          tel->count(telemetry::Counter::kSeqBlockElems,
                     static_cast<std::uint64_t>(st.size_of(f.node)));
          // A lost completion-flag CAS means another worker already walked
          // this block: the walk just performed was duplicated work.
          if (!claimed) tel->count(telemetry::Counter::kSeqBlockRepeats);
          tel->count(telemetry::Counter::kLeafBlocks, lt.blocks);
          tel->count(telemetry::Counter::kLeafInsertionSorts, lt.insertion_sorts);
          tel->count(telemetry::Counter::kLeafHeapsorts, lt.heapsorts);
          tel->count(telemetry::Counter::kPartitionSwaps, lt.partition_swaps);
          // Flight event per sequential block: value = subtree root,
          // a32 = block size, a8 = 1 when the walk was a duplicate.
          tel->emit(telemetry::FlightKind::kLeafBlock, claimed ? 0 : 1,
                    static_cast<std::uint32_t>(st.size_of(f.node)),
                    static_cast<std::uint64_t>(f.node));
        }
      }
      stack.pop_back();
      continue;
    }

    const std::int64_t small = st.child_of(f.node, kSmall);
    const std::int64_t big = st.child_of(f.node, kBig);
    const std::int64_t s = st.size_of(small);
    st.emit(f.node, f.sub + s + 1);

    if (small == kNoIdx && big == kNoIdx) {  // leaf fast path (cutoff disabled)
      st.mark_place_done(f.node);
      stack.pop_back();
      continue;
    }
    stack.back().stage = 1;  // revisit after the children to mark done
    const Frame fs{small, f.sub, f.depth + 1, 0};
    const Frame fb{big, f.sub + s + 1, f.depth + 1, 0};
    // LIFO stack: push the child to be visited *second* first; absent
    // children get no frame at all.
    if (spread_side(pid, f.depth) == kSmall) {
      if (big != kNoIdx) stack.push_back(fb);
      if (small != kNoIdx) stack.push_back(fs);
    } else {
      if (small != kNoIdx) stack.push_back(fs);
      if (big != kNoIdx) stack.push_back(fb);
    }
  }
  return true;
}

}  // namespace wfsort::detail
