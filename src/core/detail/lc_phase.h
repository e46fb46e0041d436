// Randomized low-contention summation and placement (paper Section 3.3).
//
// Both phases follow the LC-WAT blueprint of Figure 8, but the tree being
// probed is the Quicksort pivot tree itself: processors repeatedly pick a
// *uniformly random element* and act on it, so no element — in particular
// not the pivot root — collects the Theta(P) polling traffic of the
// deterministic traversals.
//
//   Summation:  a probed element whose children are both summed gets its
//               size written and is marked DONE (bottom-up); marking the
//               root switches to ALLDONE, which spreads back down; a
//               processor that observes ALLDONE quits.
//   Placement:  the paper's "three passes": place values are written going
//               DOWN the tree (a probe on a placed element places its
//               children), DONE propagates up once a node is placed and its
//               children are DONE, and ALLDONE spreads down again.
//
// Native fast-path refinements (docs/native_engine.md), mirroring the
// LC-WAT ones and equally bounded:
//
//   * Probe bursts: a probe that lands on actionable work expands it into a
//     bounded local walk of at most Tuning::lc_burst node visits (an
//     explicit-stack DFS — post-order for summation, place-down/mark-up for
//     placement) instead of returning to uniform probing after one node.
//     The literal paper algorithm processes one node per probe and pays a
//     coupon-collector tail of empty probes per *node*; bursts pay it per
//     *region*.  Every visit is idempotent and still polls the fault
//     checkpoint, so crash-tolerance and wait-freedom are untouched, and
//     lc_burst = 1 degenerates to the paper's exact behaviour.
//   * Full ALLDONE sweep: the processor that marks the root ALLDONE
//     immediately marks EVERY element ALLDONE (one bounded sweep of plain
//     stores), so everyone else's next probe observes the announcement
//     wherever it lands.  The paper's one-level-per-quitter down-wave is
//     kept as the crash-tolerant fallback (the sweeper may die mid-sweep).
//   * Quit on ALLDONE *anywhere*: ALLDONE is only ever derived from a
//     completed root, so observing it on any element — leaf included — is
//     proof the phase is finished.  (The pre-sweep code had to keep probing
//     past childless ALLDONE leaves to guarantee the wave kept spreading;
//     with the full sweep that would busy-loop forever instead.)
//   * Frontier fallback: after kLcStallLimit consecutive probes that found
//     nothing actionable, the next burst starts at the ROOT and descends
//     only into unfinished children — which is precisely the unfinished
//     frontier.  Pure uniform probing pays a coupon-collector tail per
//     remaining node once the actionable set shrinks (measured: ~22 probes
//     per element at N=2^20), and the placement pass additionally starts
//     with a frontier of ONE node (the root) that uniform probes need
//     expected N draws to find.  The fallback bounds root traffic instead
//     of eliminating the hot-spot bound: a worker visits the root at most
//     once per kLcStallLimit + 1 probes, and bursts randomize their descent
//     (coin-flip child order) so stalled workers fan out across the
//     frontier instead of racing down its leftmost path.
//
// Places are pushed downward from the parent rather than pulled up via
// parent pointers: a parent pointer would have to be written by the install
// CAS winner *after* its CAS, and a crash between the two writes would
// strand the element forever.  Downward propagation only ever reads
// child pointers, which are written atomically by the install itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "core/detail/tree_state.h"

namespace wfsort::detail {

enum LcMark : std::uint8_t { kLcEmpty = 0, kLcDone = 1, kLcAllDone = 2 };

// Per-phase announcement flags, one byte per element.
class LcMarks {
 public:
  explicit LcMarks(std::size_t n) : marks_(n) { init(); }

  // Pooled form: the mark bytes borrow RunArena storage.
  LcMarks(std::size_t n, RunArena& arena) : marks_(n, arena) { init(); }

  LcMark get(std::int64_t i) const {
    return static_cast<LcMark>(
        marks_[static_cast<std::size_t>(i)].load(std::memory_order_acquire));
  }
  void set(std::int64_t i, LcMark m) {
    marks_[static_cast<std::size_t>(i)].store(m, std::memory_order_release);
  }
  // The full ALLDONE sweep (run by the root-marker; idempotent).
  void set_all(LcMark m) {
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      marks_[i].store(m, std::memory_order_release);
    }
  }

 private:
  void init() {
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      marks_[i].store(kLcEmpty, std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  ArenaArray<std::atomic<std::uint8_t>> marks_;
};

// Per-worker accumulator for the randomized phases, flushed into telemetry
// (kLcProbes / kLcBurstVisits) once per stage by the engine.
struct LcProbeTally {
  std::uint64_t probes = 0;  // uniform random probes issued
  std::uint64_t visits = 0;  // burst frames processed (>= useful node work)
};

// DFS frame of a probe burst.  `expanded` distinguishes the first (top-down)
// visit of a node from its post-order (bottom-up) revisit.
struct LcBurstFrame {
  std::int64_t node;
  bool expanded;
};

// Consecutive unproductive probes before a worker falls back to descending
// from the root (see header comment).
inline constexpr int kLcStallLimit = 16;

// Randomized phase 2.  Returns false only if `keep_going` aborts the worker.
template <typename Key, typename Compare, typename Check>
bool lc_tree_sum(TreeState<Key, Compare>& st, LcMarks& marks, Rng& rng,
                 std::uint32_t burst, LcProbeTally& tally, Check&& keep_going) {
  const std::int64_t n = st.n();
  if (n == 0) return true;
  const std::uint64_t un = static_cast<std::uint64_t>(n);
  const std::uint64_t budget = burst == 0 ? 1 : burst;

  // Reused across runs so a pooled worker's steady-state probes allocate
  // nothing; run_worker is never reentrant on one thread, so the scratch
  // cannot be aliased.
  static thread_local std::vector<LcBurstFrame> stack;
  stack.clear();
  stack.reserve(static_cast<std::size_t>(budget) + 2);

  // Sum `e` if both children are summed; returns true if `e` was the root
  // (phase complete, sweep issued).
  const auto try_sum = [&](std::int64_t e) -> bool {
    const std::int64_t l = st.child_of(e, kSmall);
    const std::int64_t r = st.child_of(e, kBig);
    const bool l_done = (l == kNoIdx) || marks.get(l) != kLcEmpty;
    const bool r_done = (r == kNoIdx) || marks.get(r) != kLcEmpty;
    if (!l_done || !r_done) return false;
    st.set_size(e, st.size_of(l) + st.size_of(r) + 1);
    if (e == st.root_idx()) {
      marks.set(e, kLcAllDone);
      marks.set_all(kLcAllDone);
      return true;
    }
    marks.set(e, kLcDone);
    return false;
  };

  int stall = 0;
  while (true) {
    if (!keep_going()) return false;
    ++tally.probes;
    std::int64_t e;
    if (stall >= kLcStallLimit) {
      e = st.root_idx();  // frontier fallback: the root is EMPTY until the end
      stall = 0;
    } else {
      e = static_cast<std::int64_t>(rng.below(un));
    }
    const LcMark v = marks.get(e);

    if (v == kLcAllDone) {
      // Figure-8 fallback wave: push one level down, then quit (ALLDONE is
      // only ever derived from a completed root, so quitting is sound even
      // on a childless element).
      const std::int64_t l = st.child_of(e, kSmall);
      const std::int64_t r = st.child_of(e, kBig);
      if (l != kNoIdx) marks.set(l, kLcAllDone);
      if (r != kNoIdx) marks.set(r, kLcAllDone);
      return true;
    }
    if (v != kLcEmpty) {
      ++stall;
      continue;
    }
    stall = 0;

    // Post-order burst: sum the subtree under `e` bottom-up.  Only first
    // visits are charged against the budget; once it is spent, unexplored
    // (non-expanded) frames are discarded and the remaining post-order
    // revisits drain for free — each node pushes at most one of those, so
    // the walk stays bounded, and whatever was abandoned is idempotently
    // picked up by any later probe, by anyone.
    stack.clear();
    stack.push_back({e, false});
    std::uint64_t used = 0;
    while (!stack.empty()) {
      if (!keep_going()) return false;
      const LcBurstFrame f = stack.back();
      stack.pop_back();
      if (!f.expanded && used >= budget) continue;
      if (!f.expanded) ++used;
      if (marks.get(f.node) != kLcEmpty) continue;
      if (try_sum(f.node)) {
        tally.visits += used;
        return true;
      }
      if (!f.expanded) {
        stack.push_back({f.node, true});
        std::int64_t l = st.child_of(f.node, kSmall);
        std::int64_t r = st.child_of(f.node, kBig);
        if (rng.coin()) std::swap(l, r);  // spread racing workers out
        if (r != kNoIdx && marks.get(r) == kLcEmpty) stack.push_back({r, false});
        if (l != kNoIdx && marks.get(l) == kLcEmpty) stack.push_back({l, false});
      }
    }
    tally.visits += used;
  }
}

// Randomized phase 3 with output emission.
template <typename Key, typename Compare, typename Check>
bool lc_find_place_emit(TreeState<Key, Compare>& st, LcMarks& marks, Rng& rng,
                        std::uint32_t burst, LcProbeTally& tally,
                        Check&& keep_going) {
  const std::int64_t n = st.n();
  if (n == 0) return true;
  const std::uint64_t un = static_cast<std::uint64_t>(n);
  const std::int64_t root = st.root_idx();
  const std::uint64_t budget = burst == 0 ? 1 : burst;

  static thread_local std::vector<LcBurstFrame> stack;  // see lc_tree_sum
  stack.clear();
  stack.reserve(static_cast<std::size_t>(budget) + 2);

  // Downward rule: a placed element places its children.
  //   place(small child) = place(e) - size(small child's BIG subtree) - 1
  //   place(big child)   = place(e) + size(big child's SMALL subtree) + 1
  const auto place_children = [&](std::int64_t pl, std::int64_t l,
                                  std::int64_t r) {
    if (l != kNoIdx && st.place_of(l) == 0) {
      st.emit(l, pl - st.size_of(st.child_of(l, kBig)) - 1);
    }
    if (r != kNoIdx && st.place_of(r) == 0) {
      st.emit(r, pl + st.size_of(st.child_of(r, kSmall)) + 1);
    }
  };

  // Upward rule: placed + both children announced => announce.  Returns
  // true if `e` was the root (phase complete, sweep issued).
  const auto try_mark = [&](std::int64_t e, std::int64_t l,
                            std::int64_t r) -> bool {
    if (marks.get(e) != kLcEmpty || st.place_of(e) == 0) return false;
    const bool l_done = (l == kNoIdx) || marks.get(l) != kLcEmpty;
    const bool r_done = (r == kNoIdx) || marks.get(r) != kLcEmpty;
    if (!l_done || !r_done) return false;
    if (e == root) {
      marks.set(e, kLcAllDone);
      marks.set_all(kLcAllDone);
      return true;
    }
    marks.set(e, kLcDone);
    return false;
  };

  int stall = 0;
  while (true) {
    if (!keep_going()) return false;
    ++tally.probes;
    std::int64_t e;
    if (stall >= kLcStallLimit) {
      // Frontier fallback.  Doubly important here: the placed frontier
      // starts as just the root, which uniform probes find only after
      // expected N draws.
      e = root;
      stall = 0;
    } else {
      e = static_cast<std::int64_t>(rng.below(un));
    }
    const LcMark v = marks.get(e);

    if (v == kLcAllDone) {  // fallback wave: push one level down, quit
      const std::int64_t l = st.child_of(e, kSmall);
      const std::int64_t r = st.child_of(e, kBig);
      if (l != kNoIdx) marks.set(l, kLcAllDone);
      if (r != kNoIdx) marks.set(r, kLcAllDone);
      return true;
    }
    if (v != kLcEmpty) {
      ++stall;
      continue;
    }

    // Root rule: its place depends only on its SMALL subtree size.
    if (e == root && st.place_of(e) == 0) {
      st.emit(e, st.size_of(st.child_of(e, kSmall)) + 1);
    }
    if (st.place_of(e) == 0) {
      ++stall;
      continue;  // unreached by the down-pass yet
    }
    stall = 0;

    // Burst: place the subtree under `e` top-down and mark it DONE
    // bottom-up.  First visit of a node places its children (pre-order),
    // the revisit applies the upward mark rule (post-order).  Budget
    // accounting as in lc_tree_sum: first visits are charged, post-order
    // revisits drain for free once the budget is spent.
    stack.clear();
    stack.push_back({e, false});
    std::uint64_t used = 0;
    bool swept = false;
    while (!stack.empty()) {
      if (!keep_going()) return false;
      const LcBurstFrame f = stack.back();
      stack.pop_back();
      const std::int64_t l = st.child_of(f.node, kSmall);
      const std::int64_t r = st.child_of(f.node, kBig);
      if (!f.expanded) {
        if (used >= budget) continue;
        ++used;
        const std::int64_t pl = st.place_of(f.node);
        if (pl == 0) continue;  // raced; a later probe re-descends
        place_children(pl, l, r);
        stack.push_back({f.node, true});
        std::int64_t a = l;
        std::int64_t b = r;
        if (rng.coin()) std::swap(a, b);  // spread racing workers out
        if (b != kNoIdx && marks.get(b) == kLcEmpty) stack.push_back({b, false});
        if (a != kNoIdx && marks.get(a) == kLcEmpty) stack.push_back({a, false});
      } else if (try_mark(f.node, l, r)) {
        swept = true;
        break;
      }
    }
    tally.visits += used;
    if (swept) return true;
  }
}

}  // namespace wfsort::detail
