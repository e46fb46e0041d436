// Phase 1 — building the Quicksort pivot tree (paper Figure 4).
//
// Every element is inserted by walking from the root and CASing itself into
// the first EMPTY child slot on its (deterministic) search path.  Facts 1-6
// of the paper make this wait-free with at most N-1 loop iterations
// (Lemma 2.4): child pointers are written once and never change, so
// processors working on the same element follow the same path, exactly one
// CAS per element ever succeeds, and a processor that finds its own element
// already installed simply stops.
//
// Two hot-path refinements over the literal Figure 4 (semantics unchanged,
// iteration counts identical):
//   * the child slot is LOADED before any CAS is attempted, so occupied
//     slots — the overwhelmingly common case on a deep descent — cost a
//     shared cache-line read instead of an RMW bus transaction;
//   * build_batch() runs several independent descents interleaved, one step
//     each in stripe order, prefetching every descent's next node record.
//     Descents of distinct elements never depend on each other, so this
//     only overlaps their cache misses (memory-level parallelism); each
//     element still walks exactly the path Figure 4 assigns it.
//
// Insertion order.  Figure 4 leaves the order open: a processor inserts
// whatever elements the WAT hands it.  The engine hands out bit-reversed
// stripes (StripedJobs in common/bits.h), not runs of adjacent indices, so
// presorted, reversed, organ-pipe and few-distinct inputs build a tree of
// depth ~log2 N instead of an N-deep chain (docs/native_engine.md,
// "Insertion order").  Only the job-to-element map moved; the loop is the
// paper's.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/bits.h"
#include "core/detail/tree_state.h"
#include "telemetry/recorder.h"

namespace wfsort::detail {

// Flight-recorder threshold: an element that loses at least this many
// install CASes during its descent gets a kCasFailBurst event (value = the
// element, a32 = the loss count) — the per-element signature of a root
// hot-spot, visible in `wfsort report` without wading through histograms.
inline constexpr std::uint64_t kCasBurstThreshold = 8;

struct BuildResult {
  std::uint64_t iterations = 0;    // trips around the Figure-4 loop
  std::uint64_t cas_failures = 0;  // install CASes that returned false (lost a race)
  std::uint64_t installs = 0;      // successful installing CASes (0 or 1)
};

// Per-worker phase-1 accumulator: the engine writes it into the worker's
// telemetry scratch once per phase (Engine::flush_build), where the run's
// Report, and SortStats with it, read the counts.
// An element whose descent starts at depth `start_depth` (1 = root) sits at
// start_depth + iterations; links are write-once, so the maximum over the
// run's tallies is the tree's depth without a walk.
struct BuildTally {
  std::uint64_t iterations = 0;
  std::uint64_t cas_failures = 0;
  std::uint64_t max_iterations = 0;
  std::uint64_t installs = 0;
  std::uint64_t backoff_spins = 0;  // pause iterations spent backing off
  std::uint64_t max_depth = 0;      // deepest finished element

  void add(const BuildResult& r, std::uint64_t start_depth) {
    iterations += r.iterations;
    cas_failures += r.cas_failures;
    installs += r.installs;
    if (r.iterations > max_iterations) max_iterations = r.iterations;
    if (start_depth + r.iterations > max_depth) max_depth = start_depth + r.iterations;
  }
};

// Level::kFull detail of one finished descent: its lost-CAS histogram
// sample (`cas_retries`) and, past the threshold, a flight-recorder burst
// event.
inline void record_descent(telemetry::WorkerScratch* tel, std::int64_t elem,
                           std::uint64_t fails) {
  tel->rep.cas_retries.add(fails);
  if (fails >= kCasBurstThreshold) {
    tel->emit(telemetry::FlightKind::kCasFailBurst, 0,
              static_cast<std::uint32_t>(fails), static_cast<std::uint64_t>(elem));
  }
}

// Insert element `i` starting the descent at `start_parent` (the pivot-tree
// root for the plain algorithm; the fat-tree handoff point for the
// low-contention variant).
template <typename Key, typename Compare>
BuildResult build_from(TreeState<Key, Compare>& st, std::int64_t i,
                       std::int64_t start_parent) {
  BuildResult r;
  std::int64_t parent = start_parent;
  while (true) {
    ++r.iterations;
    WFSORT_DCHECK(r.iterations <= static_cast<std::uint64_t>(st.n()));  // Lemma 2.4
    const Side side = st.descend_side(i, parent);
    // Probe first (paper line 15 re-read, hoisted): only an EMPTY slot is
    // worth an RMW.
    std::int64_t c = st.child_of(parent, side);
    if (c == kNoIdx) {
      if (st.try_install(parent, side, i, c)) {
        r.installs = 1;
        return r;
      }
      ++r.cas_failures;  // some processor won the slot concurrently: c is it
    }
    WFSORT_DCHECK(c != kNoIdx);
    if (c == i) return r;
    parent = c;
  }
}

// Plain Figure-4 entry point: element 0 is the first pivot and is never
// inserted (it *is* the root).
template <typename Key, typename Compare>
BuildResult build_one(TreeState<Key, Compare>& st, std::int64_t i) {
  const std::int64_t r0 = st.root_idx();
  if (i == r0) return {};
  return build_from(st, i, r0);
}

// Insert the elements of `stripe` — one WAT job — with up to kBuildLanes
// descents in flight, stepped round-robin.  When two in-flight elements race
// for the same empty slot, the one later in the stripe's order stalls until
// the earlier one has had its CAS (smaller_rival below), so a single worker
// produces exactly the tree that build_one over the stripe's order would
// have produced sequentially: batching changes the timing, never the shape.
// `keep_going` is polled once per completed element (the engine's fault
// checkpoint granularity); returns false if the worker was aborted.
//
// Sixteen lanes: a hop at 2^20 waits on one random access into the 32 MiB
// record array (~155 ns on a 4-vCPU Xeon).  A step has no branch on the
// compare, so a mispredict never discards the other lanes' loads, and a
// t = 1 build hop costs ~18 ns: about nine misses overlap
// (docs/native_engine.md, "Branch-free descent").
inline constexpr int kBuildLanes = 16;

template <typename Key, typename Compare, typename Check,
          typename Tel = std::nullptr_t>
bool build_batch(TreeState<Key, Compare>& st, Stripe stripe, BuildTally& tally,
                 Check&& keep_going, Tel tel = nullptr) {
  constexpr bool kTel = telemetry::kTelEnabled<Tel>;
  struct Lane {
    std::int64_t elem;
    std::int64_t parent;
    std::uint64_t iterations;
    // A 32-bit pair keeps a lane at 32 bytes (a 48-byte lane cost ~5% of
    // phase 1 at N = 2^14, t = 4 on a 4-vCPU Xeon).  pos < wat_batch < 2^32;
    // fails stays below `iterations`.
    std::uint32_t fails;  // lost install CASes, tallied when the element completes
    std::uint32_t pos;    // position in the stripe's order (decides slot races)
  };
  [[maybe_unused]] bool tel_detail = false;
  if constexpr (kTel) tel_detail = tel != nullptr && tel->detail;
  Lane lanes[kBuildLanes];
  int active = 0;
  const std::int64_t root = st.root_idx();
  std::uint32_t issued = 0;
  // The stripe's next element, read one refill ahead so that its record
  // (a stripe's elements lie far apart) is prefetched before its key is.
  std::uint64_t ahead = 0;
  bool have_ahead = stripe.next(ahead);
  if (have_ahead) st.prefetch(static_cast<std::int64_t>(ahead));

  const auto refill = [&](int slot) {
    while (have_ahead) {
      const auto i = static_cast<std::int64_t>(ahead);
      have_ahead = stripe.next(ahead);
      if (have_ahead) st.prefetch(static_cast<std::int64_t>(ahead));
      if (i == root) continue;  // the root is never inserted
      lanes[slot] = {i, root, 0, 0, issued++};
      st.prefetch(root);
      return true;
    }
    return false;
  };

  for (int l = 0; l < kBuildLanes; ++l) {
    if (!refill(active)) break;
    ++active;
  }

  // True if some other in-flight lane holds an element EARLIER in the
  // stripe's order aimed at the same empty slot.  The earlier element must
  // win the slot (as it would have sequentially), so the caller stalls this
  // lane for the round.  Any two in-flight competitors for one slot are
  // necessarily at the same parent already: on a shared path the earlier
  // element is never shallower when the later one steps.  A later lane can
  // pass a stalled earlier one within a round (it steps after the slot's
  // winner installed), but only from a higher slot, and the earlier lane
  // steps first in the next round.  So a retired lane's slot is closed up
  // in order; swapping the last lane into it could let a lane that passed
  // step before the lane it passed.
  const auto smaller_rival = [&](int l, const Lane& ln, Side side) {
    for (int k = 0; k < active; ++k) {
      if (k == l || lanes[k].pos >= ln.pos || lanes[k].parent != ln.parent) continue;
      if (st.descend_side(lanes[k].elem, ln.parent) == side) return true;
    }
    return false;
  };

  while (active > 0) {
    for (int l = 0; l < active;) {
      Lane& ln = lanes[l];
      const Side side = st.descend_side(ln.elem, ln.parent);
      std::int64_t c = st.child_of(ln.parent, side);
      bool installed = false;
      if (c == kNoIdx) {
        if (smaller_rival(l, ln, side)) {
          ++l;  // stall: re-probe next round, after the rival's CAS
          continue;
        }
        installed = st.try_install(ln.parent, side, ln.elem, c);
        if (!installed) ++ln.fails;
      }
      ++ln.iterations;
      WFSORT_DCHECK(ln.iterations <= static_cast<std::uint64_t>(st.n()));
      if (installed || c == ln.elem) {
        tally.add({ln.iterations, ln.fails, installed ? 1u : 0u}, /*start_depth=*/1);
        if constexpr (kTel) {
          if (tel_detail) record_descent(tel, ln.elem, ln.fails);
        }
        if (!keep_going()) {
          // Aborted mid-batch: the still-in-flight lanes' lost CASes happened
          // too (slot l was already added above).
          for (int k = 0; k < active; ++k) {
            if (k != l) tally.cas_failures += lanes[k].fails;
          }
          return false;
        }
        if (!refill(l)) {  // retire the lane, keeping the others' order
          std::copy(lanes + l + 1, lanes + active, lanes + l);
          --active;
        }
        continue;  // the new occupant of slot l steps next
      }
      ln.parent = c;
      st.prefetch(c);  // overlap this miss with the other lanes' steps
      ++l;
    }
  }
  return true;
}

// One PAUSE-class spin (x86 `pause`, arm `yield`): tells the core we are in
// a spin-wait so it releases pipeline resources without yielding the OS
// thread — yielding would forfeit wait-freedom accounting (the spin is a
// bounded number of *own* steps; a syscall sleep is not a step at all).
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Bounded exponential backoff schedule: the k-th lost install CAS costs
// min(2^k, 2^limit) pause iterations; limit = 0 disables backoff entirely.
// The bound keeps the delay a constant number of own steps, so the Lemma 2.4
// wait-freedom argument is unchanged — backoff only spaces retries out, it
// never waits *for* anybody.
inline std::uint32_t backoff_spins(std::uint32_t attempt, std::uint32_t limit) {
  if (attempt == 0 || limit == 0) return 0;
  return 1u << (attempt < limit ? attempt : limit);
}

// Insert `count` (<= kBuildLanes) elements, element k descending from its
// own start parent `parents[k]` — the low-contention stage-E form, where
// each element enters the pivot tree at its fat-tree handoff point rather
// than the root.  Descents are stepped round-robin with prefetch like
// build_batch, but there is no smaller-rival stall: LC descents start at
// unrelated interior nodes, so no sequential-equivalence shape claim exists
// to preserve (the LC tree is randomized by construction).  A lane that
// loses an install CAS backs off exponentially (bounded by `backoff_limit`)
// before re-probing, keeping repeat losers off the contended line.  Every
// start parent sits at depth `start_depth` (the fat-tree leaves).
template <typename Key, typename Compare, typename Check,
          typename Tel = std::nullptr_t>
bool build_lanes(TreeState<Key, Compare>& st, const std::int64_t* elems,
                 const std::int64_t* parents, int count, std::uint64_t start_depth,
                 std::uint32_t backoff_limit, BuildTally& tally,
                 Check&& keep_going, Tel tel = nullptr) {
  constexpr bool kTel = telemetry::kTelEnabled<Tel>;
  struct Lane {
    std::int64_t elem;
    std::int64_t parent;
    std::uint64_t iterations;
    std::uint32_t lost;  // lost install CASes (tallied; drives the backoff schedule)
  };
  [[maybe_unused]] bool tel_detail = false;
  if constexpr (kTel) tel_detail = tel != nullptr && tel->detail;
  Lane lanes[kBuildLanes];
  int active = 0;
  for (int k = 0; k < count && active < kBuildLanes; ++k) {
    lanes[active++] = {elems[k], parents[k], 0, 0};
    st.prefetch(parents[k]);
  }

  while (active > 0) {
    for (int l = 0; l < active;) {
      Lane& ln = lanes[l];
      const Side side = st.descend_side(ln.elem, ln.parent);
      std::int64_t c = st.child_of(ln.parent, side);
      bool installed = false;
      if (c == kNoIdx) {
        installed = st.try_install(ln.parent, side, ln.elem, c);
        if (!installed) {
          const std::uint32_t spins = backoff_spins(++ln.lost, backoff_limit);
          for (std::uint32_t s = 0; s < spins; ++s) cpu_pause();
          tally.backoff_spins += spins;
        }
      }
      ++ln.iterations;
      WFSORT_DCHECK(ln.iterations <= static_cast<std::uint64_t>(st.n()));
      if (installed || c == ln.elem) {
        tally.add({ln.iterations, ln.lost, installed ? 1u : 0u}, start_depth);
        if constexpr (kTel) {
          if (tel_detail) record_descent(tel, ln.elem, ln.lost);
        }
        if (!keep_going()) {
          for (int k = 0; k < active; ++k) {
            if (k != l) tally.cas_failures += lanes[k].lost;
          }
          return false;
        }
        lanes[l] = lanes[--active];  // retire the lane
        continue;
      }
      ln.parent = c;
      st.prefetch(c);
      ++l;
    }
  }
  return true;
}

}  // namespace wfsort::detail
