// Public configuration and statistics types of the wait-free sorter.
//
// No Options combination may return a wrong answer, so phase 3's pruning
// rule is not a knob: the native engine always prunes on the bottom-up
// completion flag (sum_place_phase.h).  The paper's place > 0 rule lives on
// only in the simulator (sim::PlacePrune), for E12a and `wfsort hunt`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "telemetry/recorder.h"
#include "telemetry/report.h"

namespace wfsort {

enum class Variant {
  // Section 2: WAT work allocation, direct pivot-tree construction.
  // Optimal time; the root of the pivot tree is an O(P) hot-spot.
  kDeterministic,
  // Section 3: randomized low-contention construction — group pre-sort,
  // winner selection, fat pivot-tree top filled by write-most, LC-WAT-style
  // randomized summation/placement.  O(sqrt P) contention w.h.p.
  kLowContention,
};

// How the deterministic variant turns the unsorted input into placeable
// structure (phase 1).
//
// kTree is the paper's CAS pivot-tree insertion: optimal own-step bound,
// but every element pays a root-to-leaf pointer chase with a CAS at the
// end — the dominant cost of the sequential gap vs std::sort.  Each WAT job
// inserts a bit-reversed stripe of at most wat_batch elements spread over
// the whole input (not a run of adjacent indices), so sorted, reversed,
// organ-pipe and few-distinct inputs build a tree of depth ~log2 N rather
// than an N-deep chain; the order is a fixed function of (N, wat_batch).
//
// kPartition replaces the tree with a blocked in-place parallel partition
// (Kuszmaul–Westover style blocks against SPMS-style sampled splitters):
// WAT-claimed chunks are histogrammed against deterministic splitters,
// scattered into per-bucket regions, and each bucket is finished with the
// sequential leaf sort — three linear passes of streaming work instead of
// N log N cache-missing descents.  Work allocation and crash recovery stay
// on the batched WAT for all three passes, so the 14·N·log2(N) own-step
// certificate holds on this variant too (test_waitfree_cert), and the
// output order (key, then index) is identical to kTree's.  The
// low-contention variant ignores this knob.  docs/native_engine.md
// "Closing the gap" has the diagram and measurements.
enum class Phase1 { kTree, kPartition };

struct Options {
  // Workers of a run, 0 = std::thread::hardware_concurrency().  The caller
  // is worker 0; the others get threads of their own (SortPool: its parked
  // ones).  A fault-free run below kCallerOnlyCutoff (sort.h, 2^13) has
  // the caller alone, whatever this says; a fault plan always gets them all.
  std::uint32_t threads = 0;
  Variant variant = Variant::kDeterministic;
  Phase1 phase1 = Phase1::kTree;
  std::uint64_t seed = 0x50535a97ULL;  // randomized-variant randomness

  // Low-contention variant: duplicates per fat-tree node (0 = automatic,
  // ~sqrt(threads)).  More copies divide top-level read pressure further at
  // the cost of more write-most traffic.
  std::uint32_t lc_copies = 0;

  // Phase-1 job batching — the paper's K in Lemma 2.7 (O(N/P (log N + K))
  // work allocation): each WAT leaf hands out a stripe of at most this many
  // elements (indices s, s+J, s+2J, ... for J = next_pow2(ceil(N / K))
  // jobs), so one WAT traversal is amortized over the stripe and its
  // descents are interleaved with prefetching (build_batch).  1 = one element
  // per WAT traversal.  Default measured on the tracked bench host
  // (docs/native_engine.md).
  std::uint32_t wat_batch = 32;

  // Phase-3 sequential cutoff: a subtree of at most this many elements is
  // placed and emitted by one local in-order walk (streaming writes, no
  // per-node frames or completion flags) by whichever worker reaches it
  // first; the block's completion flag is published only after the walk, so
  // duplicated or crashed walkers are harmless and nobody waits (the walk is
  // idempotent).  0 disables.  Default measured (docs/native_engine.md).
  std::uint64_t seq_cutoff = 128;

  // Low-contention variant: node budget for one randomized summation /
  // placement probe.  A probe that lands on actionable work expands it into
  // a bounded local tree walk of at most this many node visits instead of
  // returning to uniform probing after a single node — the walk stays
  // idempotent and every visit still polls the fault checkpoint, so
  // wait-freedom is untouched.  1 = the paper's literal one-node probes.
  std::uint32_t lc_burst = 64;

  // Low-contention variant: bounded exponential backoff on a lost install
  // CAS during stage-E insertion.  A descent that loses its k-th CAS spins
  // min(2^k, 2^backoff_limit) pause iterations before re-probing, keeping
  // repeat losers off the contended line.  0 disables (the deterministic
  // variant never backs off: its loss rate is the measurement).
  std::uint32_t backoff_limit = 6;

  // Observability (docs/observability.md).  kOff — the default — records
  // nothing unless the caller asks for SortStats, which are read off a
  // kPhases Report; kPhases records per-worker, per-phase wall-time spans and
  // the run counters; kFull adds per-site contention counters and
  // per-element CAS-retry / WAT-probe histograms, accumulated in per-worker
  // scratch.  The finished report hangs off SortStats.
  telemetry::Level telemetry = telemetry::Level::kOff;

  // Flight-recorder depth: events retained per worker ring (rounded up to a
  // power of two internally; exact logical window).  Only meaningful when
  // telemetry != kOff — a kOff run has no rings, even when it records for
  // SortStats.  0 disables the rings while keeping spans/counters.
  std::uint32_t ring_capacity = telemetry::Recorder::kDefaultRingCapacity;

  // Live monitor (docs/observability.md): when `monitor_interval_ms` > 0 and
  // `monitor_path` is non-empty, the sort runs a sampler thread that reads
  // the flight-recorder rings every interval and appends one
  // "wfsort-monitor-v1" JSONL session to the file.  The sampler only ever
  // touches the rings' seqlock snapshots — workers never block on it.
  // Requires telemetry != kOff.
  std::uint32_t monitor_interval_ms = 0;
  std::string monitor_path{};

  std::uint32_t resolved_threads() const {
    if (threads != 0) return threads;
    // hardware_concurrency() can cost a syscall on some libstdc++ builds;
    // the machine shape doesn't change mid-process, so resolve it once.
    static const std::uint32_t hw = [] {
      const unsigned v = std::thread::hardware_concurrency();
      return v == 0 ? 1u : static_cast<std::uint32_t>(v);
    }();
    return hw;
  }
};

// Per-run diagnostics, filled after the workers join.  Apart from n and
// completed_workers, every field is read off the run's telemetry Report
// (asking for SortStats makes a run record at least Level::kPhases), so a
// counter is zero when no Report exists, i.e. N <= 1.  Phase times are in
// the Report: telemetry->phase_max_ms(PhaseId).
struct SortStats {
  std::uint64_t n = 0;
  // Workers that ran: the run's width (1 for a fault-free call below
  // kCallerOnlyCutoff, else `threads`; sort.h's run_width), less any id a
  // pooled run's parked threads had not claimed when the sort was done.
  // Every one of them completed or crashed: workers = completed + crashed.
  std::uint32_t workers = 0;
  std::uint32_t crashed_workers = 0;    // fault-injected exits
  std::uint32_t completed_workers = 0;  // workers that ran all phases

  // Lemma 2.4: the build_tree loop runs at most N-1 times per element.
  std::uint64_t max_build_iters = 0;
  std::uint64_t total_build_iters = 0;

  // Depth of the Quicksort pivot tree (O(log N) w.h.p. on random input;
  // root = 1), recorded by phase 1 as it goes (BuildTally::max_depth), not
  // walked.  0 for Phase1::kPartition runs, which build no tree, and N <= 1.
  std::uint32_t tree_depth = 0;

  // Install CASes that returned false during tree building, i.e. lost to
  // another worker (phase-1 memory contention; 0 on a one-thread run), and
  // the successful installs they raced against (N-1 on a completed det-tree
  // run: one install per non-root element; the low-contention variant adds
  // its group pre-sorts' installs).  Occupied-slot hops are not failures:
  // they number total_build_iters - cas_successes.
  std::uint64_t cas_failures = 0;
  std::uint64_t cas_successes = 0;

  // Low-contention variant: fat-tree reads that hit an unfilled copy and
  // fell back to the authoritative slice (see FatTree::read).
  std::uint64_t fat_read_misses = 0;

  // The run's telemetry snapshot, taken after the workers join: null only
  // for N <= 1 (and while a SortSession is still live).  Its level is
  // Options::telemetry, or kPhases when that was kOff.  Shared so SortStats
  // stays copyable.
  std::shared_ptr<const telemetry::Report> telemetry;
};

}  // namespace wfsort
