// Telemetry data model — the cross-substrate observability layer's types.
//
// The paper's quantitative claims (O(N log N / P) time, O(sqrt P)
// contention, the per-processor own-step bound) are only debuggable when a
// run can say where its time and its memory traffic went.  The PRAM
// simulator always could (pram::Metrics); this header gives the *native*
// engine the same vocabulary: per-worker, per-phase wall-time spans,
// log2-bucketed histograms of per-element work, and named counters that
// attribute contention to the site that caused it.  One Report is the
// finished, immutable snapshot of one run; docs/observability.md documents
// the JSON schema it exports through telemetry/schema.h.
//
// Everything here is plain data — no clocks, no atomics, no engine types —
// so the report can be held by SortStats, serialized by tools, and asserted
// on by tests without dragging the engine in.  Recording lives in
// telemetry/recorder.h.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/ring.h"
#include "telemetry/sketch.h"

namespace wfsort::telemetry {

// How much a run records.
//   kOff    — nothing (default): no Recorder, and the engine runs its
//             untraced worker program.  A caller that asks for SortStats
//             still gets a kPhases Report, since SortStats is read off it.
//   kPhases — per-worker, per-phase wall-time spans (two steady_clock reads
//             per phase per worker) plus the run counters SortStats reports:
//             CAS installs and failures, build iterations, fat-tree misses,
//             each written once per phase from the worker's own tally.
//   kFull   — adds histograms, the remaining per-site contention counters
//             and flight-recorder bursts.
enum class Level : std::uint8_t { kOff = 0, kPhases = 1, kFull = 2 };

const char* level_name(Level level);
bool parse_level(const std::string& name, Level* out);

// Phases a native worker moves through.  The deterministic variant uses
// kBuild/kSum/kPlace (the paper's phases 1-3); the low-contention variant
// replaces kBuild with its stages A-E and shares kSum/kPlace for the
// randomized summation and placement.  kCopyBack is the post-phase output
// chunk copying finished workers help with.
enum class PhaseId : std::uint8_t {
  kBuild = 0,     // phase 1: WAT-allocated pivot-tree construction
  kSum,           // phase 2: subtree summation
  kPlace,         // phase 3: placement + output emission
  kCopyBack,      // finished workers copying output chunks to the caller
  kLcPresort,     // LC stage A: group pre-sort of one slice
  kLcWinner,      // LC stage B: winner-tree competition
  kLcSortedIdx,   // LC stage C: reconstructing the winner's sorted order
  kLcFatten,      // LC stage D: write-most fat-tree fill + tree stitching
  kLcInsert,      // LC stage E: LC-WAT randomized insertion of the rest
  kPartClassify,  // partition phase 1a: chunk histograms vs splitters
  kPartScatter,   // partition phase 1b: scatter into bucket regions
  kPartSort,      // partition phase 1c: per-bucket leaf sort + emission
  kPhaseCount
};
inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(PhaseId::kPhaseCount);

const char* phase_name(PhaseId phase);

// Named event counters.  The first group attributes native memory-contention
// events to the shared structure that absorbed them; the rest account for
// work-allocation and cutoff behavior.
enum class Counter : std::uint8_t {
  kCasInstalls = 0,   // successful child-slot install CASes (phase 1)
  kCasFailures,       // install CASes lost to another worker (phase 1)
  kBuildIters,        // Figure-4 loop iterations over all inserted elements
  kWatClaims,         // job leaves this worker claimed (WAT or LC-WAT)
  kWatProbes,         // WAT tree nodes visited / LC-WAT random probes
  kFatHits,           // fat-tree reads served by a filled copy
  kFatMisses,         // fat-tree reads that fell back to the winner slice
  kSeqBlocks,         // place_block cutoff walks this worker performed
  kSeqBlockElems,     // elements emitted by those walks
  kSeqBlockRepeats,   // walks that lost the completion-flag CAS (duplicated work)
  kLcProbes,          // LC sum/place uniform random probes (stages F-G)
  kLcBurstVisits,     // nodes visited by LC probe bursts (stages F-G)
  kBackoffSpins,      // pause iterations spent in stage-E CAS backoff
  kLeafBlocks,        // leaf blocks this worker handled: cutoff blocks + buckets,
                      // a bucket skipped as presorted included
  kLeafInsertionSorts,  // leaf_sort ranges finished by insertion sort
  kLeafHeapsorts,     // leaf_sort bad-pivot heapsort fallbacks taken
  kPartitionSwaps,    // element swaps performed by leaf_sort partitions
  kSplitterSamples,   // elements sampled to build partition splitters
  kCounterCount
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCounterCount);

const char* counter_name(Counter counter);

// Log2-bucketed histogram: bucket 0 holds value 0, bucket b >= 1 holds
// values in [2^(b-1), 2^b).  32 buckets cover the full uint64 range the
// engine can produce; adds are two array ops, cheap enough for per-element
// recording at Level::kFull.
struct LogHistogram {
  static constexpr std::size_t kBuckets = 32;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;  // number of samples
  std::uint64_t sum = 0;    // sum of sample values
  std::uint64_t max = 0;    // largest sample

  void add(std::uint64_t value) {
    const std::size_t b =
        std::min<std::size_t>(std::bit_width(value), kBuckets - 1);
    ++counts[b];
    ++total;
    sum += value;
    if (value > max) max = value;
  }

  void merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts[b] += other.counts[b];
    total += other.total;
    sum += other.sum;
    if (other.max > max) max = other.max;
  }

  double mean() const {
    return total == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(total);
  }
  // Largest bucket index with a nonzero count (0 when empty) — the exported
  // bucket array is trimmed to this.
  std::size_t max_nonzero_bucket() const;
};

// One phase executed by one worker.  Times are microseconds since the run's
// start (the Recorder's construction), so spans from different workers share
// one timeline — exactly what the Chrome-trace exporter needs.
struct Span {
  PhaseId phase = PhaseId::kBuild;
  std::uint32_t tid = 0;
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;

  std::uint64_t duration_us() const { return end_us - begin_us; }
};

// Everything one worker recorded.  A span list ordered by begin time (each
// worker's phases are sequential), counters, and the two per-element
// histograms: lost install CASes per inserted element (contention depth) and
// work-allocation probes per claimed job.
struct WorkerReport {
  std::uint32_t tid = 0;
  bool crashed = false;  // the fault plan aborted this worker mid-phase
  std::vector<Span> spans;
  std::array<std::uint64_t, kCounterCount> counters{};
  std::uint64_t max_build_iters = 0;  // longest single insertion (Lemma 2.4)
  std::uint64_t tree_depth = 0;       // deepest pivot-tree element it finished
  LogHistogram cas_retries;
  LogHistogram wat_probes;
  // The worker's frozen flight-recorder window (its last ring_total events,
  // truncated to the ring capacity) — the crash post-mortem payload.
  std::vector<FlightEvent> ring;
  std::uint64_t ring_total = 0;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

// The immutable snapshot of one run, built after the workers joined.
struct Report {
  Level level = Level::kOff;
  std::uint64_t wall_us = 0;  // run start to snapshot
  std::vector<WorkerReport> workers;

  std::uint64_t counter_total(Counter c) const;
  std::uint64_t max_build_iters() const;
  std::uint64_t tree_depth() const;  // 0 for a run without a pivot tree
  std::uint32_t crashed_workers() const;
  LogHistogram merged_cas_retries() const;
  LogHistogram merged_wat_probes() const;
  // Longest single-worker span of `phase` in milliseconds (the phase's
  // critical path), 0 when no worker recorded it.
  double phase_max_ms(PhaseId phase) const;
  // Phases at least one worker recorded, in enum order.
  std::vector<PhaseId> phases_present() const;
  // Latency sketch over every recorded span of `phase` (one sample per
  // worker-span, microseconds) — the p50/p99/p999 source for the exported
  // "sketches" section.
  LatencySketch phase_sketch(PhaseId phase) const;
};

}  // namespace wfsort::telemetry
