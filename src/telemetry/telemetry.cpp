#include "telemetry/recorder.h"
#include "telemetry/report.h"

#include <algorithm>

namespace wfsort::telemetry {

const char* level_name(Level level) {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kPhases: return "phases";
    case Level::kFull: return "full";
  }
  return "?";
}

bool parse_level(const std::string& name, Level* out) {
  if (name == "off") *out = Level::kOff;
  else if (name == "phases") *out = Level::kPhases;
  else if (name == "full") *out = Level::kFull;
  else return false;
  return true;
}

const char* phase_name(PhaseId phase) {
  switch (phase) {
    case PhaseId::kBuild: return "build";
    case PhaseId::kSum: return "sum";
    case PhaseId::kPlace: return "place";
    case PhaseId::kCopyBack: return "copy_back";
    case PhaseId::kLcPresort: return "lc_presort";
    case PhaseId::kLcWinner: return "lc_winner";
    case PhaseId::kLcSortedIdx: return "lc_sorted_idx";
    case PhaseId::kLcFatten: return "lc_fatten";
    case PhaseId::kLcInsert: return "lc_insert";
    case PhaseId::kPartClassify: return "part_classify";
    case PhaseId::kPartScatter: return "part_scatter";
    case PhaseId::kPartSort: return "part_sort";
    case PhaseId::kPhaseCount: break;
  }
  return "?";
}

const char* counter_name(Counter counter) {
  switch (counter) {
    case Counter::kCasInstalls: return "cas_installs";
    case Counter::kCasFailures: return "cas_failures";
    case Counter::kBuildIters: return "build_iters";
    case Counter::kWatClaims: return "wat_claims";
    case Counter::kWatProbes: return "wat_probes";
    case Counter::kFatHits: return "fat_hits";
    case Counter::kFatMisses: return "fat_misses";
    case Counter::kSeqBlocks: return "seq_blocks";
    case Counter::kSeqBlockElems: return "seq_block_elems";
    case Counter::kSeqBlockRepeats: return "seq_block_repeats";
    case Counter::kLcProbes: return "lc_probes";
    case Counter::kLcBurstVisits: return "lc_burst_visits";
    case Counter::kBackoffSpins: return "backoff_spins";
    case Counter::kLeafBlocks: return "leaf_blocks";
    case Counter::kLeafInsertionSorts: return "leaf_insertion_sorts";
    case Counter::kLeafHeapsorts: return "leaf_heapsorts";
    case Counter::kPartitionSwaps: return "partition_swaps";
    case Counter::kSplitterSamples: return "splitter_samples";
    case Counter::kCounterCount: break;
  }
  return "?";
}

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kPhaseEnter: return "phase_enter";
    case FlightKind::kPhaseExit: return "phase_exit";
    case FlightKind::kWatClaim: return "wat_claim";
    case FlightKind::kCasFailBurst: return "cas_fail_burst";
    case FlightKind::kLeafBlock: return "leaf_block";
    case FlightKind::kFault: return "fault";
    case FlightKind::kSimOp: return "sim_op";
    case FlightKind::kKindCount: break;
  }
  return "?";
}

const char* fault_code_name(FaultCode code) {
  switch (code) {
    case FaultCode::kKill: return "kill";
    case FaultCode::kSuspend: return "suspend";
    case FaultCode::kRevive: return "revive";
  }
  return "?";
}

std::size_t LogHistogram::max_nonzero_bucket() const {
  for (std::size_t b = kBuckets; b-- > 0;) {
    if (counts[b] != 0) return b;
  }
  return 0;
}

std::uint64_t Report::counter_total(Counter c) const {
  std::uint64_t t = 0;
  for (const WorkerReport& w : workers) t += w.counter(c);
  return t;
}

std::uint64_t Report::max_build_iters() const {
  std::uint64_t m = 0;
  for (const WorkerReport& w : workers) m = std::max(m, w.max_build_iters);
  return m;
}

std::uint64_t Report::tree_depth() const {
  std::uint64_t m = 0;
  for (const WorkerReport& w : workers) m = std::max(m, w.tree_depth);
  return m;
}

std::uint32_t Report::crashed_workers() const {
  return static_cast<std::uint32_t>(std::count_if(
      workers.begin(), workers.end(), [](const WorkerReport& w) { return w.crashed; }));
}

LogHistogram Report::merged_cas_retries() const {
  LogHistogram h;
  for (const WorkerReport& w : workers) h.merge(w.cas_retries);
  return h;
}

LogHistogram Report::merged_wat_probes() const {
  LogHistogram h;
  for (const WorkerReport& w : workers) h.merge(w.wat_probes);
  return h;
}

double Report::phase_max_ms(PhaseId phase) const {
  std::uint64_t best_us = 0;
  for (const WorkerReport& w : workers) {
    for (const Span& s : w.spans) {
      if (s.phase == phase) best_us = std::max(best_us, s.duration_us());
    }
  }
  return static_cast<double>(best_us) / 1000.0;
}

std::vector<PhaseId> Report::phases_present() const {
  bool seen[kPhaseCount] = {};
  for (const WorkerReport& w : workers) {
    for (const Span& s : w.spans) seen[static_cast<std::size_t>(s.phase)] = true;
  }
  std::vector<PhaseId> out;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (seen[p]) out.push_back(static_cast<PhaseId>(p));
  }
  return out;
}

LatencySketch Report::phase_sketch(PhaseId phase) const {
  LatencySketch sk;
  for (const WorkerReport& w : workers) {
    for (const Span& s : w.spans) {
      if (s.phase == phase) sk.add(s.duration_us());
    }
  }
  return sk;
}

Recorder::Recorder(Level level, std::uint32_t max_workers,
                   std::uint32_t ring_capacity)
    : level_(level),
      t0_(std::chrono::steady_clock::now()),
      slot_count_(max_workers),
      ring_capacity_(ring_capacity),
      slots_(new WorkerScratch[max_workers]) {
  for (std::uint32_t tid = 0; tid < slot_count_; ++tid) {
    slots_[tid].rep.tid = tid;
    // A worker records at most one span per phase, so workers never
    // allocate; reuse() keeps the capacity.
    slots_[tid].rep.spans.reserve(kPhaseCount);
    slots_[tid].ring.reset(ring_capacity);
    slots_[tid].t0 = t0_;
    slots_[tid].detail = detail();
  }
}

void Recorder::reuse(Level level) {
  level_ = level;
  t0_ = std::chrono::steady_clock::now();
  for (std::uint32_t tid = 0; tid < slot_count_; ++tid) {
    WorkerScratch& s = slots_[tid];
    s.rep.crashed = false;
    s.rep.spans.clear();         // keeps capacity
    s.rep.counters.fill(0);
    s.rep.max_build_iters = 0;
    s.rep.tree_depth = 0;
    s.rep.cas_retries = {};
    s.rep.wat_probes = {};
    s.rep.ring.clear();          // keeps capacity
    s.rep.ring_total = 0;
    s.ring.clear();              // keeps the slot buffer
    s.t0 = t0_;
    s.detail = detail();
    s.has_open = false;
  }
}

std::uint64_t Recorder::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

Report Recorder::snapshot() const {
  Report rep;
  rep.level = level_;
  rep.wall_us = now_us();
  for (std::uint32_t tid = 0; tid < slot_count_; ++tid) {
    const WorkerReport& w = slots_[tid].rep;
    const bool active =
        !w.spans.empty() || w.crashed ||
        std::any_of(w.counters.begin(), w.counters.end(),
                    [](std::uint64_t c) { return c != 0; });
    if (active) {
      rep.workers.push_back(w);
      // Freeze the worker's flight-recorder window into the report — the
      // post-mortem payload a failure artifact serializes.
      rep.workers.back().ring = slots_[tid].ring.snapshot();
      rep.workers.back().ring_total = slots_[tid].ring.total();
    }
  }
  return rep;
}

}  // namespace wfsort::telemetry
