// Telemetry recording — per-worker scratch and the run-scoped Recorder.
//
// Design rule (docs/observability.md): the engine hot path must not pay for
// observability it did not ask for.  Everything a worker records goes into
// its OWN cache-line-aligned scratch slot — plain, non-atomic memory nobody
// else touches while the run is live — so recording is a handful of local
// stores and the shared state is only read once, by snapshot(), after the
// workers have joined.  A run at Level::kOff whose caller wants no SortStats
// holds no Recorder at all and runs the untraced instantiation of its worker
// program (see kTelEnabled below) — the hot path contains no telemetry code
// whatsoever.
//
// Span recording is crash-correct by construction: a scratch slot keeps at
// most one open span, and the engine closes it from an RAII guard on every
// exit path, so a fault-injected worker leaves a truncated span (begin ..
// abort time) rather than a dangling one — exactly what the adversary
// engine wants to see in a failure artifact's timeline.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "telemetry/report.h"

namespace wfsort::telemetry {

// The engine's hot functions take their scratch pointer as a *deduced*
// template parameter (`Tel` is either `WorkerScratch*` or `std::nullptr_t`)
// and guard every recording site with `if constexpr (kTelEnabled<Tel>)`, so
// the untraced instantiation compiles to exactly the pre-telemetry code —
// no dead branches, no dead locals, no counter plumbing.
template <typename Tel>
inline constexpr bool kTelEnabled =
    !std::is_same_v<std::remove_cv_t<Tel>, std::nullptr_t>;

// One worker's private recording area.  `detail` mirrors Level::kFull so
// per-element sites can skip histogram work at Level::kPhases without
// consulting the Recorder.  The flight-recorder `ring` is the one exception
// to "nobody else touches a live slot": it is written only by the owning
// worker and read concurrently by observers (the live monitor) through the
// ring's seqlock snapshot — never through this struct's plain fields.
struct alignas(64) WorkerScratch {
  WorkerReport rep;
  FlightRing ring;
  std::chrono::steady_clock::time_point t0{};  // the run's epoch (copied in)
  bool detail = false;

  std::uint64_t open_begin_us = 0;
  PhaseId open_phase = PhaseId::kBuild;
  bool has_open = false;

  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  // Append a flight-recorder event stamped with the current run-relative
  // time.  One clock read plus a wait-free ring push.
  void emit(FlightKind kind, std::uint8_t a8, std::uint32_t a32,
            std::uint64_t value) {
    if (ring.capacity() == 0) return;
    ring.push({now_us(), value, a32, static_cast<std::uint16_t>(rep.tid),
               static_cast<std::uint8_t>(kind), a8});
  }

  // Record the worker's own death (adversary kill or fault-plan abort) —
  // the post-mortem marker observers look for.  Emitted by the victim
  // itself, preserving the ring's single-writer rule.
  void mark_crashed(std::uint64_t step) {
    rep.crashed = true;
    emit(FlightKind::kFault, static_cast<std::uint8_t>(FaultCode::kKill), 0,
         step);
  }

  // Begin a phase span, closing the previous one at the same instant (a
  // worker is always in exactly one phase).
  void begin_phase(PhaseId phase) {
    const std::uint64_t now = now_us();
    if (has_open) close_span(now);
    open_phase = phase;
    open_begin_us = now;
    has_open = true;
    if (ring.capacity() != 0) {
      ring.push({now, 0, 0, static_cast<std::uint16_t>(rep.tid),
                 static_cast<std::uint8_t>(FlightKind::kPhaseEnter),
                 static_cast<std::uint8_t>(phase)});
    }
  }

  void end_phase() {
    if (!has_open) return;
    close_span(now_us());
    has_open = false;
  }

  void count(Counter c, std::uint64_t v = 1) {
    rep.counters[static_cast<std::size_t>(c)] += v;
  }

 private:
  void close_span(std::uint64_t now) {
    rep.spans.push_back({open_phase, rep.tid, open_begin_us, now});
    if (ring.capacity() != 0) {
      ring.push({now, now - open_begin_us, 0,
                 static_cast<std::uint16_t>(rep.tid),
                 static_cast<std::uint8_t>(FlightKind::kPhaseExit),
                 static_cast<std::uint8_t>(open_phase)});
    }
  }
};

// Closes the scratch's open span on scope exit — the engine plants one per
// worker invocation so crash returns still truncate the span correctly.
class ScratchCloser {
 public:
  explicit ScratchCloser(WorkerScratch* s) : s_(s) {}
  ~ScratchCloser() {
    if (s_ != nullptr) s_->end_phase();
  }
  ScratchCloser(const ScratchCloser&) = delete;
  ScratchCloser& operator=(const ScratchCloser&) = delete;

 private:
  WorkerScratch* s_;
};

// Owns the scratch slots of one run.  Built by the engine, or lent to it by
// SortPool and SortSession, whenever the run records: Options::telemetry !=
// kOff or the caller asked for SortStats (detail::recording_for).  Slots are preallocated for every
// worker id the run can legally use, so scratch() is an index, never an
// allocation.
class Recorder {
 public:
  // Default flight-recorder depth per worker (Options::ring_capacity).
  static constexpr std::uint32_t kDefaultRingCapacity = 256;

  Recorder(Level level, std::uint32_t max_workers,
           std::uint32_t ring_capacity = kDefaultRingCapacity);

  // Pool recycling: re-arm an idle Recorder for a new run with zero heap
  // traffic — restamp the epoch, switch the level, and clear every slot in
  // place (span vectors keep their capacity, rings keep their buffers).
  // Call only between runs (slots are unsynchronized by design).
  void reuse(Level level);

  // Whether this Recorder's preallocated shape can serve a run that needs
  // `max_workers` slots with `ring_capacity`-deep rings (reuse() cannot
  // resize; a mismatch means the pool rebuilds the Recorder).
  bool shape_matches(std::uint32_t max_workers,
                     std::uint32_t ring_capacity) const {
    return slot_count_ == max_workers && ring_capacity_ == ring_capacity;
  }

  Level level() const { return level_; }
  bool detail() const { return level_ == Level::kFull; }

  // The worker's slot, or nullptr for ids beyond the preallocated range
  // (callers treat that exactly like telemetry-off).
  WorkerScratch* scratch(std::uint32_t tid) {
    return tid < slot_count_ ? &slots_[tid] : nullptr;
  }

  std::uint64_t now_us() const;

  // Observer access while the run is live: the flight-recorder rings are
  // the ONLY slot state safe to read concurrently (seqlock snapshots; see
  // ring.h).  The live monitor samples through these.
  std::uint32_t slot_count() const { return slot_count_; }
  const FlightRing* ring(std::uint32_t tid) const {
    return tid < slot_count_ ? &slots_[tid].ring : nullptr;
  }

  // Aggregate every active slot into an immutable Report.  Call only after
  // the workers have joined (slots are unsynchronized by design).
  Report snapshot() const;

 private:
  Level level_;
  std::chrono::steady_clock::time_point t0_;
  std::uint32_t slot_count_;
  std::uint32_t ring_capacity_;
  std::unique_ptr<WorkerScratch[]> slots_;
};

}  // namespace wfsort::telemetry
