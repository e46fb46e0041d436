// The flight recorder's wait-free event ring — the one ring implementation
// used repo-wide (per-worker native flight recorders, the PRAM RingTracer,
// the post-mortem rings of fault scenarios).
//
// Concurrency contract (docs/observability.md "Flight recorder"): exactly
// ONE writer per ring — the owning worker — and any number of concurrent
// observers.  The writer stores the event's words with
// relaxed atomics and then publishes by a release store of the sequence
// counter; it never reads observer state, never loops, never waits — a push
// is a fixed number of its own stores, so instrumenting a wait-free worker
// keeps it wait-free.  An observer snapshots seqlock-style: read the
// published count (acquire), copy the window, re-read the count, and keep
// only events whose slot provably was not rewritten during the copy.  Torn
// copies are discarded and the read retried a bounded number of times — the
// observer can fail to see the oldest events of a fast-moving ring, but it
// can never block the writer or return a torn event.
//
// Slot storage is an array of std::atomic<uint64_t> words (relaxed ops), not
// plain memory: the algorithm would be correct on plain memory too on every
// target we build for, but the concurrent slot reuse would be a formal data
// race — this way TSan agrees the ring is clean (test_ring.cpp tortures it).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace wfsort::telemetry {

// Single-writer multi-observer ring of trivially-copyable events.  The
// logical capacity (how many most-recent events a read can return) is kept
// exactly as requested; the slot array is padded to a power of two STRICTLY
// greater than the capacity — the index stays a mask, and the spare slot
// absorbs the seqlock's one-slot ambiguity (the writer may be mid-push of
// the unpublished event `now`, so event now - slots_ is never provably
// untorn; with slots_ > capacity that event is already outside the logical
// window).  Capacity 0 records nothing but still counts total() — the
// RingTracer's "count only" mode.
template <typename T>
class FixedRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring events are copied word-wise");

 public:
  FixedRing() = default;
  explicit FixedRing(std::size_t capacity) { reset(capacity); }

  FixedRing(const FixedRing&) = delete;
  FixedRing& operator=(const FixedRing&) = delete;

  // Drop all contents and (re)size.  Not safe concurrently with push/reads —
  // call before the writer starts (the Recorder sizes rings at construction).
  void reset(std::size_t capacity) {
    capacity_ = capacity;
    slots_ = capacity == 0 ? 0 : std::bit_ceil(capacity + 1);
    mask_ = slots_ == 0 ? 0 : slots_ - 1;
    buf_ = capacity == 0
               ? nullptr
               : std::make_unique<std::atomic<std::uint64_t>[]>(slots_ * kWords);
    seq_.store(0, std::memory_order_relaxed);
  }

  // Drop all contents but KEEP the slot buffer (pool recycling: rings are
  // sized once and cleared between runs with zero heap traffic).  Same
  // concurrency caveat as reset(): call only while nobody pushes or reads.
  void clear() { seq_.store(0, std::memory_order_relaxed); }

  std::size_t capacity() const { return capacity_; }

  // Events ever pushed (the published sequence counter).
  std::uint64_t total() const { return seq_.load(std::memory_order_acquire); }

  // Events a snapshot can return right now.
  std::size_t size() const {
    const std::uint64_t t = total();
    return t < capacity_ ? static_cast<std::size_t>(t) : capacity_;
  }

  // Writer side — wait-free, single writer only.
  void push(const T& event) {
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    if (capacity_ != 0) {
      std::uint64_t w[kWords] = {};
      std::memcpy(w, &event, sizeof(T));
      std::atomic<std::uint64_t>* slot = buf_.get() + (s & mask_) * kWords;
      for (std::size_t i = 0; i < kWords; ++i) {
        slot[i].store(w[i], std::memory_order_relaxed);
      }
    }
    seq_.store(s + 1, std::memory_order_release);
  }

  struct ReadResult {
    std::vector<T> events;      // untorn, chronological (oldest first)
    std::uint64_t next = 0;     // cursor for the following read_from
    std::uint64_t dropped = 0;  // events between cursor and the first returned
  };

  // Observer side: the events published since `cursor` (an event count from
  // a previous ReadResult::next; 0 reads the whole retained window).  Events
  // already overwritten — or overwritten while we copied — are counted in
  // `dropped`, never returned torn.  Bounded retries keep the observer
  // wait-free too; it simply sees less of a ring that outruns it.
  ReadResult read_from(std::uint64_t cursor) const {
    ReadResult r;
    const std::uint64_t origin = cursor;
    if (capacity_ == 0) {
      r.next = total();
      r.dropped = r.next - origin;
      return r;
    }
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t end = seq_.load(std::memory_order_acquire);
      std::uint64_t start = cursor;
      const std::uint64_t lo = end > capacity_ ? end - capacity_ : 0;
      if (start < lo) start = lo;
      if (start >= end) {
        r.next = end;
        r.dropped = start > origin ? start - origin : 0;
        return r;
      }
      std::vector<T> events;
      events.reserve(static_cast<std::size_t>(end - start));
      for (std::uint64_t s = start; s < end; ++s) {
        std::uint64_t w[kWords];
        const std::atomic<std::uint64_t>* slot =
            buf_.get() + (s & mask_) * kWords;
        for (std::size_t i = 0; i < kWords; ++i) {
          w[i] = slot[i].load(std::memory_order_relaxed);
        }
        T e;
        std::memcpy(&e, w, sizeof(T));
        events.push_back(e);
      }
      // Event s lives in slot s & mask_, which the writer touches again only
      // for event s + slots_.  After the copy the writer may already be
      // mid-push of the (unpublished) event with index `now`, so a copied
      // event is provably untorn iff s + slots_ > now.
      const std::uint64_t now = seq_.load(std::memory_order_acquire);
      const std::uint64_t safe = now >= slots_ ? now - slots_ + 1 : 0;
      if (start >= safe) {
        r.events = std::move(events);
        r.next = end;
        r.dropped = start - origin;
        return r;
      }
      if (end > safe) {  // only a prefix was overwritten — discard just it
        events.erase(events.begin(),
                     events.begin() + static_cast<std::ptrdiff_t>(safe - start));
        r.events = std::move(events);
        r.next = end;
        r.dropped = safe - origin;
        return r;
      }
      cursor = end;  // the whole window was outrun; retry against fresh state
    }
    r.next = cursor;
    r.dropped = cursor - origin;
    return r;
  }

  // The retained window in chronological order (oldest first).
  std::vector<T> snapshot() const { return read_from(0).events; }

 private:
  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

  std::size_t capacity_ = 0;  // logical window, exactly as requested
  std::size_t slots_ = 0;     // physical slots: bit_ceil(capacity + 1)
  std::size_t mask_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buf_;
  std::atomic<std::uint64_t> seq_{0};
};

// What a flight-recorder event describes.  docs/observability.md has the
// per-kind payload table.
enum class FlightKind : std::uint8_t {
  kPhaseEnter = 0,  // a8 = PhaseId
  kPhaseExit,       // a8 = PhaseId, value = span duration (us)
  kWatClaim,        // a8 = 0 WAT / 1 LC-WAT, a32 = probes, value = job index
  kCasFailBurst,    // a32 = lost CASes of one element, value = element index
  kLeafBlock,       // a8 = 0 won / 1 lost, a32 = block len, value = node
  kFault,           // a8 = FaultCode, value = kill/suspend round or step
  kSimOp,           // a8 = pram OpKind, a32 = pid, value = address
  kKindCount
};

const char* flight_kind_name(FlightKind kind);

// kFault payload codes (a8).
enum class FaultCode : std::uint8_t { kKill = 0, kSuspend = 1, kRevive = 2 };

const char* fault_code_name(FaultCode code);

// One compact fixed-size flight-recorder event: 24 bytes, three ring words.
// `t` is microseconds since the run epoch on the native substrate and the
// round number on the simulator (rounds keep sim rings byte-reproducible).
struct FlightEvent {
  std::uint64_t t = 0;
  std::uint64_t value = 0;
  std::uint32_t a32 = 0;
  std::uint16_t tid = 0;
  std::uint8_t kind = 0;  // FlightKind
  std::uint8_t a8 = 0;

  FlightKind flight_kind() const { return static_cast<FlightKind>(kind); }
};
static_assert(sizeof(FlightEvent) == 24);

using FlightRing = FixedRing<FlightEvent>;

}  // namespace wfsort::telemetry
