// The sort engine: shared state plus the per-worker program.
//
// One Engine instance lives for the duration of one sort.  Any number of
// workers (threads) may execute run_worker() concurrently; each worker runs
// every phase to its own completion, so the sorted result is ready as soon
// as ANY ONE worker returns true — that is the wait-freedom guarantee made
// operational.  Workers that crash (fault injection returns false) leave
// only idempotent or write-once state behind and never endanger the rest.
//
// Hot-path structure (docs/native_engine.md):
//   * shared state is per variant: a run builds only the structures its
//     variant reads — the pivot tree (TreeState) and its phase-1 Wat for
//     det-tree and lc, PartitionShared (which also holds the output) for
//     det-partition;
//   * the pivot tree lives in packed per-node records (TreeState), one
//     cache line per visit instead of four parallel arrays;
//   * phase-1 work is claimed as stripes of at most Options::wat_batch
//     elements per WAT traversal (the paper's K), inserted in bit-reversed
//     order (StripedJobs) with interleaved, prefetched descents
//     (build_batch);
//   * phase-3 subtrees at or below Options::seq_cutoff are emitted by one
//     sequential in-order walk (place_block);
//   * per-element statistics accumulate in per-worker tallies, written once
//     per phase into the worker's own telemetry scratch; SortStats is read
//     off the run's Report, so no statistic is a shared atomic;
//   * workers that finish all phases help copy the assembled output back
//     into the caller's buffer in parallel chunks — safe because keys were
//     copied into the node records (or the partition's key array) up front,
//     so nobody reads the caller's buffer after construction.  finalize()
//     only sweeps chunks no worker got to (it must still be called after
//     the workers are joined and at least one completed).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/arena.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/detail/build_phase.h"
#include "core/detail/lc_phase.h"
#include "core/detail/partition_phase.h"
#include "core/detail/sum_place_phase.h"
#include "core/detail/tree_state.h"
#include "core/options.h"
#include "lowcontention/fat_tree.h"
#include "lowcontention/winner_tree.h"
#include "runtime/fault_plan.h"
#include "telemetry/recorder.h"
#include "workalloc/lcwat.h"
#include "workalloc/wat.h"

namespace wfsort::detail {

// Stage ids for the low-contention variant's per-worker RNG streams.
enum class LcRngStage : std::uint64_t {
  kWinner = 1,  // stage B: winner-tree pre-wait coin tosses
  kFatten = 2,  // stage D: write-most cell choices
  kInsert = 3,  // stage E: LC-WAT probes + fat-tree copy draws
  kSum = 4,     // stage F: summation probes
  kPlace = 5,   // stage G: placement probes
};

// The randomized variant's RNG for worker `tid` in `stage`: deterministic in
// (Options::seed, tid, stage) and nothing else.  One stream per STAGE — not
// one per worker threaded through all stages — so the draw sequence a stage
// sees never depends on how many draws earlier stages happened to make,
// which varies with interleaving (how many LC-WAT probes until the claims
// ran out, who won stage C, ...).  That independence is what makes `wfsort
// replay` of LC failure artifacts bit-stable: a fault script that perturbs
// stage E cannot shift the randomness of stages F/G.
inline Rng worker_stage_rng(std::uint64_t seed, std::uint32_t tid, LcRngStage stage) {
  return Rng(seed ^ tid).fork(static_cast<std::uint64_t>(stage));
}

// Below this size the low-contention variant falls back to the
// deterministic one: with fewer elements than this there is no slice worth
// pre-sorting and no contention worth spreading.
inline constexpr std::uint64_t kLcMinN = 64;

// Output copy-back is chunked so finished workers can share it; the
// per-chunk done flags make finalize()'s sweep exact.
inline constexpr std::uint64_t kCopyChunk = 8192;

// Worker ids a SortSession can hand out (SortSession::kMaxWorkers is
// defined from this), not just the nominal thread count — replacement
// workers get ids past `threads`.  LC's per-worker sorted-order buffers and
// a session's Recorder cover them all; one-shot and pooled runs use ids
// below their width (sort.h's run_width) only: a one-shot run's Recorder
// has a slot per id, the pool's recycled one a slot per thread.
inline constexpr std::uint32_t kTelemetrySlots = 64;

// Whether a run records, and how: the one decision behind the Engine's own
// Recorder, SortPool's recycled one and SortSession's.  A run records when
// Options::telemetry asks for it or the caller wants SortStats, which are
// read off the Report: at least kPhases (the level that carries the run
// counters), with flight rings only when telemetry was asked for.  N <= 1
// runs record nothing.
struct Recording {
  telemetry::Level level = telemetry::Level::kOff;  // kOff: no Recorder
  std::uint32_t ring_capacity = 0;
};

inline Recording recording_for(const Options& opts, bool want_stats, std::uint64_t n) {
  using telemetry::Level;
  if (n <= 1 || (opts.telemetry == Level::kOff && !want_stats)) return {};
  return {std::max(opts.telemetry, Level::kPhases),
          opts.telemetry == Level::kOff ? 0 : opts.ring_capacity};
}

template <typename Key, typename Compare>
class Engine {
 public:

  // `assemble_into_data` controls whether workers (and finalize) write the
  // sorted output back into `data`; sort_permutation turns it off because
  // its input must stay untouched.
  //
  // `arena` (optional) is where every shared structure of the run — node
  // records, output slots, WAT done-bits, partition arrays, LC fat-tree
  // planes — takes its storage from.  Null means the engine wraps its own
  // private arena (the cold one-shot path: allocate, sort, free).  SortPool
  // passes its recycled per-variant arena instead, which is what makes
  // steady-state pooled submits allocation-free.  The arena must outlive
  // the Engine, and its begin_run() must have been called for this run.
  //
  // `recorder` (optional) lends the engine telemetry scratch with a slot for
  // every worker id the run will use; a borrowed recorder must already be
  // reuse()-armed to recording_for's level (SortPool and SortSession lend
  // one).  Without one the engine builds its own, with a slot per worker,
  // when recording_for says the run records: `want_stats` is whether the
  // caller will read stats().
  //
  // `workers` is the run's width (sort.h's run_width), the ids 0..workers-1
  // it drives, and sizes that own Recorder; 0 means Options::threads.  The
  // phases shape their shared state (WAT start leaves, LC groups, fat-tree
  // quotas) by the nominal thread count whatever the width, so the output
  // does not depend on it.
  Engine(std::span<Key> data, Compare cmp, const Options& opts,
         bool assemble_into_data = true, RunArena* arena = nullptr,
         telemetry::Recorder* recorder = nullptr, bool want_stats = false,
         std::uint32_t workers = 0)
      : data_(data),
        cmp_(cmp),
        opts_(opts),
        nominal_threads_(opts.resolved_threads()),
        wat_batch_(std::max<std::uint64_t>(1, opts.wat_batch)),
        seq_cutoff_(opts.seq_cutoff),
        copy_back_(assemble_into_data),
        arena_(arena != nullptr ? arena : &own_arena_) {
    effective_variant_ = opts.variant;
    if (effective_variant_ == Variant::kLowContention && data.size() < kLcMinN) {
      effective_variant_ = Variant::kDeterministic;
    }
    // Per-variant shared state: each run builds only what its variant reads
    // (nothing at all for N <= 1, which run_worker finishes on entry).
    if (data_.size() > 1) {
      const std::span<const Key> keys(data_.data(), data_.size());
      if (effective_variant_ == Variant::kDeterministic &&
          opts.phase1 == Phase1::kPartition) {
        part_ = arena_->create<PartitionShared<Key>>(
            keys, copy_back_, copy_back_ && kBareKeyOrder<Key, Compare>, *arena_);
      } else {
        WFSORT_CHECK(tree_indexable(data_.size()));  // before any allocation
        st_ = arena_->create<TreeState<Key, Compare>>(keys, cmp, *arena_);
        if (effective_variant_ == Variant::kLowContention) {
          init_lc();
        } else {
          wat_ = arena_->create<Wat>(StripedJobs(data_.size(), wat_batch_).jobs,
                                     *arena_);
        }
      }
    }
    if (recorder != nullptr) {
      recorder_ = recorder;
    } else if (const Recording r = recording_for(opts, want_stats, data_.size());
               r.level != telemetry::Level::kOff) {
      recorder_owned_ = std::make_unique<telemetry::Recorder>(
          r.level, workers != 0 ? workers : nominal_threads_, r.ring_capacity);
      recorder_ = recorder_owned_.get();
    }
    if (copy_back_ && data_.size() > 1) {
      copy_chunks_ = (data_.size() + kCopyChunk - 1) / kCopyChunk;
      copy_done_ =
          ArenaArray<std::atomic<std::uint8_t>>(copy_chunks_, *arena_);
      for (std::uint64_t c = 0; c < copy_chunks_; ++c) {
        copy_done_[c].store(0, std::memory_order_relaxed);
      }
    }
  }

  // Arena-placed shared structures need their destructors run before the
  // arena recycles the storage (their bulk arrays are arena-borrowed and
  // trivially destructible, but the objects themselves are not).
  ~Engine() {
    if (lc_ != nullptr) lc_->~LcShared();
    if (part_ != nullptr) part_->~PartitionShared();
    if (wat_ != nullptr) wat_->~Wat();
    if (st_ != nullptr) st_->~TreeState();
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Variant effective_variant() const { return effective_variant_; }
  std::size_t size() const { return data_.size(); }

  // Execute all phases as worker `tid`.  Returns false if the fault plan
  // aborted this worker ("crash"); shared state remains safe for others.
  bool run_worker(std::uint32_t tid, runtime::FaultPlan* plan = nullptr) {
    if (data_.size() <= 1) {
      completed_.fetch_add(1, std::memory_order_acq_rel);
      return true;
    }
    telemetry::WorkerScratch* tel =
        recorder_ != nullptr ? recorder_->scratch(tid) : nullptr;
    // Closes the worker's open span on every exit path, so a fault-injected
    // crash leaves a truncated span instead of a dangling one.
    telemetry::ScratchCloser closer(tel);
    // Compile-time fork: the nullptr instantiation of the per-variant
    // programs is the untraced hot path, identical to pre-telemetry code.
    bool ok;
    if (tel != nullptr) {
      ok = effective_variant_ != Variant::kDeterministic
               ? run_low_contention(tid, plan, tel)
               : (part_ != nullptr ? run_partition(tid, plan, tel)
                                   : run_deterministic(tid, plan, tel));
    } else {
      ok = effective_variant_ != Variant::kDeterministic
               ? run_low_contention(tid, plan, nullptr)
               : (part_ != nullptr ? run_partition(tid, plan, nullptr)
                                   : run_deterministic(tid, plan, nullptr));
    }
    if (!ok) {
      // mark_crashed lands the post-mortem kFault event in the victim's own
      // ring (single-writer rule: the dying worker writes its own epitaph).
      if (tel != nullptr) tel->mark_crashed(tel->now_us());
      return false;
    }
    // This worker placed, or saw a completion flag over, every element, so
    // the output is fully assembled: help copy it back while stragglers keep
    // going (they only touch the node records, never the caller's buffer).
    WFSORT_DCHECK(output().complete());
    if (tel != nullptr) tel->begin_phase(telemetry::PhaseId::kCopyBack);
    assist_copy_back();
    return true;
  }

  // True once some worker has completed all phases (result fully assembled).
  bool result_ready() const { return completed_.load(std::memory_order_acquire) > 0; }

  // Deliver any output chunks the workers did not already copy back.  Call
  // with all workers joined (or known crashed) and result_ready().
  void finalize() {
    if (data_.size() <= 1) return;
    WFSORT_CHECK(result_ready());
    WFSORT_DCHECK(output().complete());
    for (std::uint64_t c = 0; c < copy_chunks_; ++c) {
      if (copy_done_[c].load(std::memory_order_acquire) == 0) copy_chunk(c);
    }
    snapshot_telemetry();
  }

  // Freeze the run's telemetry into an immutable Report.  Idempotent; call
  // with all workers joined (the scratch slots are unsynchronized).  Also
  // invoked by finalize(); sort_with_faults calls it directly on the failure
  // path, where finalize() never runs but the partial timeline is exactly
  // what the adversary tooling wants.
  void snapshot_telemetry() {
    if (recorder_ == nullptr || report_ != nullptr) return;
    report_ = std::make_shared<const telemetry::Report>(recorder_->snapshot());
  }

  std::shared_ptr<const telemetry::Report> telemetry_report() const {
    return report_;
  }

  // The run's recorder, for observers that sample the flight-recorder rings
  // while workers are live (telemetry::Monitor).  Null when the run records
  // nothing (recording_for).
  const telemetry::Recorder* recorder() const { return recorder_; }

  // The run's statistics.  Every counter comes from the telemetry Report,
  // so they are zero until the snapshot (after the join) and for N <= 1.
  // The Report lists every worker that ran (each records a span), crashed
  // or not; without one (N <= 1) every worker that ran completed.
  SortStats stats() const {
    SortStats s;
    s.n = data_.size();
    s.completed_workers = completed_.load(std::memory_order_relaxed);
    s.workers = s.completed_workers;
    s.telemetry = report_;
    if (report_ != nullptr) {
      using telemetry::Counter;
      s.workers = static_cast<std::uint32_t>(report_->workers.size());
      s.crashed_workers = report_->crashed_workers();
      s.max_build_iters = report_->max_build_iters();
      s.tree_depth = static_cast<std::uint32_t>(report_->tree_depth());
      s.total_build_iters = report_->counter_total(Counter::kBuildIters);
      s.cas_failures = report_->counter_total(Counter::kCasFailures);
      s.cas_successes = report_->counter_total(Counter::kCasInstalls);
      s.fat_read_misses = report_->counter_total(Counter::kFatMisses);
    }
    return s;
  }

  // Read side of a finished run's rank-indexed result, whichever variant
  // assembled it.  Copy-back, finalize()'s debug check and sort_permutation
  // all read the output through it.  Valid once result_ready(); stragglers
  // may still be storing (identical values) into it.
  class Output {
   public:
    Output(const TreeState<Key, Compare>* tree, const PartitionShared<Key>* part)
        : tree_(tree), part_(part) {}

    // The key of rank `r` (0-based).  Copy-back runs only.
    Key key(std::size_t r) const {
      return part_ != nullptr ? load_relaxed(part_->out[r])
                              : tree_->out[r].load(std::memory_order_relaxed);
    }

    // perm[r] = input index of the element of rank r.  The partition path
    // stored exactly that; the tree path inverts the records' places.
    void permutation(std::span<std::uint32_t> perm) const {
      if (part_ != nullptr) {
        for (std::size_t r = 0; r < perm.size(); ++r) {
          perm[r] = load_relaxed(part_->out_idx[r]);
        }
        return;
      }
      for (std::size_t i = 0; i < perm.size(); ++i) {
        const std::int64_t place = tree_->place_of(static_cast<std::int64_t>(i));
        perm[static_cast<std::size_t>(place - 1)] = static_cast<std::uint32_t>(i);
      }
    }

    // Debug completeness check: every rank was emitted.  The partition
    // output has no "unset" value (its slots start uninitialised); every
    // bucket job marked done is what says each rank slot was stored.
    bool complete() const {
      return part_ == nullptr ? tree_->all_placed() : part_->bucket_wat.all_done();
    }

   private:
    const TreeState<Key, Compare>* tree_;
    const PartitionShared<Key>* part_;
  };

  Output output() const { return Output(st_, part_); }

 private:
  static std::uint64_t batch_jobs(std::uint64_t n, std::uint64_t batch) {
    return (n + batch - 1) / batch;
  }

  struct LcShared {
    std::uint32_t levels = 0;      // H: fat-tree levels
    std::uint64_t slice_len = 0;   // S = 2^H - 1
    std::uint32_t groups = 0;      // sqrt-style group count
    // Group pre-sort structures, placement-new'd into arena storage by
    // init_lc (`constructed` tracks how many pairs the dtor must unwind).
    TreeState<Key, Compare>* group_states = nullptr;
    Wat* group_wats = nullptr;
    std::uint32_t constructed = 0;
    WinnerTree winner;
    FatTree fat;
    LcWat insert_wat;  // randomized phase-1 allocation, one job per K-run
    LcMarks sum_marks;
    LcMarks place_marks;
    // The winner slice's sorted order (global element indices).  Every
    // worker that reaches Stage C before a publication builds the identical
    // contents into its OWN slice of `sorted_bufs` (one slice per worker
    // id, so concurrent builders never write the same bytes) and the first
    // CAS wins; losers simply adopt the published pointer.
    std::int64_t* sorted_bufs = nullptr;  // [sorted_slots] x [slice_len]
    std::uint32_t sorted_slots = 0;
    std::atomic<const std::int64_t*> sorted_idx{nullptr};

    LcShared(std::uint32_t levels_in, std::uint64_t slice_in, std::uint32_t groups_in,
             std::uint32_t threads, std::uint32_t copies, std::uint64_t n,
             std::uint64_t insert_jobs, RunArena& arena)
        : levels(levels_in),
          slice_len(slice_in),
          groups(groups_in),
          winner(threads, /*wait_unit=*/4, arena),
          fat(levels_in, copies, arena),
          insert_wat(insert_jobs, arena),
          sum_marks(n, arena),
          place_marks(n, arena) {}
    ~LcShared() {
      for (std::uint32_t g = constructed; g-- > 0;) {
        group_wats[g].~Wat();
        group_states[g].~TreeState();
      }
    }
  };

  void init_lc() {
    const std::uint64_t n = data_.size();
    // S = 2^H - 1 <= sqrt(N): the fat tree seeds the top ~ (log N)/2 levels.
    const std::uint32_t levels = std::max<std::uint32_t>(1, log2_floor(isqrt(n) + 1));
    const std::uint64_t slice = (std::uint64_t{1} << levels) - 1;
    const std::uint32_t groups = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::max<std::uint32_t>(1, isqrt(nominal_threads_)), n / slice));
    const std::uint32_t copies =
        opts_.lc_copies != 0 ? opts_.lc_copies
                             : std::max<std::uint32_t>(2, isqrt(nominal_threads_));
    RunArena& arena = *arena_;
    lc_ = arena.create<LcShared>(levels, slice, groups, nominal_threads_, copies,
                                 n, batch_jobs(n, wat_batch_), arena);
    lc_->group_states = static_cast<TreeState<Key, Compare>*>(
        arena.raw(sizeof(TreeState<Key, Compare>) * groups));
    lc_->group_wats = static_cast<Wat*>(arena.raw(sizeof(Wat) * groups));
    for (std::uint32_t g = 0; g < groups; ++g) {
      auto keys = std::span<const Key>(data_.data() + g * slice, slice);
      ::new (static_cast<void*>(lc_->group_states + g))
          TreeState<Key, Compare>(keys, cmp_, arena);
      ::new (static_cast<void*>(lc_->group_wats + g))
          Wat(StripedJobs(slice, wat_batch_).jobs, arena);
      ++lc_->constructed;
    }
    // One sorted-order buffer per worker id the run can legally use
    // (SortSession replacement ids included).
    lc_->sorted_slots = std::max(nominal_threads_, kTelemetrySlots);
    lc_->sorted_bufs = arena.make<std::int64_t>(
        static_cast<std::size_t>(lc_->sorted_slots) * slice);
  }

  // Write a worker's phase-1 tally into its own scratch, once per phase and
  // at every recording level: these are the counts SortStats reports.  The
  // untraced instantiation records nothing.
  template <typename Tel>
  static void flush_build(const BuildTally& tally, Tel tel) {
    if constexpr (telemetry::kTelEnabled<Tel>) {
      tel->count(telemetry::Counter::kCasInstalls, tally.installs);
      tel->count(telemetry::Counter::kCasFailures, tally.cas_failures);
      tel->count(telemetry::Counter::kBuildIters, tally.iterations);
      tel->rep.max_build_iters = std::max(tel->rep.max_build_iters, tally.max_iterations);
      tel->rep.tree_depth = std::max(tel->rep.tree_depth, tally.max_depth);
    }
  }

  // Claim output chunks and copy them into the caller's buffer.  Only run
  // by workers that completed every phase: their traversal's acquire loads
  // ordered every emission before this point.
  void assist_copy_back() {
    completed_.fetch_add(1, std::memory_order_acq_rel);
    if (!copy_back_) return;
    while (true) {
      const std::uint64_t c = copy_next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= copy_chunks_) return;
      copy_chunk(c);
      copy_done_[c].store(1, std::memory_order_release);
    }
  }

  void copy_chunk(std::uint64_t c) {
    const std::size_t lo = static_cast<std::size_t>(c * kCopyChunk);
    const std::size_t hi = std::min(data_.size(), lo + kCopyChunk);
    const Output out = output();
    for (std::size_t i = lo; i < hi; ++i) data_[i] = out.key(i);
  }

  // Drive `wat` to completion as worker `pos` of `workers`, running `job` on
  // the index of every claimed job leaf.  `chk` is polled once per WAT node
  // visited; returns false when a poll or a job aborts.  Callers flush their
  // tallies after it returns.  Det phase 1, the three partition sweeps and
  // LC stage A all run this one loop.
  template <typename Check, typename Tel, typename Job>
  bool drive(Wat& wat, std::uint32_t pos, std::uint32_t workers, const Check& chk,
             Tel tel, Job&& job) {
    [[maybe_unused]] bool tel_detail = false;
    if constexpr (telemetry::kTelEnabled<Tel>) tel_detail = tel->detail;
    [[maybe_unused]] std::uint64_t wat_probes = 1;  // WAT nodes since last claim
    std::int64_t node = wat.initial_leaf(pos, workers);
    while (true) {
      if (!chk()) return false;
      if (wat.is_job_leaf(node)) {
        if constexpr (telemetry::kTelEnabled<Tel>) {
          if (tel_detail) {
            tel->count(telemetry::Counter::kWatClaims);
            tel->count(telemetry::Counter::kWatProbes, wat_probes);
            tel->rep.wat_probes.add(wat_probes);
            tel->emit(telemetry::FlightKind::kWatClaim, 0,
                      static_cast<std::uint32_t>(wat_probes), wat.job_of(node));
            wat_probes = 0;
          }
        }
        if (!job(wat.job_of(node))) return false;
      }
      node = wat.next_element(node);
      if constexpr (telemetry::kTelEnabled<Tel>) {
        if (tel_detail) ++wat_probes;
      }
      if (node == Wat::kAllJobsDone) return true;
    }
  }

  // --- deterministic variant (Section 2) ---
  // `Tel` is telemetry::WorkerScratch* (recording) or std::nullptr_t; the
  // nullptr instantiation strips every telemetry site at compile time.
  template <typename Tel>
  bool run_deterministic(std::uint32_t tid, runtime::FaultPlan* plan, Tel tel) {
    constexpr bool kTel = telemetry::kTelEnabled<Tel>;
    const auto chk = [plan, tid] { return plan == nullptr || plan->checkpoint(tid); };
    TreeState<Key, Compare>& st = *st_;
    const StripedJobs jobs(data_.size(), wat_batch_);

    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kBuild);
    // Phase 1: WAT-allocated tree building, one bit-reversed stripe per
    // claimed leaf.
    BuildTally tally;
    const bool built =
        drive(*wat_, tid, nominal_threads_, chk, tel, [&](std::uint64_t j) {
          return build_batch(st, jobs.stripe(j), tally, chk, tel);
        });
    flush_build(tally, tel);
    if (!built) return false;
    // Phases 2 and 3.
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kSum);
    if (!tree_sum(st, tid, chk)) return false;
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kPlace);
    return find_place_emit(st, tid, seq_cutoff_, chk, tel);
  }

  // --- deterministic variant with the blocked-partition phase 1 ---
  // Same worker contract as run_deterministic: helps every sweep to its own
  // completion, crashes leave only idempotent state, nobody waits.  Sweep
  // structure and its correctness argument live in partition_phase.h.
  template <typename Tel>
  bool run_partition(std::uint32_t tid, runtime::FaultPlan* plan, Tel tel) {
    constexpr bool kTel = telemetry::kTelEnabled<Tel>;
    const auto chk = [plan, tid] { return plan == nullptr || plan->checkpoint(tid); };
    [[maybe_unused]] bool tel_detail = false;
    if constexpr (kTel) tel_detail = tel->detail;
    PartitionShared<Key>& ps = *part_;
    // thread_local: pooled workers keep the classify/scatter scratch warm
    // across runs (run_worker is never reentrant on one thread).
    static thread_local PartitionLocal<Key> local;
    local.begin_run();

    const auto flush = [&] {
      if constexpr (kTel) {
        if (tel_detail) {
          tel->count(telemetry::Counter::kLeafBlocks, local.tally.blocks);
          tel->count(telemetry::Counter::kLeafInsertionSorts,
                     local.tally.insertion_sorts);
          tel->count(telemetry::Counter::kLeafHeapsorts, local.tally.heapsorts);
          tel->count(telemetry::Counter::kPartitionSwaps,
                     local.tally.partition_swaps);
          if (ps.buckets > 1) {
            tel->count(telemetry::Counter::kSplitterSamples,
                       static_cast<std::uint64_t>(ps.sample_size));
          }
        }
      }
    };
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kPartClassify);
    const std::uint32_t workers = nominal_threads_;
    bool ok = partition_prepare(cmp_, ps, local, chk) &&
              drive(ps.classify_wat, tid, workers, chk, tel, [&](std::uint64_t c) {
                return partition_classify(cmp_, ps, local, c, chk);
              });
    if (!ok) {
      flush();
      return false;
    }

    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kPartScatter);
    ok = partition_offsets(ps, local, chk) &&
         drive(ps.scatter_wat, tid, workers, chk, tel, [&](std::uint64_t c) {
           return partition_scatter(ps, local, c, chk);
         });
    if (!ok) {
      flush();
      return false;
    }

    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kPartSort);
    ok = drive(ps.bucket_wat, tid, workers, chk, tel, [&](std::uint64_t b) {
      return partition_bucket(cmp_, ps, local, b, chk);
    });
    flush();
    return ok;
  }

  // --- randomized low-contention variant (Section 3) ---
  template <typename Tel>
  bool run_low_contention(std::uint32_t tid, runtime::FaultPlan* plan, Tel tel) {
    constexpr bool kTel = telemetry::kTelEnabled<Tel>;
    const auto chk = [plan, tid] { return plan == nullptr || plan->checkpoint(tid); };
    [[maybe_unused]] bool tel_detail = false;
    if constexpr (kTel) tel_detail = tel->detail;
    LcShared& lc = *lc_;
    BuildTally tally;
    std::uint64_t fat_misses = 0;

    // Stage A: this worker's group pre-sorts its slice with the
    // deterministic algorithm (paper step 1).
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kLcPresort);
    const std::uint32_t group = tid % lc.groups;
    const std::uint32_t group_workers =
        std::max<std::uint32_t>(1, nominal_threads_ / lc.groups);
    TreeState<Key, Compare>& gst = lc.group_states[group];
    const StripedJobs group_jobs(lc.slice_len, wat_batch_);
    const bool presorted =
        drive(lc.group_wats[group], tid / lc.groups, group_workers, chk, tel,
              [&](std::uint64_t j) {
                return build_batch(gst, group_jobs.stripe(j), tally, chk, tel);
              }) &&
        tree_sum(gst, tid, chk) && find_place_emit(gst, tid, seq_cutoff_, chk, tel);
    tally.max_depth = 0;  // a group tree's depth is not the pivot tree's
    if (!presorted) {
      flush_build(tally, tel);
      return false;
    }

    // Stage B: pick the winning group (paper step 2; Figure 9).
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kLcWinner);
    Rng rng_winner = worker_stage_rng(opts_.seed, tid, LcRngStage::kWinner);
    const std::int64_t w = lc.winner.compete(tid, group, rng_winner);

    // Stage C: reconstruct the winner slice's sorted order (global element
    // indices).  The winner candidate was submitted by a worker that
    // completed the slice, so every place is set and the contents are the
    // same for every worker — each builder fills its own per-worker buffer
    // (never shared bytes), the first to finish publishes its pointer
    // write-once, and everyone else reuses the published copy.
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kLcSortedIdx);
    const std::int64_t* si = lc.sorted_idx.load(std::memory_order_acquire);
    if (si == nullptr) {
      WFSORT_CHECK(tid < lc.sorted_slots);
      std::int64_t* built =
          lc.sorted_bufs + static_cast<std::uint64_t>(tid) * lc.slice_len;
      TreeState<Key, Compare>& wst = lc.group_states[static_cast<std::size_t>(w)];
      for (std::uint64_t i = 0; i < lc.slice_len; ++i) {
        if (!chk()) {
          flush_build(tally, tel);
          return false;
        }
        const std::int64_t pl = wst.place_of(static_cast<std::int64_t>(i));
        WFSORT_CHECK(pl > 0);
        built[static_cast<std::size_t>(pl - 1)] =
            static_cast<std::int64_t>(w) * static_cast<std::int64_t>(lc.slice_len) +
            static_cast<std::int64_t>(i);
      }
      const std::int64_t* expected = nullptr;
      if (lc.sorted_idx.compare_exchange_strong(expected, built,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        si = built;
      } else {
        si = expected;  // someone else published first; ours is ignored
      }
    }
    const std::span<const std::int64_t> sorted_idx(si, lc.slice_len);

    // Stage D: fatten the winner tree (write-most) and stitch its structure
    // into the main pivot tree.  All writes are idempotent (identical values
    // from every worker), so no coordination is needed.
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kLcFatten);
    Rng rng_fatten = worker_stage_rng(opts_.seed, tid, LcRngStage::kFatten);
    lc.fat.write_random_cells(sorted_idx, lc.fat.fill_quota(nominal_threads_), rng_fatten);
    TreeState<Key, Compare>& st = *st_;
    const std::int64_t root = sorted_idx[lc.fat.rank_of(0)];
    st.set_root(root);
    for (std::uint64_t f = 0; f < lc.fat.node_count(); ++f) {
      if (!chk()) {
        flush_build(tally, tel);
        return false;
      }
      const std::int64_t pe = sorted_idx[lc.fat.rank_of(f)];
      if (!lc.fat.is_leaf(f)) {
        const std::int64_t se = sorted_idx[lc.fat.rank_of(lc.fat.left(f))];
        const std::int64_t be = sorted_idx[lc.fat.rank_of(lc.fat.right(f))];
        st.set_child(pe, kSmall, se);
        st.set_child(pe, kBig, be);
      }
    }

    // Stage E: insert every remaining element (paper step 3).  Work is
    // allocated by random probing (LC-WAT) — one job per Stripe of
    // ~wat_batch elements (job j covers {j, j+J, j+2J, ...} with J the job
    // count; the paper's K of Lemma 2.7), so the coupon-collector probing
    // cost is paid per stripe, not per element.  Stripes, unlike contiguous
    // runs, keep the seed's depth guarantee: the per-element random order
    // this work allocation doubles as is what bounds the tree depth on
    // adversarial inputs, and a contiguous run of sorted input is a
    // ready-made chain no claim order can unchain (blocks concatenate;
    // measured depth 370 at N=4096 sorted).  A stripe is an even sample of
    // the whole index range, so inserting it in bit-reversed order is
    // globally self-balancing — first stripe claimed anywhere partitions
    // the range like a balanced tree, and every later stripe lands spread
    // across it.  The job index itself needs no bit reversal here (unlike
    // StripedJobs): LC-WAT claims are random already.  Elements descend the
    // fat tree kBuildLanes at a time with a pre-drawn copy plane and prefetch
    // (fat_handoffs), then enter the pivot tree through build_lanes with
    // bounded CAS backoff.
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kLcInsert);
    Rng rng_insert = worker_stage_rng(opts_.seed, tid, LcRngStage::kInsert);
    const std::int64_t wbase = static_cast<std::int64_t>(w) *
                               static_cast<std::int64_t>(lc.slice_len);
    const std::int64_t wend = wbase + static_cast<std::int64_t>(lc.slice_len);
    std::uint64_t fat_reads = 0;
    [[maybe_unused]] std::uint64_t lcwat_probes = 0;  // step() calls since last claim
    const auto insert_run = [&](std::uint64_t j) {
      if constexpr (kTel) {
        if (tel_detail) {
          tel->count(telemetry::Counter::kWatClaims);
          tel->count(telemetry::Counter::kWatProbes, lcwat_probes);
          tel->rep.wat_probes.add(lcwat_probes);
          tel->emit(telemetry::FlightKind::kWatClaim, 1,
                    static_cast<std::uint32_t>(lcwat_probes), j);
          lcwat_probes = 0;
        }
      }
      // The stripe is claimed (marked DONE) only after this returns, so the
      // fault checkpoint stays OUTSIDE: a crashed worker's partial stripe is
      // re-executed by whoever probes the leaf next, and every insert is
      // idempotent.
      const auto no_abort = [] { return true; };
      std::int64_t elems[kBuildLanes];
      int cnt = 0;
      const auto insert_lanes = [&] {
        std::int64_t parents[kBuildLanes];
        fat_handoffs(elems, cnt, sorted_idx, rng_insert, fat_misses, fat_reads,
                     parents);
        build_lanes(st, elems, parents, cnt, /*start_depth=*/lc.levels,
                    opts_.backoff_limit, tally, no_abort, tel);
        cnt = 0;
      };
      Stripe stripe(j, lc.insert_wat.jobs(), data_.size());
      for (std::uint64_t u; stripe.next(u);) {
        const auto i = static_cast<std::int64_t>(u);
        if (i >= wbase && i < wend) continue;  // already in the tree (fat top)
        elems[cnt++] = i;
        if (cnt == kBuildLanes) insert_lanes();
      }
      if (cnt > 0) insert_lanes();
    };
    const auto flush_insert = [&] {
      flush_build(tally, tel);
      if constexpr (kTel) {
        tel->count(telemetry::Counter::kFatMisses, fat_misses);
        if (tel_detail) {
          tel->count(telemetry::Counter::kFatHits, fat_reads - fat_misses);
          tel->count(telemetry::Counter::kBackoffSpins, tally.backoff_spins);
        }
      }
    };
    while (true) {
      if (!chk()) {
        flush_insert();
        return false;
      }
      if constexpr (kTel) {
        if (tel_detail) ++lcwat_probes;
      }
      if (lc.insert_wat.step(rng_insert, insert_run) == LcWat::Outcome::kQuit) break;
    }
    flush_insert();

    // Stages F, G: randomized summation and placement (Section 3.3), with
    // per-worker probe tallies flushed once per stage.
    LcProbeTally probe_tally;
    const auto flush_probes = [&] {
      if constexpr (kTel) {
        if (tel_detail) {
          tel->count(telemetry::Counter::kLcProbes, probe_tally.probes);
          tel->count(telemetry::Counter::kLcBurstVisits, probe_tally.visits);
          probe_tally = {};
        }
      }
    };
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kSum);
    Rng rng_sum = worker_stage_rng(opts_.seed, tid, LcRngStage::kSum);
    const bool sum_ok =
        lc_tree_sum(st, lc.sum_marks, rng_sum, opts_.lc_burst, probe_tally, chk);
    flush_probes();
    if (!sum_ok) return false;
    if constexpr (kTel) tel->begin_phase(telemetry::PhaseId::kPlace);
    Rng rng_place = worker_stage_rng(opts_.seed, tid, LcRngStage::kPlace);
    const bool place_ok = lc_find_place_emit(st, lc.place_marks, rng_place,
                                             opts_.lc_burst, probe_tally, chk);
    flush_probes();
    return place_ok;
  }

  // Batched fat-tree descents for up to kBuildLanes elements: each element
  // draws ONE copy plane for its whole descent (plane-major layout makes the
  // path a compact prefix of that plane), the next node of every in-flight
  // descent is prefetched, and an unfilled cell falls back to the
  // authoritative slice.  Routing is identical to the one-at-a-time form —
  // only the cache misses overlap.
  void fat_handoffs(const std::int64_t* elems, int count,
                    std::span<const std::int64_t> sorted_idx, Rng& rng,
                    std::uint64_t& fat_misses, std::uint64_t& fat_reads,
                    std::int64_t* parents) {
    LcShared& lc = *lc_;
    std::uint64_t node[kBuildLanes];
    std::uint32_t copy[kBuildLanes];
    bool done[kBuildLanes];
    for (int k = 0; k < count; ++k) {
      node[k] = 0;
      copy[k] = lc.fat.draw_copy(rng);
      done[k] = false;
      lc.fat.prefetch(0, copy[k]);
    }
    int remaining = count;
    while (remaining > 0) {
      for (int k = 0; k < count; ++k) {
        if (done[k]) continue;
        ++fat_reads;
        std::int64_t e = lc.fat.read_copy(node[k], copy[k], &fat_misses);
        if (e == FatTree::kEmptyCell) e = sorted_idx[lc.fat.rank_of(node[k])];
        if (lc.fat.is_leaf(node[k])) {
          parents[k] = e;
          done[k] = true;
          --remaining;
          continue;
        }
        node[k] = lc.fat.left(node[k]) + st_->descend_side(elems[k], e);  // right = left + 1
        lc.fat.prefetch(node[k], copy[k]);
      }
    }
  }

  std::span<Key> data_;
  Compare cmp_;
  Options opts_;
  Variant effective_variant_;
  std::uint32_t nominal_threads_;
  std::uint64_t wat_batch_;
  std::uint64_t seq_cutoff_;
  bool copy_back_;
  // The run's storage substrate (declared before every structure that
  // borrows from it; destroyed after them).  arena_ points at own_arena_
  // on the cold path and at SortPool's recycled arena on the pooled path.
  RunArena own_arena_;
  RunArena* arena_;
  // Per-variant shared state, arena-placed (destructors run in ~Engine);
  // null when the run's variant does not read it.
  TreeState<Key, Compare>* st_ = nullptr;  // det-tree and lc
  Wat* wat_ = nullptr;                     // det-tree phase 1
  LcShared* lc_ = nullptr;                 // lc
  PartitionShared<Key>* part_ = nullptr;   // det-partition; holds the output

  std::uint64_t copy_chunks_ = 0;
  std::atomic<std::uint64_t> copy_next_{0};
  ArenaArray<std::atomic<std::uint8_t>> copy_done_;

  telemetry::Recorder* recorder_ = nullptr;  // borrowed (pool) or owned below
  std::unique_ptr<telemetry::Recorder> recorder_owned_;
  std::shared_ptr<const telemetry::Report> report_;

  std::atomic<std::uint32_t> completed_{0};
};

}  // namespace wfsort::detail
