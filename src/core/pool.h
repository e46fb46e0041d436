// SortPool — a process-lifetime runtime of parked worker threads and one
// recycled RunArena (ISSUE 10).
//
// The one-shot entry points in sort.h pay the full setup bill on every
// call: spawn P threads, allocate the pivot-tree / WAT / partition / LC
// storage, sort, free, join.  For large N that bill is noise; for small N
// it IS the latency.  A SortPool hoists all of it to process lifetime:
//
//   * T workers are spawned once and parked on a condvar.  A submit
//     publishes a job slot and wakes them; each wakeup claims a worker id
//     under the pool mutex and runs the engine's wait-free program for
//     that id.  Job slots are epoch-stamped (`gen`) so a claim can assert
//     it never outlives a recycled slot.
//   * One arena holds the storage high-water mark of every run shape seen
//     so far (slot by slot, whatever the variant).  A submit leases it
//     (single atomic try-acquire), rewinds it, and the Engine borrows every
//     shared structure from it: steady state performs ZERO heap
//     allocations (test_pool.cpp counts operator new to prove it).  A
//     contended arena is bypassed for a stack-local one — the cold path,
//     always correct.
//   * The lease also recycles a telemetry Recorder (rings and span vectors
//     keep their buffers between runs) when the run records: telemetry on,
//     or SortStats requested.
//
// A pooled run is detail::sort_run (sort.h), the same run as the one-shot
// entry points; only the arena, the Recorder and the way worker ids reach
// threads differ.  Wait-freedom is a PER-RUN property and the pool
// preserves it: within a run, a worker that stalls or is fault-killed
// cannot block the others — the claim protocol only gates who STARTS a
// worker id, never a step inside the engine.  Across runs the pool is an
// ordinary blocking queue by design (parked threads are the point).
// Because the result is ready as soon as ANY worker finishes (write-once
// idempotent stores make the output schedule-independent), the submitting
// thread always participates as worker 0 and never depends on a parked
// thread showing up: below kCallerOnlyCutoff (sort.h, shared with the
// one-shot entry points through run_width) it doesn't even wake one (the
// small-N fast path), and on the wake path it drains unclaimed worker ids
// itself if the pool is short-handed.  docs/native_engine.md "SortPool" has
// the lifecycle diagram and the measured crossover.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "core/detail/engine.h"
#include "core/options.h"
#include "core/sort.h"
#include "runtime/fault_plan.h"
#include "telemetry/recorder.h"

namespace wfsort {

// A snapshot of the pool's lifetime counters — the source of the "pool"
// group in the bench JSON schema (schema.h).
struct PoolStats {
  std::uint32_t threads = 0;           // parked workers
  std::uint64_t runs = 0;              // sorts driven through the pool
  std::uint64_t caller_only_runs = 0;  // width-1 runs (no worker wake)
  std::uint64_t bypass_runs = 0;       // arena contended -> one-shot arena
  std::uint64_t arena_reuse_bytes = 0; // bytes served from retained buffers
  std::uint64_t arena_grow_events = 0; // retained-slot (re)allocations
  std::uint64_t arena_held_bytes = 0;  // current retained footprint
  std::uint64_t wake_ns = 0;           // cumulative submit->first-claim
};

class SortPool {
 public:
  // In-flight job slots (a ring; submits block when all are pending).
  static constexpr std::uint32_t kRunSlots = 128;

  // `threads` = 0 resolves like Options::threads (hardware concurrency).
  explicit SortPool(std::uint32_t threads = 0);
  ~SortPool();

  SortPool(const SortPool&) = delete;
  SortPool& operator=(const SortPool&) = delete;

  // Drop-in pooled equivalents of wfsort::sort / sort_with_faults: same
  // output bit for bit (the engine's stores are schedule-independent),
  // same stats contract, amortized setup.
  template <typename T, typename Compare = std::less<T>>
  void sort(std::span<T> data, const Options& opts = {},
            SortStats* stats = nullptr, Compare cmp = Compare{}) {
    run(data, opts, stats, cmp, nullptr);
  }

  template <typename T, typename Compare = std::less<T>>
  bool sort_with_faults(std::span<T> data, const Options& opts,
                        runtime::FaultPlan& plan, SortStats* stats = nullptr,
                        Compare cmp = Compare{}) {
    return run(data, opts, stats, cmp, &plan);
  }

  std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  PoolStats stats() const;

 private:
  // One unit of pool work: run the job's worker program as id `tid`.
  // Returns true if this invocation COMPLETED the job (the engine's result
  // is ready) — the pool then stops handing out further ids for the job.
  using JobFn = bool (*)(void* ctx, std::uint32_t tid);

  // One blocking run's worker ids.  All fields are guarded by mu_;
  // execution of fn happens outside the lock.  A slot is recycled (ring
  // position reused) only after `done`, which requires active == 0 — gen
  // is the stamp a claim uses to assert that invariant held.
  struct Slot {
    JobFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t gen = 0;
    std::uint32_t next_tid = 0;  // ids [next_tid, max_tid) still unclaimed
    std::uint32_t max_tid = 0;
    std::uint32_t active = 0;    // claims currently executing
    bool quit = false;           // some claim completed the job
    bool done = false;           // retired; ring slot reusable
    bool first_claim_seen = false;  // the first claim fed wake_ns_
    std::chrono::steady_clock::time_point t_submit{};
  };

  // RAII lease of the arena and its Recorder; released (and the arena
  // totals folded into the pool counters) on destruction — which run()
  // sequences strictly AFTER Engine destruction, because the engine's
  // teardown still touches arena-resident objects.
  class Lease {
   public:
    explicit Lease(SortPool* pool)
        : pool_(pool),
          ok_(!pool->busy_.exchange(true, std::memory_order_acquire)) {}
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool ok() const { return ok_; }

    RunArena* begin_run() {
      pool_->arena_.begin_run();
      return &pool_->arena_;
    }

    // A reuse()-armed Recorder with `slots` worker slots for this run
    // (rebuilt only when the required shape changed since the last
    // recording run).
    telemetry::Recorder* prepare_recorder(const detail::Recording& r,
                                          std::uint32_t slots) {
      std::unique_ptr<telemetry::Recorder>& rec = pool_->recorder_;
      if (rec == nullptr || !rec->shape_matches(slots, r.ring_capacity)) {
        rec = std::make_unique<telemetry::Recorder>(r.level, slots, r.ring_capacity);
      } else {
        rec->reuse(r.level);
      }
      return rec.get();
    }

   private:
    SortPool* pool_;
    bool ok_;
  };

  struct BlockingRun {
    std::uint64_t pos = 0;
  };

  // Type-erased trampoline a pooled sort hands to the job slots.  `Plan`
  // stays a type down to here, so the fault-free instantiation calls
  // run_worker with a compile-time nullptr, as run_workers does.
  template <typename T, typename Compare, typename Plan>
  struct EngineCtx {
    detail::Engine<T, Compare>* engine;
    Plan plan;
    static bool entry(void* self, std::uint32_t tid) {
      auto* c = static_cast<EngineCtx*>(self);
      return c->engine->run_worker(tid, c->plan);
    }
  };

  // The pooled run: lease the arena (or bypass it), then detail::sort_run
  // driven the pool's way: the caller runs worker 0 alone (a width-1 run,
  // see run_width), or publishes ids 1..width-1 to the parked workers, runs
  // worker 0 itself and then drains what nobody claimed.  `plan` is nullptr
  // (a plain sort, which cannot fail) or a FaultPlan*.
  template <typename T, typename Compare, typename Plan>
  bool run(std::span<T> data, const Options& opts, SortStats* stats,
           Compare cmp, Plan plan) {
    Lease lease(this);
    RunArena bypass;  // cold storage for the (rare) contended-arena case
    RunArena* arena = &bypass;
    telemetry::Recorder* rec = nullptr;
    if (lease.ok()) {
      arena = lease.begin_run();
      const detail::Recording r = detail::recording_for(opts, stats != nullptr, data.size());
      if (r.level != telemetry::Level::kOff) {
        rec = lease.prepare_recorder(r, opts.resolved_threads());
      }
    } else {
      bypass_runs_.fetch_add(1, std::memory_order_relaxed);
    }
    // sort_run destroys the Engine before it returns, i.e. before ~Lease.
    const bool ok = detail::sort_run(
        data, opts, stats, cmp, plan, /*assemble_into_data=*/true, arena, rec,
        [this, plan](detail::Engine<T, Compare>& engine, std::uint32_t width) {
          if (width == 1) {
            engine.run_worker(0, plan);
            caller_only_runs_.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          EngineCtx<T, Compare, Plan> ctx{&engine, plan};
          const BlockingRun h = begin_blocking(&decltype(ctx)::entry, &ctx, width);
          finish_blocking(h, engine.run_worker(0, plan));
        });
    runs_.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }

  // Enqueue a job handing out worker ids [1, workers) to parked workers
  // and wake them.  The caller runs its own id (0) directly and then calls
  // finish_blocking.
  BlockingRun begin_blocking(JobFn fn, void* ctx, std::uint32_t workers);

  // Close out a blocking run: stop further claims if the caller already
  // completed the job, drain still-unclaimed ids on the calling thread,
  // wait for in-flight claims, retire the slot.
  void finish_blocking(BlockingRun h, bool caller_completed);

  // Parked worker loop: claim + execute one id of the oldest claimable run.
  void worker_main();

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // parked workers <- new claimable jobs
  std::condition_variable cv_done_;  // submitters <- claims finished / slots freed
  Slot slots_[kRunSlots];
  std::uint64_t head_ = 0;  // oldest unretired ring position
  std::uint64_t tail_ = 0;  // next free ring position
  std::uint64_t gen_ = 0;
  bool stop_ = false;
  std::uint64_t wake_ns_ = 0;  // guarded by mu_
  std::vector<std::jthread> workers_;

  // The recycled storage; `busy_` serializes runs on it.  A contended
  // arena is bypassed, never waited on.
  std::atomic<bool> busy_{false};
  RunArena arena_;
  std::unique_ptr<telemetry::Recorder> recorder_;
  RunArena::Totals arena_totals_;  // last-release snapshot (mu_)

  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> caller_only_runs_{0};
  std::atomic<std::uint64_t> bypass_runs_{0};
};

// The lazily-created process-wide pool the CLI routes through.  First call
// spawns the workers; subsequent calls are a load.
SortPool& default_pool();

}  // namespace wfsort
