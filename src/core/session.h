// SortSession — the paper's operating-system scenario as an API.
//
// Section 1: "begin the sort by spawning a thread for each idle processor
// ... if a processor is needed elsewhere, reap its thread without fear of
// leaving the program's data structures in an inconsistent state ... if
// other processors become free, spawn more threads to speed up the sort."
//
// A session owns one in-flight sort.  Workers can be added (spawn_worker)
// and cooperatively reaped (reap_worker — the thread exits at its next
// checkpoint, exactly the fault model's crash) at any time.  wait() joins
// the remaining workers; if every worker was reaped before the sort
// finished, the calling thread completes the sort itself — wait-freedom
// makes that always possible and always safe.
//
// Each spawned worker is a std::jthread of its own: the paper's spawn and
// reap, on real threads.  The engine keeps a private arena, since a session
// lives arbitrarily long.  A session always records (its stats are read off
// the Report), with a scratch slot for every worker id it can hand out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/detail/engine.h"
#include "core/options.h"
#include "runtime/fault_plan.h"

namespace wfsort {

template <typename T, typename Compare = std::less<T>>
class SortSession {
 public:
  // Maximum spawned workers over the session's lifetime.  Ids are never
  // reused and each one needs a telemetry scratch slot; the last slot's id,
  // kMaxWorkers, is reserved for wait() finishing a fully reaped sort.
  static constexpr std::uint32_t kMaxWorkers = detail::kTelemetrySlots - 1;

  explicit SortSession(std::span<T> data, Options opts = {}, Compare cmp = Compare{})
      : recorder_(make_recorder(opts, data.size())),
        engine_(data, cmp, opts, /*assemble_into_data=*/true, /*arena=*/nullptr,
                recorder_.get()),
        plan_(kMaxWorkers) {}

  ~SortSession() { wait(); }

  SortSession(const SortSession&) = delete;
  SortSession& operator=(const SortSession&) = delete;

  // Add a worker thread; returns its id (usable with reap_worker).
  std::uint32_t spawn_worker() {
    std::lock_guard<std::mutex> lock(mu_);
    WFSORT_CHECK(!finalized_);
    WFSORT_CHECK(next_tid_ < kMaxWorkers);
    const std::uint32_t tid = next_tid_++;
    threads_.emplace_back([this, tid] { engine_.run_worker(tid, &plan_); });
    return tid;
  }

  // Ask worker `tid` to stop at its next step ("the processor is needed
  // elsewhere").  Returns immediately; the thread exits on its own.
  void reap_worker(std::uint32_t tid) { plan_.stop_now(tid); }

  // True once some worker has run every phase — the result is complete
  // (wait() still must be called to copy it into the caller's buffer).
  bool finished() const { return engine_.result_ready(); }

  // Join all workers; if none completed (everyone was reaped), finish the
  // sort on the calling thread; then deliver the result.  Idempotent.
  void wait() {
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_) return;
    threads_.clear();  // join
    if (!engine_.result_ready()) {
      engine_.run_worker(next_tid_++);  // no plan: runs to completion
    }
    engine_.finalize();
    finalized_ = true;
  }

  // The run's statistics, read off its Report: the counters stay zero until
  // wait() has joined the workers and taken the snapshot.  Safe to call
  // from any thread, concurrently with wait().
  SortStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return engine_.stats();
  }

  // The run's telemetry snapshot: null until wait() has joined the workers
  // (the per-worker scratch is unsynchronized) and for N <= 1.  A session
  // always records, at kPhases or above, since its stats come from here.
  std::shared_ptr<const telemetry::Report> telemetry() const {
    std::lock_guard<std::mutex> lock(mu_);
    return engine_.telemetry_report();
  }

 private:
  static std::unique_ptr<telemetry::Recorder> make_recorder(const Options& opts,
                                                            std::size_t n) {
    const detail::Recording r = detail::recording_for(opts, /*want_stats=*/true, n);
    if (r.level == telemetry::Level::kOff) return nullptr;
    return std::make_unique<telemetry::Recorder>(r.level, detail::kTelemetrySlots,
                                                 r.ring_capacity);
  }

  std::unique_ptr<telemetry::Recorder> recorder_;  // outlives engine_
  detail::Engine<T, Compare> engine_;
  runtime::FaultPlan plan_;
  mutable std::mutex mu_;
  std::vector<std::jthread> threads_;
  std::uint32_t next_tid_ = 0;
  bool finalized_ = false;
};

}  // namespace wfsort
