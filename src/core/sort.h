// Public API of the wait-free sorter.
//
//   std::vector<std::uint64_t> v = ...;
//   wfsort::sort(std::span<std::uint64_t>(v));                  // defaults
//   wfsort::sort(std::span(v), {.threads = 8,
//                               .variant = wfsort::Variant::kLowContention});
//
// The call blocks until the array is sorted.  The caller is worker 0 of the
// paper's three phases and, below kCallerOnlyCutoff (2^13) elements, the
// only one; larger inputs add workers 1..P-1 on threads of their own.  Every
// phase is wait-free, so the sort completes as long as at least one worker
// keeps running — the fault-injection entry point sort_with_faults() (and
// the SortSession API in session.h) demonstrates exactly that.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "core/detail/engine.h"
#include "core/options.h"
#include "runtime/fault_plan.h"
#include "telemetry/monitor.h"
#include "telemetry/recorder.h"

namespace wfsort {

// Below this input size a fault-free run has one worker, worker 0, on the
// caller: wait-freedom makes one worker always sufficient, so a small sort
// is a plain function call instead of P-1 thread starts (or wakes) and a
// join.  It is the one cutoff of wfsort::sort, sort_permutation, Sorter and
// SortPool.  Median per-call wall of a pooled sort on a 4-vCPU host
// (det-partition, t = 4, 400 alternating pooled and cold calls per size,
// 4 runs):
//
//   N     caller-only     wake path
//   2^14  0.83-0.91 ms    0.50-0.58 ms
//   2^13  0.47-0.50 ms    0.34-0.36 ms
//   2^12  0.14-0.22 ms    0.25 ms
//
// A new pool plus its first call at 2^14 took 0.88-1.19 ms caller-only
// against 0.64-0.66 ms on the wake path.  2^10 runs caller-only either way.
inline constexpr std::uint64_t kCallerOnlyCutoff = std::uint64_t{1} << 13;

namespace detail {

// How many workers a run uses, ids 0..width-1 with id 0 on the caller: the
// one rule of every blocking entry point.  A fault-free run below
// kCallerOnlyCutoff is the caller alone; every other run has all `threads`.
// A fault plan always gets every worker id, even an empty plan, because its
// schedule is written against ids.
inline std::uint32_t run_width(std::uint64_t n, std::uint32_t threads, bool faulted) {
  return faulted || n >= kCallerOnlyCutoff ? threads : 1;
}

// The one-shot entry points' thread driver: run workers 0..width-1 over
// `engine` under `plan` and join them.  The caller runs worker 0 itself
// rather than waiting in the join, and ids 1..width-1 get jthreads of their
// own, so a width-1 run starts no thread.  The phase scratch kept in
// thread_locals (the DFS stacks, PartitionLocal, the bucket scratch) therefore
// stays allocated in the caller's thread after the call, as it does for
// SortPool's caller.  `Plan` is runtime::FaultPlan* or std::nullptr_t; like
// the telemetry nullptr, the latter lets the compiler drop every fault
// checkpoint of a fault-free run.
template <typename T, typename Compare, typename Plan = std::nullptr_t>
void run_workers(Engine<T, Compare>& engine, std::uint32_t width, Plan plan = nullptr) {
  std::vector<std::jthread> threads;  // joined on return, after worker 0
  threads.reserve(width - 1);
  for (std::uint32_t tid = 1; tid < width; ++tid) {
    threads.emplace_back([&engine, tid, plan] { engine.run_worker(tid, plan); });
  }
  engine.run_worker(0, plan);
}

// Build and start the run's live monitor over the engine's Recorder.
// Returns null — and the sort runs exactly as before — when there is no
// Recorder (N <= 1) or the sink cannot be opened.
inline std::unique_ptr<telemetry::Monitor> start_monitor(
    const telemetry::Recorder* rec, const Options& opts, std::uint64_t n) {
  if (rec == nullptr) return nullptr;
  telemetry::Monitor::Config cfg;
  cfg.path = opts.monitor_path;
  cfg.interval_ms = opts.monitor_interval_ms;
  cfg.source = "native";
  cfg.config.set("variant",
                 opts.variant == Variant::kLowContention ? "lc" : "det");
  cfg.config.set("n", static_cast<std::int64_t>(n));
  cfg.config.set("threads", static_cast<std::int64_t>(opts.resolved_threads()));
  cfg.config.set("seed", static_cast<std::int64_t>(opts.seed));
  cfg.config.set("ring_capacity", static_cast<std::int64_t>(opts.ring_capacity));
  auto mon = std::make_unique<telemetry::Monitor>(rec, std::move(cfg));
  if (!mon->ok()) return nullptr;
  mon->start();
  return mon;
}

// The one run of every blocking entry point (sort, sort_with_faults and
// sort_permutation here, SortPool's two in pool.h): take the run's width from
// run_width, build the engine over `arena` and `rec` (null: the engine makes
// its own if recording_for says the run records), let `drive(engine, width)`
// run workers 0..width-1 until none is left running, and deliver the output
// if some worker completed.  `plan` is a runtime::FaultPlan* (a faulted run)
// or nullptr; `assemble_into_data` is false only for sort_permutation, whose
// input stays untouched.  `stats`, if given, is filled from the run's Report
// after the join.  Returns whether some worker completed.
template <typename T, typename Compare, typename Plan, typename Drive>
bool sort_run(std::span<T> data, const Options& opts, SortStats* stats, Compare cmp,
              Plan plan, bool assemble_into_data, RunArena* arena,
              telemetry::Recorder* rec, Drive drive) {
  const std::uint32_t width =
      run_width(data.size(), opts.resolved_threads(), plan != nullptr);
  // A live monitor needs telemetry on (so the engine holds a Recorder), a
  // sink path and a sampling interval; every other run skips the clock read
  // and the monitor plumbing entirely.
  const bool monitored = opts.telemetry != telemetry::Level::kOff &&
                         opts.monitor_interval_ms != 0 && !opts.monitor_path.empty();
  const auto t_start = monitored ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
  Engine<T, Compare> engine(data, cmp, opts, assemble_into_data, arena, rec,
                            /*want_stats=*/stats != nullptr, width);
  auto monitor =
      monitored ? start_monitor(engine.recorder(), opts, data.size()) : nullptr;
  drive(engine, width);
  const bool ok = engine.result_ready();
  if (ok) {
    engine.finalize();
  } else {
    // No finalize on failure, but the partial telemetry timeline (truncated
    // spans of the crashed workers) is still wanted by the fault tooling.
    engine.snapshot_telemetry();
  }
  if (monitor != nullptr) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t_start);
    monitor->note_job(static_cast<std::uint64_t>(us.count()));
    monitor->stop();
  }
  if (stats != nullptr) *stats = engine.stats();
  return ok;
}

}  // namespace detail

// Sort `data` in place.  `stats`, if given, receives per-run diagnostics.
template <typename T, typename Compare = std::less<T>>
void sort(std::span<T> data, const Options& opts = {}, SortStats* stats = nullptr,
          Compare cmp = Compare{}) {
  detail::sort_run(data, opts, stats, cmp, nullptr, /*assemble_into_data=*/true, nullptr,
                   nullptr, [](auto& engine, std::uint32_t width) {
                     detail::run_workers(engine, width);
                   });
}

// Sort under a fault plan (crashes / page-fault sleeps injected into chosen
// workers).  Returns true if the sort completed — i.e. at least one worker
// survived; on false `data` is untouched.  This is the wait-freedom
// experiment harness (E9).  Every one of the `threads` workers runs, at any
// N: the plan names worker ids.
template <typename T, typename Compare = std::less<T>>
bool sort_with_faults(std::span<T> data, const Options& opts, runtime::FaultPlan& plan,
                      SortStats* stats = nullptr, Compare cmp = Compare{}) {
  return detail::sort_run(data, opts, stats, cmp, &plan, /*assemble_into_data=*/true,
                          nullptr, nullptr,
                          [&plan](auto& engine, std::uint32_t width) {
                            detail::run_workers(engine, width, &plan);
                          });
}

// Compute the sorting permutation without moving the data: perm[rank] is
// the index of the element with that rank (i.e. data[perm[0]] <= ... <=
// data[perm[n-1]], ties by index).  Useful when elements are heavyweight or
// must stay in place; runs the same wait-free phases, skipping only the
// final copy-back.  `stats`, if given, receives per-run diagnostics (none
// for N <= 1).
template <typename T, typename Compare = std::less<T>>
std::vector<std::uint32_t> sort_permutation(std::span<const T> data,
                                            const Options& opts = {},
                                            Compare cmp = Compare{},
                                            SortStats* stats = nullptr) {
  std::vector<std::uint32_t> perm(data.size());
  if (data.size() <= 1) {
    if (data.size() == 1) perm[0] = 0;
    return perm;
  }
  // The engine never writes the input: copy-back is disabled below and the
  // const_cast span is only a formality of its (normally in-place) interface.
  std::span<T> mutable_view(const_cast<T*>(data.data()), data.size());
  detail::sort_run(mutable_view, opts, stats, cmp, nullptr, /*assemble_into_data=*/false,
                   nullptr, nullptr, [&perm](auto& engine, std::uint32_t width) {
                     detail::run_workers(engine, width);
                     WFSORT_CHECK(engine.result_ready());
                     engine.output().permutation(perm);
                   });
  return perm;
}

// Object form for repeated sorts with fixed options.
template <typename T, typename Compare = std::less<T>>
class Sorter {
 public:
  explicit Sorter(Options opts = {}, Compare cmp = Compare{})
      : opts_(opts), cmp_(cmp) {}

  void operator()(std::span<T> data) { sort(data, opts_, &last_stats_, cmp_); }

  const Options& options() const { return opts_; }
  const SortStats& last_stats() const { return last_stats_; }

 private:
  Options opts_;
  Compare cmp_;
  SortStats last_stats_{};
};

}  // namespace wfsort
