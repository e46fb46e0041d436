// Public API of the wait-free sorter.
//
//   std::vector<std::uint64_t> v = ...;
//   wfsort::sort(std::span<std::uint64_t>(v));                  // defaults
//   wfsort::sort(std::span(v), {.threads = 8,
//                               .variant = wfsort::Variant::kLowContention});
//
// The call blocks until the array is sorted.  Internally P worker threads
// execute the paper's three phases; every phase is wait-free, so the sort
// completes as long as at least one worker keeps running — the fault-
// injection entry point sort_with_faults() (and the SortSession API in
// session.h) demonstrates exactly that.
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

namespace detail {

// The one thread driver of the one-shot entry points: run `workers` workers
// (tids 0..workers-1) over `engine` under `plan` and join them.  One worker,
// or an input with nothing to sort, runs inline on the caller.  `Plan` is
// runtime::FaultPlan* or std::nullptr_t; like the telemetry nullptr, the
// latter lets the compiler drop every fault checkpoint of a fault-free run.
template <typename T, typename Compare, typename Plan = std::nullptr_t>
void run_workers(Engine<T, Compare>& engine, std::uint32_t workers,
                 Plan plan = nullptr) {
  if (workers <= 1 || engine.size() <= 1) {
    engine.run_worker(0, plan);
    return;
  }
  std::vector<std::jthread> threads;  // joined on return
  threads.reserve(workers);
  for (std::uint32_t tid = 0; tid < workers; ++tid) {
    threads.emplace_back([&engine, tid, plan] { engine.run_worker(tid, plan); });
  }
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

// The one run of every blocking entry point (sort and sort_with_faults here,
// SortPool's two in pool.h): build the engine over `arena` and `rec` (null:
// the engine makes its own if recording_for says the run records), let
// `drive(engine)` run workers until none is left running, and deliver the
// output if some worker completed.  `stats`, if given, is filled from the
// run's Report after the join.  Returns whether some worker completed.
template <typename T, typename Compare, typename Drive>
bool sort_run(std::span<T> data, const Options& opts, SortStats* stats, Compare cmp,
              RunArena* arena, telemetry::Recorder* rec, Drive drive) {
  // A live monitor needs telemetry on (so the engine holds a Recorder), a
  // sink path and a sampling interval; every other run skips the clock read
  // and the monitor plumbing entirely.
  const bool monitored = opts.telemetry != telemetry::Level::kOff &&
                         opts.monitor_interval_ms != 0 && !opts.monitor_path.empty();
  const auto t_start = monitored ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
  Engine<T, Compare> engine(data, cmp, opts, /*assemble_into_data=*/true, arena, rec,
                            /*want_stats=*/stats != nullptr);
  auto monitor =
      monitored ? start_monitor(engine.recorder(), opts, data.size()) : nullptr;
  drive(engine);
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
  detail::sort_run(data, opts, stats, cmp, nullptr, nullptr, [&opts](auto& engine) {
    detail::run_workers(engine, opts.resolved_threads());
  });
}

// Sort under a fault plan (crashes / page-fault sleeps injected into chosen
// workers).  Returns true if the sort completed — i.e. at least one worker
// survived; on false `data` is untouched.  This is the wait-freedom
// experiment harness (E9).
template <typename T, typename Compare = std::less<T>>
bool sort_with_faults(std::span<T> data, const Options& opts, runtime::FaultPlan& plan,
                      SortStats* stats = nullptr, Compare cmp = Compare{}) {
  return detail::sort_run(data, opts, stats, cmp, nullptr, nullptr,
                          [&opts, &plan](auto& engine) {
                            detail::run_workers(engine, opts.resolved_threads(), &plan);
                          });
}

// Compute the sorting permutation without moving the data: perm[rank] is
// the index of the element with that rank (i.e. data[perm[0]] <= ... <=
// data[perm[n-1]], ties by index).  Useful when elements are heavyweight or
// must stay in place; runs the same wait-free phases, skipping only the
// final copy-back.
template <typename T, typename Compare = std::less<T>>
std::vector<std::uint32_t> sort_permutation(std::span<const T> data,
                                            const Options& opts = {},
                                            Compare cmp = Compare{}) {
  std::vector<std::uint32_t> perm(data.size());
  if (data.size() <= 1) {
    if (data.size() == 1) perm[0] = 0;
    return perm;
  }
  // The engine never writes the input: copy-back is disabled below and the
  // const_cast span is only a formality of its (normally in-place) interface.
  std::span<T> mutable_view(const_cast<T*>(data.data()), data.size());
  detail::Engine<T, Compare> engine(mutable_view, cmp, opts,
                                    /*assemble_into_data=*/false);
  detail::run_workers(engine, opts.resolved_threads());
  WFSORT_CHECK(engine.result_ready());
  engine.output().permutation(perm);
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
