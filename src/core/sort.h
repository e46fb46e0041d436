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

#include "core/detail/engine.h"
#include "core/detail/run_glue.h"
#include "core/options.h"
#include "runtime/fault_plan.h"
#include "telemetry/monitor.h"

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

// The one-shot run behind sort and sort_with_faults: build the engine, run
// the workers under `plan` (a FaultPlan*, or nullptr for no faults) and
// deliver the output if some worker completed.  Returns whether one did.
template <typename T, typename Compare, typename Plan>
bool sort_run(std::span<T> data, const Options& opts, Plan plan, SortStats* stats,
              Compare cmp) {
  // With telemetry off there is no Recorder, hence no monitor: skip the
  // clock read and the monitor plumbing entirely on the untraced path.
  const bool monitored = monitor_wanted(opts);
  const auto t_start = monitored ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
  Engine<T, Compare> engine(data, cmp, opts);
  auto monitor =
      monitored ? make_monitor(engine.recorder(), opts, data.size()) : nullptr;
  run_workers(engine, opts.resolved_threads(), plan);
  const bool ok = engine.result_ready();
  if (ok) {
    engine.finalize();
  } else {
    // No finalize on failure, but the partial telemetry timeline (truncated
    // spans of the crashed workers) is still wanted by the fault tooling.
    engine.snapshot_telemetry();
  }
  finish_monitor(monitor.get(), t_start);
  if (stats != nullptr) *stats = engine.stats();
  return ok;
}

}  // namespace detail

// Sort `data` in place.  `stats`, if given, receives per-run diagnostics.
template <typename T, typename Compare = std::less<T>>
void sort(std::span<T> data, const Options& opts = {}, SortStats* stats = nullptr,
          Compare cmp = Compare{}) {
  detail::sort_run(data, opts, nullptr, stats, cmp);
}

// Sort under a fault plan (crashes / page-fault sleeps injected into chosen
// workers).  Returns true if the sort completed — i.e. at least one worker
// survived; on false `data` is untouched.  This is the wait-freedom
// experiment harness (E9).
template <typename T, typename Compare = std::less<T>>
bool sort_with_faults(std::span<T> data, const Options& opts, runtime::FaultPlan& plan,
                      SortStats* stats = nullptr, Compare cmp = Compare{}) {
  return detail::sort_run(data, opts, &plan, stats, cmp);
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
  void sort_span(std::span<T> data) { (*this)(data); }

  const Options& options() const { return opts_; }
  const SortStats& last_stats() const { return last_stats_; }

 private:
  Options opts_;
  Compare cmp_;
  SortStats last_stats_{};
};

}  // namespace wfsort
