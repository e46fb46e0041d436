// Performance of the simulator itself (not an experiment about the paper —
// a regression harness for the substrate).  Reports simulated memory
// operations per second for representative workloads so simulator changes
// can be checked for slowdowns.
//
// Each workload sweeps the `simt` dimension (MachineOptions::sim_threads):
// simt:1 is the sequential flat-array engine, simt:2/4 the sharded
// two-phase-commit engine.  Observables are bit-identical across the sweep
// (tests/test_determinism.cpp), so any sim_ops/s difference is pure engine
// overhead or speedup.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <initializer_list>

#include "exp/workloads.h"
#include "pram/machine.h"
#include "pramsort/driver.h"
#include "workalloc/write_all.h"

namespace {

pram::MachineOptions bench_opts(benchmark::State& state) {
  pram::MachineOptions opts;
  opts.sim_threads = static_cast<std::uint32_t>(state.range(1));
  return opts;  // par_round_min stays at its default: honest production config
}

void BM_SimWriteAllWat(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t ops = 0;
  for (auto _ : state) {
    pram::Machine m(bench_opts(state));
    pram::SynchronousScheduler sched;
    auto out = wfsort::sim::write_all_wat(m, n, static_cast<std::uint32_t>(n), sched);
    benchmark::DoNotOptimize(out.complete);
    ops += m.metrics().total_ops();
  }
  state.counters["sim_ops/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}

void BM_SimDetSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto keys = wfsort::exp::make_word_keys(n, wfsort::exp::Dist::kShuffled, 3);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    pram::Machine m(bench_opts(state));
    auto res = wfsort::sim::run_det_sort_sync(m, keys, static_cast<std::uint32_t>(n));
    benchmark::DoNotOptimize(res.sorted);
    ops += m.metrics().total_ops();
  }
  state.counters["sim_ops/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}

void BM_SimLcSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto keys = wfsort::exp::make_word_keys(n, wfsort::exp::Dist::kShuffled, 4);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    pram::Machine m(bench_opts(state));
    auto res = wfsort::sim::run_lc_sort_sync(m, keys, static_cast<std::uint32_t>(n));
    benchmark::DoNotOptimize(res.sorted);
    ops += m.metrics().total_ops();
  }
  state.counters["sim_ops/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}

void sim_thread_sweep(benchmark::internal::Benchmark* b,
                      std::initializer_list<std::int64_t> sizes) {
  b->ArgNames({"n", "simt"});
  for (std::int64_t n : sizes) {
    for (std::int64_t simt : {1, 2, 4}) b->Args({n, simt});
  }
  b->Unit(benchmark::kMillisecond);
}

}  // namespace

BENCHMARK(BM_SimWriteAllWat)->Apply([](benchmark::internal::Benchmark* b) {
  sim_thread_sweep(b, {1 << 10, 1 << 13, 1 << 15});
});
BENCHMARK(BM_SimDetSort)->Apply([](benchmark::internal::Benchmark* b) {
  sim_thread_sweep(b, {1 << 8, 1 << 10, 1 << 12});
});
BENCHMARK(BM_SimLcSort)->Apply([](benchmark::internal::Benchmark* b) {
  sim_thread_sweep(b, {1 << 8});
});

// Custom main instead of BENCHMARK_MAIN(): stamp this binary's own build
// type into the report context (the context's library_build_type describes
// the distro libbenchmark package, not this build) so the bench script can
// refuse to commit debug-build numbers.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("wfsort_build_type", "release");
#else
  benchmark::AddCustomContext("wfsort_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
