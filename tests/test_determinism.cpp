// Golden determinism suite for the simulator's round engine.
//
// For fixed seeds, a run's observable behavior — round count, op count,
// contention, QRQW time, and the full served-operation stream (order
// included, folded into an FNV-1a hash by pram::HashTracer) — is pinned to
// golden constants.  Any engine refactor must reproduce them bit-for-bit.
//
// The goldens were recorded from the flat-array round engine, whose
// canonical within-round serving order is first-touch (the order the
// stepping list first names each cell).  The pre-flat-array engine served
// cells in std::unordered_map iteration order — an accident of the
// container (and of the standard library's bucket layout), not a spec —
// so its executions differ from these goldens in which equally-valid CRCW
// arbitration stream they realize; aggregate invariants (sortedness, the
// one-winner-per-round CAS property, wait-free step bounds) hold in both.
// First-touch order is the defined behavior from here on.
//
// Every golden is checked at sim_threads 1, 2, and 4 (par_round_min = 1 so
// even narrow rounds go through the sharded engine): MachineOptions::
// sim_threads is a throughput knob, never a behavior knob, and this suite is
// what pins that contract.  ParallelEngineFullObservables goes beyond the
// fingerprint and compares the complete metrics surface — per-cell
// contention histogram, region attribution, hottest cell/round, per-
// processor op and finish-step vectors — between thread counts.
//
// If an *intentional* behavior change ever touches these numbers, re-record
// by running this binary and copying the "recorded:" lines it prints.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pram/machine.h"
#include "pram/scheduler.h"
#include "pram/trace.h"
#include "pramsort/driver.h"

namespace {

// Thread counts every golden is exercised at.  1 is the sequential engine;
// 2 and 4 shard the same rounds and must not change a single observable.
constexpr std::uint32_t kThreadSweep[] = {1, 2, 4};

struct RunFingerprint {
  std::uint64_t rounds = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t max_cell_contention = 0;
  std::uint64_t qrqw_time = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_hash = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

std::ostream& operator<<(std::ostream& os, const RunFingerprint& f) {
  return os << "{" << f.rounds << "ULL, " << f.total_ops << "ULL, " << f.max_cell_contention
            << "ULL, " << f.qrqw_time << "ULL, " << f.trace_events << "ULL, 0x" << std::hex
            << f.trace_hash << std::dec << "ULL}";
}

std::vector<pram::Word> golden_keys(std::size_t n, std::uint64_t seed) {
  std::vector<pram::Word> keys(n);
  std::iota(keys.begin(), keys.end(), pram::Word{0});
  wfsort::Rng rng(seed);
  rng.shuffle(std::span<pram::Word>(keys));
  return keys;
}

pram::MachineOptions machine_opts(pram::MemoryModel model, std::uint32_t sim_threads) {
  return pram::MachineOptions{.memory_model = model,
                              .sim_threads = sim_threads,
                              .par_round_min = 1};
}

RunFingerprint fingerprint(const pram::Machine& m, const pram::RunResult& run,
                           const pram::HashTracer& tracer) {
  return RunFingerprint{run.rounds,
                        m.metrics().total_ops(),
                        m.metrics().max_cell_contention(),
                        m.metrics().qrqw_time(),
                        tracer.total_events(),
                        tracer.hash()};
}

RunFingerprint det_sort_fingerprint(pram::MemoryModel model, std::size_t n, std::uint32_t procs,
                                    pram::Scheduler& sched, std::uint32_t sim_threads = 1) {
  pram::Machine m(machine_opts(model, sim_threads));
  pram::HashTracer tracer;
  m.set_tracer(&tracer);
  auto keys = golden_keys(n, /*seed=*/1234);
  auto res = wfsort::sim::run_det_sort(m, keys, procs, sched);
  EXPECT_TRUE(res.run.all_finished);
  EXPECT_TRUE(res.sorted);
  if (sim_threads > 1) {
    // Every served round must actually have gone through the sharded engine.
    EXPECT_GT(m.commit_stats().par_rounds, 0u);
    EXPECT_EQ(m.commit_stats().seq_rounds, 0u);
  }
  return fingerprint(m, res.run, tracer);
}

RunFingerprint lc_sort_fingerprint(std::size_t n, std::uint32_t procs,
                                   std::uint32_t sim_threads = 1) {
  pram::Machine m(machine_opts(pram::MemoryModel::kCrcw, sim_threads));
  pram::HashTracer tracer;
  m.set_tracer(&tracer);
  auto keys = golden_keys(n, /*seed=*/98765);
  auto res = wfsort::sim::run_lc_sort_sync(m, keys, procs);
  EXPECT_TRUE(res.run.all_finished);
  EXPECT_TRUE(res.sorted);
  return fingerprint(m, res.run, tracer);
}

void check(const char* label, const RunFingerprint& golden, const RunFingerprint& actual,
           std::uint32_t sim_threads = 1) {
  if (sim_threads == 1) std::cout << "recorded: " << label << " = " << actual << "\n";
  EXPECT_EQ(golden.rounds, actual.rounds) << label << " t=" << sim_threads;
  EXPECT_EQ(golden.total_ops, actual.total_ops) << label << " t=" << sim_threads;
  EXPECT_EQ(golden.max_cell_contention, actual.max_cell_contention)
      << label << " t=" << sim_threads;
  EXPECT_EQ(golden.qrqw_time, actual.qrqw_time) << label << " t=" << sim_threads;
  EXPECT_EQ(golden.trace_events, actual.trace_events) << label << " t=" << sim_threads;
  EXPECT_EQ(golden.trace_hash, actual.trace_hash) << label << " t=" << sim_threads;
}

// Goldens recorded from the pre-flat-array engine (see file comment).
constexpr RunFingerprint kDetSyncCrcw = {239ULL, 22520ULL, 95ULL, 3074ULL, 22520ULL,
                                         0xff0e48765224d81dULL};
constexpr RunFingerprint kDetSyncStall = {408ULL, 8339ULL, 63ULL, 10993ULL, 8339ULL,
                                          0xe5c2fd7ae137ab13ULL};
constexpr RunFingerprint kDetRoundRobin = {1819ULL, 5453ULL, 3ULL, 2082ULL, 5453ULL,
                                           0xcb3354741931f829ULL};
constexpr RunFingerprint kDetHalfFreeze = {401ULL, 9410ULL, 24ULL, 1700ULL, 9410ULL,
                                           0x931156cdbad4b695ULL};
constexpr RunFingerprint kLcSync = {773ULL, 70098ULL, 23ULL, 2755ULL, 70098ULL,
                                    0x45cec530dfa092d4ULL};

TEST(Determinism, DetSortSynchronousCrcwMatchesGolden) {
  for (std::uint32_t t : kThreadSweep) {
    pram::SynchronousScheduler sched;
    check("kDetSyncCrcw", kDetSyncCrcw,
          det_sort_fingerprint(pram::MemoryModel::kCrcw, /*n=*/96, /*procs=*/96, sched, t), t);
  }
}

TEST(Determinism, DetSortSynchronousStallMatchesGolden) {
  for (std::uint32_t t : kThreadSweep) {
    pram::SynchronousScheduler sched;
    check("kDetSyncStall", kDetSyncStall,
          det_sort_fingerprint(pram::MemoryModel::kStall, /*n=*/64, /*procs=*/64, sched, t), t);
  }
}

TEST(Determinism, DetSortRoundRobinMatchesGolden) {
  for (std::uint32_t t : kThreadSweep) {
    pram::RoundRobinScheduler sched(/*width=*/3);
    check("kDetRoundRobin", kDetRoundRobin,
          det_sort_fingerprint(pram::MemoryModel::kCrcw, /*n=*/32, /*procs=*/32, sched, t), t);
  }
}

TEST(Determinism, DetSortHalfFreezeMatchesGolden) {
  for (std::uint32_t t : kThreadSweep) {
    pram::HalfFreezeScheduler sched(/*period=*/4);
    check("kDetHalfFreeze", kDetHalfFreeze,
          det_sort_fingerprint(pram::MemoryModel::kCrcw, /*n=*/48, /*procs=*/48, sched, t), t);
  }
}

TEST(Determinism, LcSortSynchronousMatchesGolden) {
  for (std::uint32_t t : kThreadSweep) {
    check("kLcSync", kLcSync, lc_sort_fingerprint(/*n=*/96, /*procs=*/96, t), t);
  }
}

// The fingerprint must also be stable across repeated runs in one process
// (schedulers and machines are freshly constructed each time).
TEST(Determinism, RepeatedRunsAreBitIdentical) {
  pram::SynchronousScheduler s1, s2;
  const auto a = det_sort_fingerprint(pram::MemoryModel::kCrcw, 64, 64, s1);
  const auto b = det_sort_fingerprint(pram::MemoryModel::kCrcw, 64, 64, s2);
  EXPECT_EQ(a, b);
}

// Beyond the fingerprint: the parallel engine must reproduce the *entire*
// metrics surface, including the order-sensitive pieces (which cell holds
// the hottest-cell title on ties, and in which round it was set), the full
// contention histogram, per-region attribution, and both per-processor step
// vectors.
TEST(Determinism, ParallelEngineFullObservables) {
  struct Observed {
    RunFingerprint fp;
    std::vector<std::uint64_t> hist;
    std::map<std::string, std::size_t> regions;
    pram::Addr hottest_addr;
    std::uint64_t hottest_round;
    std::uint64_t stalls;
    std::vector<std::uint64_t> proc_ops;
    std::vector<std::uint64_t> finish_steps;
  };
  auto observe = [](pram::MemoryModel model, std::uint32_t sim_threads) {
    pram::Machine m(machine_opts(model, sim_threads));
    pram::HashTracer tracer;
    m.set_tracer(&tracer);
    pram::HalfFreezeScheduler sched(/*period=*/4);
    auto keys = golden_keys(/*n=*/80, /*seed=*/424242);
    auto res = wfsort::sim::run_det_sort(m, keys, /*procs=*/80, sched);
    EXPECT_TRUE(res.sorted);
    const pram::Metrics& mx = m.metrics();
    Observed o;
    o.fp = fingerprint(m, res.run, tracer);
    const wfsort::Histogram& h = mx.contention_histogram();
    for (std::size_t b = 0; b < h.buckets(); ++b) o.hist.push_back(h.count(b));
    o.regions = mx.region_contention();
    o.hottest_addr = mx.hottest_addr();
    o.hottest_round = mx.hottest_round();
    o.stalls = mx.stalls();
    o.proc_ops = mx.proc_ops();
    o.finish_steps = mx.finish_steps();
    return o;
  };
  for (pram::MemoryModel model : {pram::MemoryModel::kCrcw, pram::MemoryModel::kStall}) {
    const Observed seq = observe(model, 1);
    for (std::uint32_t t : {2u, 4u}) {
      const Observed par = observe(model, t);
      EXPECT_EQ(seq.fp, par.fp) << "t=" << t;
      EXPECT_EQ(seq.hist, par.hist) << "t=" << t;
      EXPECT_EQ(seq.regions, par.regions) << "t=" << t;
      EXPECT_EQ(seq.hottest_addr, par.hottest_addr) << "t=" << t;
      EXPECT_EQ(seq.hottest_round, par.hottest_round) << "t=" << t;
      EXPECT_EQ(seq.stalls, par.stalls) << "t=" << t;
      EXPECT_EQ(seq.proc_ops, par.proc_ops) << "t=" << t;
      EXPECT_EQ(seq.finish_steps, par.finish_steps) << "t=" << t;
    }
  }
}

}  // namespace
