// Deterministic fuzzer: random configurations, random fault plans, full
// validation.  Not a libFuzzer target (the environment is offline); a
// seeded loop that shakes the whole stack:
//
//   * native sorter: random (n, threads, variant, phase 1, distribution,
//     crash/sleep plan); result must be the sorted permutation whenever at
//     least one worker survives, and untouched otherwise.  The native engine
//     has one phase-3 pruning rule, so every draw may take a fault plan.
//     Half the det-partition draws order keys by their high 48 bits only,
//     so equivalent keys differ and the buckets must sort (key, index)
//     pairs; the result must then equal std::stable_sort's.  About a
//     quarter of the draws run through one process-lifetime SortPool(4)
//     (sort or sort_with_faults, same oracle), so its recycled arena meets
//     random sequences of n, variant, phase 1 and comparator on top of the
//     previous draws' stale bytes;
//   * simulator sorter: random (n, procs, variant, pruning rule, scheduler,
//     memory model); deterministic runs get full structural validation.
//   * fault scripts: a random FaultScript (kills, stalls, suspend/revive
//     pairs) against a random scenario on either substrate, judged by the
//     scenario runner (mid-run oracle + hang detection + full validation).
//     A failure is written to --artifact as a replay artifact, so
//     `wfsort replay <file>` reproduces exactly what the fuzzer saw.
//
//   fuzz_sort --iters=200 --seed=1
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "core/pool.h"
#include "core/sort.h"
#include "exp/workloads.h"
#include "pram/machine.h"
#include "pram/scheduler.h"
#include "pramsort/driver.h"
#include "pramsort/validate.h"
#include "runtime/scenario.h"
#include "runtime/search.h"

namespace {

using wfsort::Rng;

wfsort::exp::Dist random_dist(Rng& rng) {
  constexpr wfsort::exp::Dist kAll[] = {
      wfsort::exp::Dist::kShuffled,    wfsort::exp::Dist::kUniform,
      wfsort::exp::Dist::kSorted,      wfsort::exp::Dist::kReversed,
      wfsort::exp::Dist::kFewDistinct, wfsort::exp::Dist::kOrganPipe};
  return kAll[rng.below(6)];
}

// Orders keys by their high 48 bits alone: keys that differ only in the low
// 16 bits are equivalent but not identical.
struct High48Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    return (a >> 16) < (b >> 16);
  }
};

// Native draw counts: det-partition draws by bucket element (bare keys
// under std::less, (key, index) pairs under High48Less), and draws routed
// through the SortPool.
struct NativePaths {
  std::uint64_t bare = 0;
  std::uint64_t pairs = 0;
  std::uint64_t pooled = 0;
};

bool fuzz_native_once(Rng& rng, std::uint64_t iter, wfsort::SortPool& pool,
                      NativePaths& paths) {
  const bool pooled = rng.below(4) == 0;
  if (pooled) ++paths.pooled;
  wfsort::Options opts;
  opts.variant = rng.coin() ? wfsort::Variant::kDeterministic
                            : wfsort::Variant::kLowContention;
  if (opts.variant == wfsort::Variant::kDeterministic && rng.coin()) {
    opts.phase1 = wfsort::Phase1::kPartition;
  }
  // Partition runs get one bucket per 2048 elements: up to ~2^15 elements
  // spans 1-16 buckets, so classify and scatter see padded splitter trees.
  const bool partition = opts.phase1 == wfsort::Phase1::kPartition;
  const bool high48 = partition && rng.coin();
  if (partition) ++(high48 ? paths.pairs : paths.bare);
  const std::size_t n = 2 + rng.below(partition ? 33000 : 4000);
  const auto threads = static_cast<std::uint32_t>(1 + rng.below(6));
  opts.threads = threads;
  opts.seed = rng.next();

  auto data = wfsort::exp::make_u64_keys(n, random_dist(rng), rng.next());
  if (high48) {
    // The drawn key moves into the compared bits; random low bits make its
    // repeats equivalent but distinct.
    for (auto& x : data) x = (x << 16) | rng.below(1u << 16);
  }
  auto expected = data;
  if (high48) {
    std::stable_sort(expected.begin(), expected.end(), High48Less{});
  } else {
    std::sort(expected.begin(), expected.end());
  }

  const auto run = [&](auto cmp) {
    const std::span<std::uint64_t> span(data);
    if (!rng.coin()) {
      if (pooled) {
        pool.sort(span, opts, nullptr, cmp);
      } else {
        wfsort::sort(span, opts, nullptr, cmp);
      }
      return true;
    }
    wfsort::runtime::FaultPlan plan(threads);
    const auto kills = static_cast<std::uint32_t>(rng.below(threads));  // keep >= 1 alive
    // Partition runs poll about once per element per sweep; reach all three.
    const std::uint64_t horizon = partition ? 3 * n : 5000;
    for (std::uint32_t k = 0; k < kills; ++k) {
      plan.crash_at(threads - 1 - k, 1 + rng.below(horizon));
    }
    if (rng.coin()) plan.sleep_at(0, 1 + rng.below(100), std::chrono::microseconds(500));
    if (!(pooled ? pool.sort_with_faults(span, opts, plan, nullptr, cmp)
                 : wfsort::sort_with_faults(span, opts, plan, nullptr, cmp))) {
      std::printf("iter %llu: no survivor completed (unexpected: %u kills of %u)\n",
                  static_cast<unsigned long long>(iter), kills, threads);
      return false;
    }
    return true;
  };
  if (!(high48 ? run(High48Less{}) : run(std::less<std::uint64_t>{}))) return false;
  if (data != expected) {
    std::printf(
        "iter %llu: NATIVE SORT WRONG (n=%zu threads=%u variant=%d phase1=%d "
        "high48=%d pooled=%d)\n",
        static_cast<unsigned long long>(iter), n, threads, static_cast<int>(opts.variant),
        static_cast<int>(opts.phase1), static_cast<int>(high48), static_cast<int>(pooled));
    return false;
  }
  return true;
}

bool fuzz_sim_once(Rng& rng, std::uint64_t iter) {
  const std::size_t n = 4 + rng.below(160);
  const auto procs = static_cast<std::uint32_t>(1 + rng.below(n));
  auto keys = wfsort::exp::make_word_keys(n, random_dist(rng), rng.next());

  pram::MachineOptions mopts;
  mopts.seed = rng.next();
  if (rng.below(4) == 0) mopts.memory_model = pram::MemoryModel::kStall;
  pram::Machine m(mopts);

  std::unique_ptr<pram::Scheduler> sched;
  switch (rng.below(4)) {
    case 0: sched = std::make_unique<pram::SynchronousScheduler>(); break;
    case 1: sched = std::make_unique<pram::RoundRobinScheduler>(
                 static_cast<std::uint32_t>(1 + rng.below(procs)));
      break;
    case 2: sched = std::make_unique<pram::RandomSubsetScheduler>(
                 0.2 + 0.7 * rng.uniform01(), rng.next());
      break;
    default: sched = std::make_unique<pram::HalfFreezeScheduler>(1 + rng.below(16)); break;
  }

  if (rng.coin()) {
    wfsort::sim::DetSortConfig cfg;
    const std::uint64_t pr = rng.below(3);
    cfg.prune = pr == 0   ? wfsort::sim::PlacePrune::kNone
                : pr == 1 ? wfsort::sim::PlacePrune::kPlaced
                          : wfsort::sim::PlacePrune::kCompleted;
    cfg.random_first = rng.coin();
    auto res = wfsort::sim::run_det_sort(m, keys, procs, *sched, cfg);
    if (!res.sorted) {
      std::printf("iter %llu: SIM DET SORT WRONG (n=%zu procs=%u)\n",
                  static_cast<unsigned long long>(iter), n, procs);
      return false;
    }
    auto report = wfsort::sim::validate_sort_run(m, res.layout, 0);
    if (!report.ok) {
      std::printf("iter %llu: SIM DET VALIDATION: %s\n",
                  static_cast<unsigned long long>(iter), report.error.c_str());
      return false;
    }
  } else {
    auto res = wfsort::sim::run_lc_sort(m, keys, procs, *sched);
    if (!res.sorted) {
      std::printf("iter %llu: SIM LC SORT WRONG (n=%zu procs=%u)\n",
                  static_cast<unsigned long long>(iter), n, procs);
      return false;
    }
  }
  return true;
}

bool fuzz_script_once(Rng& rng, std::uint64_t iter, const std::string& artifact_path) {
  namespace rt = wfsort::runtime;
  rt::ScenarioSpec spec;
  spec.substrate = rng.below(4) == 0 ? rt::Substrate::kNative : rt::Substrate::kSim;
  const bool sim = spec.substrate == rt::Substrate::kSim;
  spec.n = sim ? 4 + rng.below(120) : 2 + rng.below(2000);
  spec.dist = random_dist(rng);
  spec.workload_seed = rng.next();
  spec.procs = static_cast<std::uint32_t>(2 + rng.below(sim ? 14 : 6));
  spec.variant = rng.coin() ? rt::SortKind::kDet : rt::SortKind::kLc;
  // PlacePrune::kPlaced is documented-unsound under faults; the sound rules
  // must survive anything the script throws at them.  The native engine has
  // only kCompleted.
  spec.prune = sim && rng.coin() ? wfsort::sim::PlacePrune::kNone
                                 : wfsort::sim::PlacePrune::kCompleted;
  spec.random_first = rng.coin();
  spec.machine_seed = rng.next();
  if (sim && rng.below(4) == 0) spec.memory = pram::MemoryModel::kStall;
  const auto scheds = rt::all_sched_specs(spec.procs, rng.next());
  spec.sched = scheds[rng.below(scheds.size())];
  spec.oracle_period = sim && spec.variant == rt::SortKind::kDet ? 32 : 0;

  const std::uint64_t horizon = sim ? spec.n * 16 : std::max<std::uint64_t>(spec.n, 64);
  spec.script = rt::random_script(spec.procs, horizon, rng);
  if (!sim) {
    // The cooperative native plan cannot express suspend/revive; keep the
    // representable events.
    std::vector<rt::FaultEvent> kept;
    for (const rt::FaultEvent& e : spec.script.events) {
      if (e.action == rt::FaultAction::kKill || e.action == rt::FaultAction::kSleep) {
        kept.push_back(e);
      }
    }
    spec.script.events = std::move(kept);
  }
  if (!spec.script.validate(spec.procs).empty()) spec.script = rt::FaultScript{};

  const rt::ScenarioResult res = rt::run_scenario(spec);
  if (res.ok()) return true;

  rt::ReplayArtifact artifact{spec, res.failure, res.detail, res.stats};
  std::printf("iter %llu: SCENARIO FAILED (%s): %s\n",
              static_cast<unsigned long long>(iter),
              rt::failure_kind_name(res.failure), res.detail.c_str());
  if (rt::write_artifact(artifact, artifact_path)) {
    std::printf("  repro written to %s — re-run with: wfsort replay %s\n",
                artifact_path.c_str(), artifact_path.c_str());
  } else {
    std::printf("  (could not write %s)\n", artifact_path.c_str());
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  wfsort::CliFlags flags("fuzz_sort — randomized full-stack validation loop");
  flags.add_u64("iters", 100, "fuzz iterations (native / simulator / fault scripts)");
  flags.add_u64("seed", 12345, "master seed");
  flags.add_string("artifact", "fuzz-repro.json",
                   "where to write the replay artifact of a failing scenario");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.help_text().c_str(), stderr);
    return 0;
  }

  Rng rng(flags.u64("seed"));
  const std::uint64_t iters = flags.u64("iters");
  wfsort::SortPool pool(4);
  NativePaths paths;
  for (std::uint64_t i = 0; i < iters; ++i) {
    bool ok = true;
    switch (i % 3) {
      case 0: ok = fuzz_native_once(rng, i, pool, paths); break;
      case 1: ok = fuzz_sim_once(rng, i); break;
      default: ok = fuzz_script_once(rng, i, flags.str("artifact")); break;
    }
    if (!ok) {
      std::printf("FUZZ FAILURE at iteration %llu (seed %llu)\n",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(flags.u64("seed")));
      return 1;
    }
    if ((i + 1) % 50 == 0) {
      std::printf("  %llu/%llu ok\n", static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(iters));
    }
  }
  std::printf("fuzz: %llu iterations, all validated (det-partition: %llu bare-key, "
              "%llu pair draws; %llu pooled native draws)\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(paths.bare),
              static_cast<unsigned long long>(paths.pairs),
              static_cast<unsigned long long>(paths.pooled));
  return 0;
}
