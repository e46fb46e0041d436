// Tests for the native wait-free sorter: correctness across workloads,
// thread counts and variants; statistics invariants (Lemma 2.4); behaviour
// under injected crashes and page-fault sleeps (wait-freedom, E9's basis).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "core/pool.h"
#include "core/sort.h"
#include "exp/workloads.h"
#include "runtime/adversaries.h"
#include "runtime/fault_script.h"

namespace {

using wfsort::Options;
using wfsort::Phase1;
using wfsort::Rng;
using wfsort::SortStats;
using wfsort::Variant;
using wfsort::detail::Tuning;
using wfsort::exp::Dist;

// ------------------------------------------------------------ workloads

enum class Workload { kRandom, kSorted, kReversed, kAllEqual, kFewDistinct, kOrganPipe, kRuns };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kRandom: return "random";
    case Workload::kSorted: return "sorted";
    case Workload::kReversed: return "reversed";
    case Workload::kAllEqual: return "all_equal";
    case Workload::kFewDistinct: return "few_distinct";
    case Workload::kOrganPipe: return "organ_pipe";
    case Workload::kRuns: return "runs";
  }
  return "?";
}

std::vector<std::uint64_t> make_workload(Workload w, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  switch (w) {
    case Workload::kRandom:
      for (auto& x : v) x = rng.next();
      break;
    case Workload::kSorted:
      for (std::size_t i = 0; i < n; ++i) v[i] = i * 3;
      break;
    case Workload::kReversed:
      for (std::size_t i = 0; i < n; ++i) v[i] = (n - i) * 3;
      break;
    case Workload::kAllEqual:
      for (auto& x : v) x = 42;
      break;
    case Workload::kFewDistinct:
      for (auto& x : v) x = rng.below(8);
      break;
    case Workload::kOrganPipe:
      for (std::size_t i = 0; i < n; ++i) v[i] = i < n / 2 ? i : n - i;
      break;
    case Workload::kRuns:
      for (std::size_t i = 0; i < n; ++i) v[i] = (i % 64) + 1000 * (i / 64 % 7);
      break;
  }
  return v;
}

// A sort at non-default engine tuning.  The tuning constants are not
// Options; the public entry points run detail::sort_run at Tuning{}, and
// this calls it with `tuning` instead.  A null `plan` runs like sort (the
// caller alone below kCallerOnlyCutoff); a FaultPlan* runs every worker, as
// sort_with_faults does.
template <typename Plan = std::nullptr_t>
bool tuned_sort(std::vector<std::uint64_t>& v, const Options& opts, const Tuning& tuning,
                SortStats* stats = nullptr, Plan plan = nullptr) {
  return wfsort::detail::sort_run(
      std::span<std::uint64_t>(v), opts, stats, std::less<std::uint64_t>{}, plan,
      /*assemble_into_data=*/true, /*arena=*/nullptr, /*rec=*/nullptr,
      [plan](auto& engine, std::uint32_t width) {
        wfsort::detail::run_workers(engine, width, plan);
      },
      tuning);
}

void expect_sorted_permutation(const std::vector<std::uint64_t>& original,
                               const std::vector<std::uint64_t>& result,
                               const std::string& label) {
  ASSERT_EQ(original.size(), result.size()) << label;
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end())) << label;
  std::vector<std::uint64_t> expected = original;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(expected, result) << label;
}

// ------------------------------------------------------------ basics

TEST(SortNative, EmptyAndTiny) {
  for (std::size_t n : {0u, 1u, 2u, 3u}) {
    auto v = make_workload(Workload::kRandom, n, 9 + n);
    auto orig = v;
    wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 2});
    expect_sorted_permutation(orig, v, "n=" + std::to_string(n));
  }
}

TEST(SortNative, SingleThreadRandom) {
  auto v = make_workload(Workload::kRandom, 1000, 1);
  auto orig = v;
  wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 1});
  expect_sorted_permutation(orig, v, "single-thread");
}

TEST(SortNative, CustomComparatorDescending) {
  auto v = make_workload(Workload::kRandom, 500, 2);
  wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 2}, nullptr,
               std::greater<std::uint64_t>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<std::uint64_t>{}));
}

TEST(SortNative, TrivialStructKeyByField) {
  struct Pair {
    std::uint32_t key;
    std::uint32_t payload;
  };
  Rng rng(77);
  std::vector<Pair> v(300);
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    v[i] = {static_cast<std::uint32_t>(rng.below(50)), i};
  }
  auto by_key = [](const Pair& a, const Pair& b) { return a.key < b.key; };
  wfsort::sort(std::span<Pair>(v), Options{.threads = 3}, nullptr, by_key);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), by_key));
  // Every payload still present exactly once (permutation check).
  std::vector<bool> seen(v.size(), false);
  for (const Pair& p : v) {
    ASSERT_LT(p.payload, v.size());
    EXPECT_FALSE(seen[p.payload]);
    seen[p.payload] = true;
  }
}

// Keys wider than 8 bytes: the core's std::atomic<Key> output slots become
// out-of-line libatomic calls, which the library links.  Their pivot-tree
// records pad to 64 bytes.
struct Wide16 {
  std::uint64_t key;
  std::uint64_t payload;  // the input index
};
struct Wide24 {
  std::uint64_t key;
  std::uint64_t payload;  // the input index
  std::uint64_t pad;
};
static_assert(sizeof(wfsort::detail::PackedNode<Wide16>) == 64 &&
              alignof(wfsort::detail::PackedNode<Wide16>) == 64);
static_assert(sizeof(wfsort::detail::PackedNode<Wide24>) == 64);

template <typename W>
void expect_wide_keys_sort() {
  constexpr std::size_t kN = 5000;
  Rng rng(sizeof(W));
  std::vector<W> orig(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    orig[i] = W{};
    orig[i].key = rng.below(kN / 4);  // duplicates: ties go by input index
    orig[i].payload = i;
  }
  const auto by_key = [](const W& a, const W& b) { return a.key < b.key; };
  std::vector<W> expected = orig;
  std::stable_sort(expected.begin(), expected.end(), by_key);
  const auto payloads = [](const std::vector<W>& v) {
    std::vector<std::uint64_t> p;
    for (const W& w : v) p.push_back(w.payload);
    return p;
  };
  const struct {
    const char* name;
    Options opts;
  } configs[] = {
      {"det-tree", {.threads = 4, .phase1 = Phase1::kTree}},
      {"lc", {.threads = 4, .variant = Variant::kLowContention}},
      {"det-partition", {.threads = 4, .phase1 = Phase1::kPartition}},
  };
  for (const auto& c : configs) {
    const std::string where = std::to_string(sizeof(W)) + "-byte key, " + c.name;
    std::vector<W> v = orig;
    wfsort::sort(std::span<W>(v), c.opts, nullptr, by_key);
    EXPECT_EQ(payloads(v), payloads(expected)) << where;
    const auto perm = wfsort::sort_permutation(std::span<const W>(orig), c.opts, by_key);
    std::vector<std::uint64_t> perm64(perm.begin(), perm.end());
    EXPECT_EQ(perm64, payloads(expected)) << where << " (permutation)";
  }
}

TEST(SortNative, KeysWiderThanEightBytes) {
  expect_wide_keys_sort<Wide16>();
  expect_wide_keys_sort<Wide24>();
}

TEST(SortNative, SorterObjectReuse) {
  wfsort::Sorter<std::uint64_t> sorter(Options{.threads = 2});
  for (int round = 0; round < 3; ++round) {
    auto v = make_workload(Workload::kRandom, 200 + 50 * round, 10 + round);
    auto orig = v;
    sorter(std::span<std::uint64_t>(v));
    expect_sorted_permutation(orig, v, "round " + std::to_string(round));
    EXPECT_EQ(sorter.last_stats().n, orig.size());
  }
}

TEST(SortNative, PhaseTimingsAreRecorded) {
  auto v = make_workload(Workload::kRandom, 60000, 71);
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 2}, &stats);
  ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
  // All phases did measurable work for this size.  A stats request records
  // the phase spans even with telemetry off.
  ASSERT_NE(stats.telemetry, nullptr);
  using wfsort::telemetry::PhaseId;
  EXPECT_GT(stats.telemetry->phase_max_ms(PhaseId::kBuild), 0.0);
  EXPECT_GT(stats.telemetry->phase_max_ms(PhaseId::kSum), 0.0);
  EXPECT_GT(stats.telemetry->phase_max_ms(PhaseId::kPlace), 0.0);
}

TEST(SortNative, SortPermutationLeavesDataUntouched) {
  auto v = make_workload(Workload::kRandom, 1500, 44);
  const auto orig = v;
  const auto perm = wfsort::sort_permutation(
      std::span<const std::uint64_t>(v), Options{.threads = 3});
  EXPECT_EQ(v, orig);  // data untouched
  ASSERT_EQ(perm.size(), v.size());
  // perm is a permutation and orders the data.
  std::vector<bool> seen(v.size(), false);
  for (std::size_t r = 0; r < perm.size(); ++r) {
    ASSERT_LT(perm[r], v.size());
    EXPECT_FALSE(seen[perm[r]]);
    seen[perm[r]] = true;
    if (r > 0) {
      EXPECT_LE(v[perm[r - 1]], v[perm[r]]);
    }
  }
}

TEST(SortNative, SortPermutationTiesBreakByIndex) {
  std::vector<std::uint64_t> v(100, 7);  // all equal
  const auto perm = wfsort::sort_permutation(std::span<const std::uint64_t>(v));
  for (std::uint32_t r = 0; r < perm.size(); ++r) EXPECT_EQ(perm[r], r);
}

TEST(SortNative, SortPermutationEmptyAndSingle) {
  std::vector<std::uint64_t> empty;
  EXPECT_TRUE(wfsort::sort_permutation(std::span<const std::uint64_t>(empty)).empty());
  std::vector<std::uint64_t> one{9};
  auto perm = wfsort::sort_permutation(std::span<const std::uint64_t>(one));
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0u);
}

// ------------------------------------------------------------ property sweep

// gtest prints a parameter without a PrintTo as its raw bytes, and those
// bytes end up in the registered test name.  `pad` names the four bytes
// between `workload` and `n` and zeroes them: padding bytes are
// indeterminate, and a name built from them changes from build to build.
struct SweepParam {
  Workload workload;
  std::uint32_t pad = 0;
  std::size_t n;
  std::uint32_t threads;
  Variant variant;
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

std::string param_label(const SweepParam& p) {
  return std::string(workload_name(p.workload)) + "_n" + std::to_string(p.n) + "_t" +
         std::to_string(p.threads) +
         (p.variant == Variant::kDeterministic ? "_det" : "_lc");
}

std::string sweep_name(const testing::TestParamInfo<SweepParam>& info) {
  return param_label(info.param);
}

class SortSweep : public testing::TestWithParam<SweepParam> {};

// Every size here is below kCallerOnlyCutoff, where a plain sort runs on the
// caller alone.  An empty fault plan keeps all `threads` workers racing; the
// plain call must give the same output with one worker.
TEST_P(SortSweep, SortsToPermutation) {
  const SweepParam p = GetParam();
  const Options opts{.threads = p.threads, .variant = p.variant};
  auto v = make_workload(p.workload, p.n, 1234 + p.n);
  auto orig = v;
  wfsort::runtime::FaultPlan no_faults(p.threads);
  SortStats stats;
  ASSERT_TRUE(wfsort::sort_with_faults(std::span<std::uint64_t>(v), opts, no_faults, &stats));
  expect_sorted_permutation(orig, v, param_label(p));

  if (p.n >= 2) {
    // Lemma 2.4: no build_tree call loops more than N-1 times.
    EXPECT_LE(stats.max_build_iters, p.n - 1);
    EXPECT_GE(stats.tree_depth, 1u);
    EXPECT_LE(stats.tree_depth, p.n);
    EXPECT_EQ(stats.completed_workers, p.threads);
    EXPECT_EQ(stats.crashed_workers, 0u);
  }

  auto solo = orig;
  SortStats solo_stats;
  wfsort::sort(std::span<std::uint64_t>(solo), opts, &solo_stats);
  EXPECT_EQ(solo, v);
  EXPECT_EQ(solo_stats.workers, 1u);
  EXPECT_EQ(solo_stats.completed_workers, 1u);
}

std::vector<SweepParam> make_sweep() {
  std::vector<SweepParam> out;
  const Workload workloads[] = {Workload::kRandom,      Workload::kSorted,
                                Workload::kReversed,    Workload::kAllEqual,
                                Workload::kFewDistinct, Workload::kOrganPipe,
                                Workload::kRuns};
  for (Workload w : workloads) {
    for (std::size_t n : {37u, 256u, 1024u}) {
      for (std::uint32_t t : {1u, 4u}) {
        out.push_back({w, 0, n, t, Variant::kDeterministic});
      }
    }
    // The LC variant is slower per element (randomized probing); keep sizes
    // moderate but above its fallback threshold.
    out.push_back({w, 0, 300, 4, Variant::kLowContention});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SortSweep, testing::ValuesIn(make_sweep()),
                         sweep_name);

// ------------------------------------------------------------ engine tuning

// Every (wat_batch, seq_cutoff, phase1) combination must sort identically —
// the Tuning constants trade traversal overhead for batching, never
// correctness.  The grid deliberately includes the degenerate settings
// (batch 1 = one WAT traversal per element, cutoff 0 = pure frame machinery)
// and a cutoff larger than most subtrees, and runs the deterministic rows
// under both phase-1 strategies (pivot tree and blocked partition).
// gtest prints a parameter without a PrintTo as its raw bytes, and those
// bytes end up in the registered test name.  The struct therefore has no
// padding (wat_batch is 64-bit for that reason alone): padding bytes are
// indeterminate, and a name built from them changes from build to build.
struct KnobParam {
  std::uint64_t wat_batch;
  std::uint64_t seq_cutoff;
  Variant variant;
  Phase1 phase1 = Phase1::kTree;
};
static_assert(std::has_unique_object_representations_v<KnobParam>);

std::string knob_label(const KnobParam& p) {
  std::string label = "b";
  label += std::to_string(p.wat_batch) + "_c" + std::to_string(p.seq_cutoff);
  label += p.variant == Variant::kDeterministic ? "_det" : "_lc";
  label += p.phase1 == Phase1::kPartition ? "_part" : "";
  return label;
}

class KnobSweep : public testing::TestWithParam<KnobParam> {};

// N = 1500 is below kCallerOnlyCutoff: an empty fault plan keeps three
// workers racing, and the plain call, the caller alone, must match them.
TEST_P(KnobSweep, SortsToPermutation) {
  const KnobParam p = GetParam();
  const Options opts{.threads = 3, .variant = p.variant, .phase1 = p.phase1};
  const Tuning tuning{.wat_batch = p.wat_batch, .seq_cutoff = p.seq_cutoff};
  auto v = make_workload(Workload::kRandom, 1500, 7000 + p.wat_batch + p.seq_cutoff);
  auto orig = v;
  wfsort::runtime::FaultPlan no_faults(3);
  SortStats stats;
  ASSERT_TRUE(tuned_sort(v, opts, tuning, &stats, &no_faults));
  expect_sorted_permutation(orig, v, knob_label(p));
  EXPECT_LE(stats.max_build_iters, v.size() - 1);  // Lemma 2.4 at any batch
  EXPECT_EQ(stats.completed_workers, 3u);

  auto solo = orig;
  SortStats solo_stats;
  ASSERT_TRUE(tuned_sort(solo, opts, tuning, &solo_stats));
  EXPECT_EQ(solo, v);
  EXPECT_EQ(solo_stats.workers, 1u);
  EXPECT_EQ(solo_stats.completed_workers, 1u);
}

std::vector<KnobParam> make_knob_sweep() {
  std::vector<KnobParam> out;
  for (std::uint64_t b : {1u, 4u, 16u}) {
    for (std::uint64_t c : {0u, 64u, 128u}) {  // off, small, the re-picked default
      out.push_back({b, c, Variant::kDeterministic});
      out.push_back({b, c, Variant::kLowContention});
      out.push_back({b, c, Variant::kDeterministic, Phase1::kPartition});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, KnobSweep, testing::ValuesIn(make_knob_sweep()),
                         [](const testing::TestParamInfo<KnobParam>& info) {
                           return knob_label(info.param);
                         });

// The blocked-partition phase 1 must be observationally identical to the
// pivot-tree phase 1, not just "also sorted": both place element i at the
// rank of (key, i) in the index-tie-broken total order, so the output
// PERMUTATION — visible through sort_permutation on duplicate-heavy input —
// must match rank for rank.
// The sizes around the partition's 2048-element chunk straddle its one- and
// multi-bucket shapes and leave a one-element last chunk.
TEST(SortNative, PartitionPhasePermutationMatchesTreeBitExactly) {
  const Workload workloads[] = {Workload::kRandom, Workload::kAllEqual,
                                Workload::kFewDistinct, Workload::kOrganPipe};
  for (const std::uint64_t n : {6000u, 2047u, 2049u, 3u * 2048u + 1u}) {
    for (Workload w : workloads) {
      const auto v = make_workload(w, n, 321);
      const auto tree_perm = wfsort::sort_permutation(
          std::span<const std::uint64_t>(v),
          Options{.threads = 4, .phase1 = Phase1::kTree});
      const auto part_perm = wfsort::sort_permutation(
          std::span<const std::uint64_t>(v),
          Options{.threads = 4, .phase1 = Phase1::kPartition});
      EXPECT_EQ(tree_perm, part_perm) << workload_name(w) << " n=" << n;
    }
  }
}

TEST(SortNative, PartitionPhaseHonoursTheCallersOrder) {
  // The splitter tree compares through the caller's Compare alone: a
  // descending order over 6 buckets, then double keys with many ties.
  const std::size_t n = 5 * 2048 + 3;
  Rng rng(77);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.below(3) == 0 ? rng.next() : rng.below(8);
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(), std::greater<std::uint64_t>{});
  wfsort::sort(std::span<std::uint64_t>(v),
               Options{.threads = 4, .phase1 = Phase1::kPartition}, nullptr,
               std::greater<std::uint64_t>{});
  EXPECT_EQ(v, expected);

  std::vector<double> d(n);
  for (double& x : d) x = static_cast<double>(rng.below(50)) * 0.25 - 3.0;
  const auto stable_argsort = [&](auto cmp) {
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return cmp(d[a], d[b]); });
    return idx;
  };
  const Options part{.threads = 4, .phase1 = Phase1::kPartition};
  EXPECT_EQ(wfsort::sort_permutation(std::span<const double>(d), part),
            stable_argsort(std::less<double>{}));
  EXPECT_EQ(wfsort::sort_permutation(std::span<const double>(d), part,
                                     std::greater<double>{}),
            stable_argsort(std::greater<double>{}));
}

// ------------------------------------------------------------ partition key order

// Det-partition copy-back buckets sort bare keys exactly when equivalent
// keys are bit-identical (detail::kBareKeyOrder); every other run keeps the
// (key, index) pairs.  Both must emit the tree path's bytes.

// Orders keys by their high 48 bits alone, so keys that differ only in the
// low 16 bits are equivalent but not identical.
struct High48Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    return (a >> 16) < (b >> 16);
  }
};

static_assert(wfsort::detail::kBareKeyOrder<std::uint64_t, std::less<std::uint64_t>>);
static_assert(wfsort::detail::kBareKeyOrder<std::int32_t, std::greater<>>);
static_assert(!wfsort::detail::kBareKeyOrder<double, std::less<double>>);
static_assert(!wfsort::detail::kBareKeyOrder<std::uint64_t, High48Less>);

const Workload kKeyOrderWorkloads[] = {
    Workload::kRandom,      Workload::kSorted,   Workload::kReversed,
    Workload::kFewDistinct, Workload::kAllEqual, Workload::kOrganPipe};

// Sort `v` with both deterministic phase 1s at `threads` and expect the
// same bytes.
template <typename Key, typename Compare>
void expect_partition_matches_tree(const std::vector<Key>& v, std::uint32_t threads,
                                   Compare cmp, const std::string& label) {
  auto tree = v;
  auto part = v;
  wfsort::sort(std::span<Key>(tree), Options{.threads = threads, .phase1 = Phase1::kTree},
               nullptr, cmp);
  wfsort::sort(std::span<Key>(part),
               Options{.threads = threads, .phase1 = Phase1::kPartition}, nullptr, cmp);
  ASSERT_TRUE(std::is_sorted(tree.begin(), tree.end(), cmp)) << label;
  EXPECT_EQ(std::memcmp(tree.data(), part.data(), v.size() * sizeof(Key)), 0) << label;
}

TEST(PartitionKeyOrder, CopyBackMatchesTreeBitExactly) {
  for (const std::size_t n : {2u * 2048u + 17u, 65536u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      for (const Workload w : kKeyOrderWorkloads) {
        const std::string label = std::string(workload_name(w)) + " n=" +
                                  std::to_string(n) + " t=" + std::to_string(threads);
        const auto v = make_workload(w, n, 611);
        expect_partition_matches_tree(v, threads, std::less<std::uint64_t>{},
                                      "less " + label);
        expect_partition_matches_tree(v, threads, std::greater<std::uint64_t>{},
                                      "greater " + label);
        // Signed keys: random keys truncate to both signs, the rest shift
        // down by n.
        std::vector<std::int32_t> s(n);
        for (std::size_t i = 0; i < n; ++i) {
          s[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(v[i])) -
                 (w == Workload::kRandom ? 0 : static_cast<std::int32_t>(n));
        }
        expect_partition_matches_tree(s, threads, std::less<>{}, "int32 " + label);
        // Shifted into the high 48 bits under random low bits: every
        // repeated key becomes a run of equivalent, distinct keys.
        Rng rng(n + threads);
        std::vector<std::uint64_t> h(n);
        for (std::size_t i = 0; i < n; ++i) h[i] = (v[i] << 16) | rng.below(1u << 16);
        expect_partition_matches_tree(h, threads, High48Less{}, "high48 " + label);
      }
    }
  }
}

TEST(PartitionKeyOrder, StaggeredKillsInsideTheBucketSweep) {
  // Four workers poll about once per element in classify and scatter and
  // twice in the bucket sweep, so each reaches its buckets near step n/2 and
  // finishes near n: the kills below land inside the bucket sweep, where
  // duplicate workers sort private copies of the same bucket.
  constexpr std::size_t kN = 65536;
  const auto v = make_workload(Workload::kRandom, kN, 29);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  auto out = v;
  wfsort::runtime::FaultPlan plan(4);
  plan.crash_at(1, 40000);
  plan.crash_at(2, 50000);
  plan.crash_at(3, 60000);
  SortStats stats;
  const Options opts{.threads = 4, .phase1 = Phase1::kPartition};
  ASSERT_TRUE(
      wfsort::sort_with_faults(std::span<std::uint64_t>(out), opts, plan, &stats));
  EXPECT_EQ(out, expected);
  EXPECT_GE(stats.completed_workers, 1u);
}

TEST(PartitionKeyOrder, PermutationStaysTheStableArgsort) {
  for (const Workload w : kKeyOrderWorkloads) {
    const auto v = make_workload(w, 2 * 2048 + 17, 53);
    std::vector<std::uint32_t> expected(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      expected[i] = static_cast<std::uint32_t>(i);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return v[a] < v[b]; });
    const Options opts{.threads = 4, .phase1 = Phase1::kPartition};
    EXPECT_EQ(wfsort::sort_permutation(std::span<const std::uint64_t>(v), opts), expected)
        << workload_name(w);
  }
}

// ------------------------------------------------------------ variants

TEST(SortNative, LowContentionFallsBackBelowThreshold) {
  std::vector<std::uint64_t> v = make_workload(Workload::kRandom, 32, 5);
  wfsort::detail::Engine<std::uint64_t, std::less<std::uint64_t>> engine(
      std::span<std::uint64_t>(v), {}, Options{.variant = Variant::kLowContention});
  EXPECT_EQ(engine.effective_variant(), Variant::kDeterministic);
}

// N = 5000 is below kCallerOnlyCutoff: an empty fault plan keeps four
// workers racing, and the plain call, the caller alone, must match them.
TEST(SortNative, LowContentionLargerArray) {
  const Options opts{.threads = 4, .variant = Variant::kLowContention};
  auto v = make_workload(Workload::kRandom, 5000, 21);
  auto orig = v;
  wfsort::runtime::FaultPlan no_faults(4);
  SortStats stats;
  ASSERT_TRUE(wfsort::sort_with_faults(std::span<std::uint64_t>(v), opts, no_faults, &stats));
  expect_sorted_permutation(orig, v, "lc-5000");
  EXPECT_EQ(stats.completed_workers, 4u);

  auto solo = orig;
  SortStats solo_stats;
  wfsort::sort(std::span<std::uint64_t>(solo), opts, &solo_stats);
  EXPECT_EQ(solo, v);
  EXPECT_EQ(solo_stats.workers, 1u);
  EXPECT_EQ(solo_stats.completed_workers, 1u);
}

TEST(SortNative, LowContentionAdversarialSortedInput) {
  // Sorted input is the deterministic variant's worst case (depth N); the LC
  // variant's random insertion order must keep the tree shallow.
  auto v = make_workload(Workload::kSorted, 4096, 0);
  auto orig = v;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v),
               Options{.threads = 2, .variant = Variant::kLowContention}, &stats);
  expect_sorted_permutation(orig, v, "lc-sorted");
  // Random-order insertion: depth O(log N) w.h.p.  4096 -> log2 = 12; allow
  // a generous constant.  (The deterministic variant would produce ~sqrt or
  // worse here; see fig_e2.)
  EXPECT_LE(stats.tree_depth, 12u * 6u);
}

TEST(SortNative, LowContentionCopiesKnob) {
  for (std::uint32_t copies : {1u, 3u, 16u}) {
    auto v = make_workload(Workload::kRandom, 2000, 500 + copies);
    auto orig = v;
    ASSERT_TRUE(tuned_sort(v, Options{.threads = 3, .variant = Variant::kLowContention},
                           Tuning{.lc_copies = copies}));
    expect_sorted_permutation(orig, v, "copies=" + std::to_string(copies));
  }
}

// ------------------------------------------------------------ tree depth

// The det-tree phase 1 inserts bit-reversed stripes (StripedJobs), so no
// input distribution the workload generators know turns the pivot tree into
// a chain: depth stays within a small multiple of log2 N on every one of
// them, at one worker (one fixed insertion order) and at four (interleaved
// claims), and the total descent work stays O(N log N).
struct DepthParam {
  Dist dist;
  std::uint32_t threads;
  std::uint64_t n;
};

std::string depth_label(const DepthParam& p) {
  std::string name = wfsort::exp::dist_name(p.dist);
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_n" + std::to_string(p.n) + "_t" + std::to_string(p.threads);
}

// Names the parameter in test listings (instead of its raw bytes).
void PrintTo(const DepthParam& p, std::ostream* os) { *os << depth_label(p); }

class TreeDepthMatrix : public testing::TestWithParam<DepthParam> {};

TEST_P(TreeDepthMatrix, DepthStaysLogarithmic) {
  const DepthParam p = GetParam();
  auto v = wfsort::exp::make_u64_keys(p.n, p.dist, 900 + p.n);
  const auto orig = v;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v),
               Options{.threads = p.threads, .phase1 = Phase1::kTree}, &stats);
  expect_sorted_permutation(orig, v, depth_label(p));
  const std::uint64_t lg = wfsort::log2_ceil(p.n);
  const std::uint64_t depth_factor = p.threads == 1 ? 3 : 4;
  EXPECT_LE(stats.tree_depth, depth_factor * lg) << depth_label(p);
  EXPECT_LE(stats.total_build_iters, 4 * p.n * lg) << depth_label(p);
}

std::vector<DepthParam> make_depth_matrix() {
  std::vector<DepthParam> out;
  for (Dist d : {Dist::kUniform, Dist::kShuffled, Dist::kSorted, Dist::kReversed,
                 Dist::kOrganPipe, Dist::kFewDistinct}) {
    for (std::uint64_t n : {2000u, 65537u}) {
      for (std::uint32_t t : {1u, 4u}) out.push_back({d, t, n});
    }
  }
  return out;
}

std::string depth_name(const testing::TestParamInfo<DepthParam>& info) {
  return depth_label(info.param);
}

INSTANTIATE_TEST_SUITE_P(Dists, TreeDepthMatrix, testing::ValuesIn(make_depth_matrix()),
                         depth_name);

TEST(SortNative, BitReversedKeysAreTheStripedOrdersWorstCase) {
  // The striped order has its own worst case: keys ordered as the bit
  // reversal of their index.  One worker inserts element bit_reverse(p) at
  // step p (StripedJobs), i.e. these keys in ascending order, so the tree is
  // a chain of depth N — the pre-stripe sorted-input pathology, moved to an
  // input no generator or real data set produces.  It must still sort, and
  // Lemma 2.4's N-1 bound on one descent still holds.
  constexpr std::uint64_t kN = 2048;
  std::vector<std::uint64_t> v(kN);
  for (std::uint64_t i = 0; i < kN; ++i) v[i] = wfsort::bit_reverse(i, 11);
  for (std::uint32_t t : {1u, 4u}) {
    auto w = v;
    SortStats stats;
    wfsort::sort(std::span<std::uint64_t>(w), Options{.threads = t}, &stats);
    expect_sorted_permutation(v, w, "bit-reversed t=" + std::to_string(t));
    EXPECT_LE(stats.max_build_iters, kN - 1);
    if (t == 1) {
      EXPECT_EQ(stats.tree_depth, kN);  // a chain, documented
    }
  }
}

TEST(SortNative, TreePermutationOnFewDistinctIsStableArgsort) {
  // Striped insertion changes the tree's shape, never the order it encodes:
  // element i still lands at the rank of (key, i).
  for (const std::size_t n : {2000u, 65537u}) {
    const auto v = make_workload(Workload::kFewDistinct, n, 4242);
    std::vector<std::uint32_t> expected(n);
    for (std::uint32_t i = 0; i < n; ++i) expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&v](std::uint32_t a, std::uint32_t b) { return v[a] < v[b]; });
    for (std::uint32_t t : {1u, 4u}) {
      const auto perm = wfsort::sort_permutation(
          std::span<const std::uint64_t>(v), Options{.threads = t, .phase1 = Phase1::kTree});
      EXPECT_EQ(perm, expected) << "n=" << n << " t=" << t;
    }
  }
}

// ------------------------------------------------------------ fault injection

TEST(SortFaults, CrashAllButOneWorkerStillSorts) {
  for (std::uint64_t crash_point : {1ULL, 10ULL, 100ULL, 1000ULL}) {
    auto v = make_workload(Workload::kRandom, 2048, crash_point);
    auto orig = v;
    constexpr std::uint32_t kThreads = 4;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) plan.crash_at(t, crash_point);
    SortStats stats;
    const bool ok = wfsort::sort_with_faults(std::span<std::uint64_t>(v),
                                             Options{.threads = kThreads}, plan, &stats);
    ASSERT_TRUE(ok) << "crash_point=" << crash_point;
    expect_sorted_permutation(orig, v, "crash@" + std::to_string(crash_point));
    // On a single-CPU host a worker may finish before the others even start,
    // in which case late workers complete trivially before reaching their
    // crash trigger; only the lower bound of one completer is guaranteed.
    EXPECT_LE(stats.crashed_workers, kThreads - 1);
    EXPECT_GE(stats.completed_workers, 1u);
    if (crash_point == 1) {
      EXPECT_EQ(stats.crashed_workers, kThreads - 1);
    }
  }
}

TEST(SortFaults, CrashMidStripeOnSortedInputStillSorts) {
  // The fault checkpoint is polled once per inserted element, so these
  // crashes land inside a stripe: its job stays unclaimed with part of it
  // inserted, and whoever claims it next re-executes the whole stripe
  // (inserts are idempotent).  Sorted input is where a broken re-execution
  // would show: the stripe order is all that keeps its tree shallow.
  constexpr std::uint64_t kN = 4096;
  for (std::uint64_t crash_point : {1ULL, 10ULL, 100ULL}) {
    auto v = make_workload(Workload::kSorted, kN, crash_point);
    const auto orig = v;
    constexpr std::uint32_t kThreads = 4;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) plan.crash_at(t, crash_point);
    SortStats stats;
    const bool ok = wfsort::sort_with_faults(std::span<std::uint64_t>(v),
                                             Options{.threads = kThreads}, plan, &stats);
    ASSERT_TRUE(ok) << "crash_point=" << crash_point;
    expect_sorted_permutation(orig, v, "mid-stripe crash@" + std::to_string(crash_point));
    EXPECT_GE(stats.completed_workers, 1u);
    EXPECT_LE(stats.tree_depth, 4u * wfsort::log2_ceil(kN)) << crash_point;
  }
}

TEST(SortFaults, CrashAllWorkersReportsFailureAndLeavesDataIntact) {
  auto v = make_workload(Workload::kRandom, 512, 7);
  auto orig = v;
  constexpr std::uint32_t kThreads = 3;
  wfsort::runtime::FaultPlan plan(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) plan.crash_at(t, 5);
  const bool ok =
      wfsort::sort_with_faults(std::span<std::uint64_t>(v), Options{.threads = kThreads}, plan);
  EXPECT_FALSE(ok);
  EXPECT_EQ(v, orig);  // untouched on failure
}

TEST(SortFaults, StaggeredCrashesAcrossPhases) {
  // Crash workers at wildly different points so failures land in different
  // phases; the survivor must finish regardless.
  auto v = make_workload(Workload::kRandom, 4096, 99);
  auto orig = v;
  constexpr std::uint32_t kThreads = 6;
  wfsort::runtime::FaultPlan plan(kThreads);
  plan.crash_at(1, 3);
  plan.crash_at(2, 50);
  plan.crash_at(3, 500);
  plan.crash_at(4, 5000);
  plan.crash_at(5, 20000);
  const bool ok =
      wfsort::sort_with_faults(std::span<std::uint64_t>(v), Options{.threads = kThreads}, plan);
  ASSERT_TRUE(ok);
  expect_sorted_permutation(orig, v, "staggered");
}

TEST(SortFaults, PageFaultSleepsDoNotBlockOthers) {
  auto v = make_workload(Workload::kRandom, 2048, 11);
  auto orig = v;
  constexpr std::uint32_t kThreads = 4;
  wfsort::runtime::FaultPlan plan(kThreads);
  plan.sleep_at(0, 10, std::chrono::microseconds(20000));
  plan.sleep_at(1, 100, std::chrono::microseconds(10000));
  const bool ok =
      wfsort::sort_with_faults(std::span<std::uint64_t>(v), Options{.threads = kThreads}, plan);
  ASSERT_TRUE(ok);
  expect_sorted_permutation(orig, v, "sleeps");
}

TEST(SortFaults, CrashesWithLowContentionVariant) {
  for (std::uint64_t crash_point : {5ULL, 200ULL, 3000ULL}) {
    auto v = make_workload(Workload::kRandom, 1024, crash_point * 3);
    auto orig = v;
    constexpr std::uint32_t kThreads = 4;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) plan.crash_at(t, crash_point);
    const bool ok = wfsort::sort_with_faults(
        std::span<std::uint64_t>(v),
        Options{.threads = kThreads, .variant = Variant::kLowContention}, plan);
    ASSERT_TRUE(ok) << crash_point;
    expect_sorted_permutation(orig, v, "lc-crash@" + std::to_string(crash_point));
  }
}

TEST(SortFaults, CannedAdversaryAtNonDefaultKnobs) {
  // The canned staggered-kills adversary, compiled onto the native substrate
  // via program_plan, against Tuning far from the defaults on both sides:
  // batching and the sequential cutoff must not open any crash window (the
  // cutoff's completion flag is published only after the block walk).
  constexpr std::uint32_t kThreads = 4;
  const wfsort::runtime::FaultScript script =
      wfsort::runtime::staggered_kills(/*first_round=*/40, /*stride=*/400, kThreads,
                                       /*survivors=*/1);
  const Options det{.threads = kThreads};
  const Options part{.threads = kThreads, .phase1 = Phase1::kPartition};
  const Options lc{.threads = kThreads, .variant = Variant::kLowContention};
  for (const auto& [opts, tuning] : std::initializer_list<std::pair<Options, Tuning>>{
           {det, {.wat_batch = 1, .seq_cutoff = 512}},
           {det, {.wat_batch = 64, .seq_cutoff = 0}},
           // The blocked-partition phase 1 at both tuning extremes: its three
           // WAT-driven sweeps (classify, scatter, bucket-sort) must tolerate
           // the same kills as the tree path — every write is idempotent and
           // the kAllJobsDone gates publish each sweep exactly once.
           {part, {.wat_batch = 1, .seq_cutoff = 512}},
           {part, {.wat_batch = 64, .seq_cutoff = 0}},
           {lc, {.wat_batch = 64, .seq_cutoff = 512}},
           // LC fast-path constants far from their defaults: paper-literal
           // one-node probes with backoff disabled, and a deep-burst /
           // aggressive-backoff extreme — the crash windows must stay closed
           // at both ends.
           {lc, {.wat_batch = 1, .lc_burst = 1, .backoff_limit = 0}},
           {lc, {.seq_cutoff = 0, .lc_burst = 512, .backoff_limit = 12}}}) {
    auto v = make_workload(Workload::kRandom, 2048, 77);
    auto orig = v;
    wfsort::runtime::FaultPlan plan(kThreads);
    wfsort::runtime::program_plan(script, plan);
    SortStats stats;
    ASSERT_TRUE(tuned_sort(v, opts, tuning, &stats, &plan));
    expect_sorted_permutation(
        orig, v, "canned b" + std::to_string(tuning.wat_batch) + "_c" +
                     std::to_string(tuning.seq_cutoff) +
                     (opts.phase1 == Phase1::kPartition ? "_part" : ""));
    EXPECT_GE(stats.completed_workers, 1u);
  }
}

TEST(SortFaults, PartitionPathStaggeredCrashes) {
  // Large enough that the partition path has many chunks (n / 2048) and
  // several buckets, so the staggered kills land inside all three sweeps;
  // the lone survivor must drain every WAT and finish the sort alone.
  auto v = make_workload(Workload::kFewDistinct, 50000, 13);
  auto orig = v;
  constexpr std::uint32_t kThreads = 6;
  wfsort::runtime::FaultPlan plan(kThreads);
  plan.crash_at(1, 3);
  plan.crash_at(2, 50);
  plan.crash_at(3, 500);
  plan.crash_at(4, 5000);
  plan.crash_at(5, 20000);
  SortStats stats;
  const bool ok = wfsort::sort_with_faults(
      std::span<std::uint64_t>(v),
      Options{.threads = kThreads, .phase1 = Phase1::kPartition}, plan, &stats);
  ASSERT_TRUE(ok);
  expect_sorted_permutation(orig, v, "partition-staggered");
  EXPECT_GE(stats.completed_workers, 1u);
}

TEST(SortFaults, SuspendAndReviveLcAtNonDefaultKnobs) {
  // The suspend-and-revive adversary — on the native substrate a long
  // mid-phase sleep IS suspend-then-revive (the simulator's kSuspend/kRevive
  // pair has no thread equivalent) — against the LC fast path with its
  // Tuning pushed off the defaults: revived workers must rejoin whatever
  // stage the survivors advanced to, so stale burst stacks, claim runs, and
  // backoff states must all be harmless.
  constexpr std::uint32_t kThreads = 4;
  const Options opts{.threads = kThreads, .variant = Variant::kLowContention};
  for (const Tuning& tuning : {Tuning{.lc_burst = 1, .backoff_limit = 0},
                               Tuning{.wat_batch = 1, .lc_burst = 256, .backoff_limit = 10}}) {
    auto v = make_workload(Workload::kRandom, 2048, 91);
    auto orig = v;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) {
      plan.sleep_at(t, 64 + 100 * t, std::chrono::microseconds(20000));
    }
    SortStats stats;
    ASSERT_TRUE(tuned_sort(v, opts, tuning, &stats, &plan));
    expect_sorted_permutation(orig, v, "revive burst=" + std::to_string(tuning.lc_burst));
    EXPECT_GE(stats.completed_workers, 1u);
  }
}

TEST(SortFaults, MidPhase3CrashesNeverLoseWork) {
  // Three of four workers die around phase 3, where Figure 6's place > 0
  // rule would let the survivor prune a placed-but-unfinished subtree.  The
  // engine prunes on the bottom-up completion flag instead, so the survivor
  // must finish every crashed worker's subtrees: 20 attempts, each sorted.
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto v = make_workload(Workload::kRandom, 1024, 1000 + attempt);
    auto orig = v;
    constexpr std::uint32_t kThreads = 4;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) {
      plan.crash_at(t, 1500 + 37 * attempt);  // mid phase-3 territory
    }
    const bool ok = wfsort::sort_with_faults(std::span<std::uint64_t>(v),
                                             Options{.threads = kThreads}, plan);
    ASSERT_TRUE(ok);
    expect_sorted_permutation(orig, v, "attempt " + std::to_string(attempt));
  }
}

// ------------------------------------------------------------ public options

// Every combination of the public Options that changes what runs (variant x
// phase1 x telemetry x threads), through sort, sort_permutation and
// SortPool::sort, on both sides of kCallerOnlyCutoff: the caller-alone run
// and the full-width one.  Keys repeat, so the (key, index) tie-break of the
// permutation is checked too.
struct PublicParam {
  Variant variant;
  Phase1 phase1;
  wfsort::telemetry::Level telemetry;
  std::uint32_t threads;
};

std::string public_label(const PublicParam& p) {
  std::string label = p.variant == Variant::kDeterministic ? "det" : "lc";
  label += p.phase1 == Phase1::kPartition ? "_part_" : "_tree_";
  label += wfsort::telemetry::level_name(p.telemetry);
  label += "_t" + std::to_string(p.threads);
  return label;
}

void PrintTo(const PublicParam& p, std::ostream* os) { *os << public_label(p); }

class PublicOptionsMatrix : public testing::TestWithParam<PublicParam> {};

TEST_P(PublicOptionsMatrix, EveryEntryPointSortsOnBothWidths) {
  const PublicParam p = GetParam();
  const Options opts{.threads = p.threads,
                     .variant = p.variant,
                     .phase1 = p.phase1,
                     .telemetry = p.telemetry};
  wfsort::SortPool pool(p.threads);
  for (const std::uint64_t n :
       {wfsort::kCallerOnlyCutoff - 1, wfsort::kCallerOnlyCutoff + 1}) {
    const std::string where = public_label(p) + " n=" + std::to_string(n);
    std::vector<std::uint64_t> input = make_workload(Workload::kRandom, n, 900 + n);
    for (auto& x : input) x %= n / 4;
    std::vector<std::uint64_t> sorted = input;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> argsort(n);
    for (std::uint32_t i = 0; i < n; ++i) argsort[i] = i;
    std::stable_sort(argsort.begin(), argsort.end(),
                     [&input](std::uint32_t x, std::uint32_t y) { return input[x] < input[y]; });

    std::vector<std::uint64_t> v = input;
    wfsort::sort(std::span<std::uint64_t>(v), opts);
    EXPECT_EQ(v, sorted) << "sort " << where;
    EXPECT_EQ(wfsort::sort_permutation(std::span<const std::uint64_t>(input), opts), argsort)
        << "sort_permutation " << where;
    v = input;
    pool.sort(std::span<std::uint64_t>(v), opts);
    EXPECT_EQ(v, sorted) << "SortPool::sort " << where;
  }
}

std::vector<PublicParam> make_public_matrix() {
  using wfsort::telemetry::Level;
  std::vector<PublicParam> out;
  for (const Variant variant : {Variant::kDeterministic, Variant::kLowContention}) {
    for (const Phase1 phase1 : {Phase1::kTree, Phase1::kPartition}) {
      for (const Level level : {Level::kOff, Level::kPhases, Level::kFull}) {
        for (const std::uint32_t threads : {1u, 3u}) {
          out.push_back({variant, phase1, level, threads});
        }
      }
    }
  }
  return out;
}

std::string public_name(const testing::TestParamInfo<PublicParam>& param_info) {
  return public_label(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(All, PublicOptionsMatrix, testing::ValuesIn(make_public_matrix()),
                         public_name);

}  // namespace
