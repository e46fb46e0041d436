// White-box unit tests of the native engine's building blocks: TreeState,
// build_from/build_one, tree_sum, find_place_emit and the LC probing phases
// — exercised directly on small hand-built trees, where every expected
// value can be stated explicitly — plus the Engine's completion contract
// under real threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/detail/build_phase.h"
#include "core/detail/engine.h"
#include "core/detail/lc_phase.h"
#include "core/detail/leaf_sort.h"
#include "core/detail/partition_phase.h"
#include "core/detail/sum_place_phase.h"
#include "core/detail/tree_state.h"

namespace {

using wfsort::detail::kBig;
using wfsort::detail::kNoIdx;
using wfsort::detail::kSmall;
using wfsort::detail::LcMarks;

using State = wfsort::detail::TreeState<std::uint64_t, std::less<std::uint64_t>>;

constexpr auto kKeepGoing = [] { return true; };

// TreeState views its keys (non-owning span) and borrows its records from a
// RunArena, so the fixture must own both for the state's lifetime.
struct BuiltTree {
  std::vector<std::uint64_t> keys;
  std::unique_ptr<wfsort::RunArena> arena;
  std::unique_ptr<State> state;
  State* operator->() { return state.get(); }
  State& operator*() { return *state; }
};

// A fresh, unbuilt state over `keys`.
BuiltTree unbuilt(std::vector<std::uint64_t> keys) {
  BuiltTree t{std::move(keys), std::make_unique<wfsort::RunArena>(), nullptr};
  t.state = std::make_unique<State>(
      std::span<const std::uint64_t>(t.keys.data(), t.keys.size()),
      std::less<std::uint64_t>{}, *t.arena);
  return t;
}

// Build the tree sequentially via build_one.
BuiltTree build_sequential(std::vector<std::uint64_t> keys) {
  BuiltTree t = unbuilt(std::move(keys));
  for (std::int64_t i = 0; i < t.state->n(); ++i) {
    wfsort::detail::build_one(*t.state, i);
  }
  return t;
}

// Depth of a built tree by a full DFS, the root counting 1: the reference
// for the depth phase 1 records in its tallies.
std::uint64_t dfs_depth(const State& st) {
  if (st.n() == 0) return 0;
  std::uint64_t max_depth = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> stack{{st.root_idx(), 1}};
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    if (node == kNoIdx) continue;
    max_depth = std::max(max_depth, d);
    stack.emplace_back(st.child_of(node, kSmall), d + 1);
    stack.emplace_back(st.child_of(node, kBig), d + 1);
  }
  return max_depth;
}

// The record is half a cache line for 8-byte keys, and the tree indexes
// exactly the inputs its 32-bit links can name.  The guard is a plain
// predicate, checked here without allocating anything.
static_assert(sizeof(wfsort::detail::PackedNode<std::uint64_t>) == 32 &&
              alignof(wfsort::detail::PackedNode<std::uint64_t>) == 32);

TEST(TreeStateDetail, IndexBoundIsTwoToThe31MinusOne) {
  EXPECT_TRUE(wfsort::detail::tree_indexable((std::uint64_t{1} << 31) - 1));
  EXPECT_FALSE(wfsort::detail::tree_indexable(std::uint64_t{1} << 31));
  EXPECT_FALSE(wfsort::detail::tree_indexable(std::uint64_t{1} << 32));
}

TEST(TreeStateDetail, LessBreaksTiesByIndex) {
  std::vector<std::uint64_t> keys{5, 5, 3};
  wfsort::RunArena arena;
  State st(std::span<const std::uint64_t>(keys), {}, arena);
  EXPECT_TRUE(st.less(0, 1));   // equal keys: index 0 < 1
  EXPECT_FALSE(st.less(1, 0));
  EXPECT_TRUE(st.less(2, 0));   // 3 < 5
  EXPECT_FALSE(st.less(0, 2));
}

TEST(TreeStateDetail, BuildOneShapesKnownTree) {
  // keys: 50, 30, 70, 30(dup).  Root = 0; 30 -> small of root; 70 -> big;
  // the duplicate 30 (index 3) ties-breaks AFTER index 1 -> big child of 1.
  auto st = build_sequential({50, 30, 70, 30});
  EXPECT_EQ(st->child_of(0, kSmall), 1);
  EXPECT_EQ(st->child_of(0, kBig), 2);
  EXPECT_EQ(st->child_of(1, kBig), 3);
  EXPECT_EQ(st->child_of(1, kSmall), kNoIdx);
  EXPECT_EQ(dfs_depth(*st), 3u);
}

TEST(TreeStateDetail, BuildFromInsertsBelowGivenParent) {
  std::vector<std::uint64_t> keys{50, 30, 70, 60};
  wfsort::RunArena arena;
  State st(std::span<const std::uint64_t>(keys), {}, arena);
  wfsort::detail::build_one(st, 1);
  wfsort::detail::build_one(st, 2);
  // Insert 60 starting at element 2 (the fat-tree handoff path).
  auto r = wfsort::detail::build_from(st, 3, 2);
  EXPECT_GE(r.iterations, 1u);
  EXPECT_EQ(st.child_of(2, kSmall), 3);
}

TEST(TreeStateDetail, BuildOneIsIdempotentForDuplicateWork) {
  auto st = build_sequential({50, 30, 70});
  // Re-running build_one (duplicate worker) must not change the tree.
  const auto before_small = st->child_of(0, kSmall);
  auto r = wfsort::detail::build_one(*st, 1);
  EXPECT_EQ(st->child_of(0, kSmall), before_small);
  EXPECT_EQ(r.iterations, 1u);  // finds itself installed at the first slot
}

TEST(TreeStateDetail, TreeSumComputesExactSizes) {
  auto st = build_sequential({50, 30, 70, 20, 40});
  ASSERT_TRUE(wfsort::detail::tree_sum(*st, /*pid=*/0, kKeepGoing));
  EXPECT_EQ(st->size_of(0), 5);  // root
  EXPECT_EQ(st->size_of(1), 3);  // 30 with children 20, 40
  EXPECT_EQ(st->size_of(2), 1);  // 70
  EXPECT_EQ(st->size_of(3), 1);
  EXPECT_EQ(st->size_of(4), 1);
}

TEST(TreeStateDetail, TreeSumSkipsSummedSubtrees) {
  auto st = build_sequential({50, 30, 70});
  // Pre-poison subtree 1 with a WRONG size: tree_sum must trust it (the
  // skip is the whole point) and produce root size consistent with it.
  st->set_size(1, 41);
  ASSERT_TRUE(wfsort::detail::tree_sum(*st, 0, kKeepGoing));
  EXPECT_EQ(st->size_of(0), 41 + 1 + 1);
}

TEST(TreeStateDetail, FindPlaceEmitProducesRanksAndOutput) {
  auto st = build_sequential({50, 30, 70, 20, 40});
  ASSERT_TRUE(wfsort::detail::tree_sum(*st, 0, kKeepGoing));
  ASSERT_TRUE(wfsort::detail::find_place_emit(*st, 0, /*seq_cutoff=*/0, kKeepGoing));
  EXPECT_EQ(st->place_of(0), 4);  // 50 is 4th of {20,30,40,50,70}
  EXPECT_EQ(st->place_of(1), 2);
  EXPECT_EQ(st->place_of(2), 5);
  EXPECT_EQ(st->place_of(3), 1);
  EXPECT_EQ(st->place_of(4), 3);
  const std::uint64_t expected[] = {20, 30, 40, 50, 70};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(st->out[static_cast<std::size_t>(i)].load(), expected[i]);
  }
}

TEST(TreeStateDetail, FindPlaceDoneSetsCompletionFlagsBottomUp) {
  auto st = build_sequential({50, 30, 70});
  ASSERT_TRUE(wfsort::detail::tree_sum(*st, 0, kKeepGoing));
  ASSERT_TRUE(wfsort::detail::find_place_emit(*st, 0, /*seq_cutoff=*/0, kKeepGoing));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(st->place_done_of(i)) << i;
  }
  // A second worker prunes at the root immediately (1 flag read, no writes).
  std::uint64_t checks = 0;
  ASSERT_TRUE(wfsort::detail::find_place_emit(*st, 1, /*seq_cutoff=*/0, [&checks] {
    ++checks;
    return true;
  }));
  EXPECT_EQ(checks, 1u);
}

TEST(TreeStateDetail, AbortedTraversalsReturnFalse) {
  auto st = build_sequential({5, 3, 7, 1, 4, 6, 9});
  int budget = 3;
  auto limited = [&budget] { return budget-- > 0; };
  EXPECT_FALSE(wfsort::detail::tree_sum(*st, 0, limited));
  budget = 2;
  EXPECT_FALSE(wfsort::detail::find_place_emit(*st, 0, /*seq_cutoff=*/0, limited));
}

TEST(TreeStateDetail, PlaceBlockEmitsConsecutiveRanksFromOffset) {
  auto st = build_sequential({50, 30, 70, 20, 40});
  ASSERT_TRUE(wfsort::detail::tree_sum(*st, 0, kKeepGoing));
  // Subtree under element 1 holds {20, 30, 40} with nothing preceding it:
  // ranks 1, 2, 3 in sorted order.
  std::vector<std::int64_t> scratch;
  ASSERT_TRUE(wfsort::detail::place_block(*st, 1, /*sub=*/0, scratch, kKeepGoing));
  EXPECT_EQ(st->place_of(3), 1);  // 20
  EXPECT_EQ(st->place_of(1), 2);  // 30
  EXPECT_EQ(st->place_of(4), 3);  // 40
  EXPECT_EQ(st->out[0].load(), 20u);
  EXPECT_EQ(st->out[1].load(), 30u);
  EXPECT_EQ(st->out[2].load(), 40u);
  // Subtree under element 2 is {70} with the other 4 elements before it.
  ASSERT_TRUE(wfsort::detail::place_block(*st, 2, /*sub=*/4, scratch, kKeepGoing));
  EXPECT_EQ(st->place_of(2), 5);
  EXPECT_EQ(st->out[4].load(), 70u);
}

TEST(TreeStateDetail, SeqCutoffMatchesFrameMachinery) {
  const std::vector<std::uint64_t> keys{50, 30, 70, 20, 40, 60, 80, 10, 35};
  for (std::uint64_t cutoff : {std::uint64_t{2}, std::uint64_t{4}, std::uint64_t{100}}) {
    auto ref = build_sequential(keys);
    ASSERT_TRUE(wfsort::detail::tree_sum(*ref, 0, kKeepGoing));
    ASSERT_TRUE(wfsort::detail::find_place_emit(*ref, 0, /*seq_cutoff=*/0, kKeepGoing));
    auto st = build_sequential(keys);
    ASSERT_TRUE(wfsort::detail::tree_sum(*st, 0, kKeepGoing));
    ASSERT_TRUE(wfsort::detail::find_place_emit(*st, 0, cutoff, kKeepGoing));
    for (std::int64_t i = 0; i < st->n(); ++i) {
      EXPECT_EQ(st->place_of(i), ref->place_of(i)) << "cutoff=" << cutoff << " i=" << i;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(st->out[i].load(), ref->out[i].load()) << "cutoff=" << cutoff;
    }
    // A second worker prunes at the root in one check: the block roots'
    // completion flags were published after their walks.
    std::uint64_t checks = 0;
    ASSERT_TRUE(wfsort::detail::find_place_emit(*st, 1, cutoff, [&checks] {
      ++checks;
      return true;
    }));
    EXPECT_EQ(checks, 1u) << "cutoff=" << cutoff;
  }
}

TEST(TreeStateDetail, SeqCutoffCrashedBlockWalkerIsRedoneByNextWorker) {
  auto st = build_sequential({50, 30, 70, 20, 40, 60, 80});
  ASSERT_TRUE(wfsort::detail::tree_sum(*st, 0, kKeepGoing));
  // Worker 0 crashes mid-walk: the cutoff covers the whole tree, so it dies
  // inside one block and must NOT have published the completion flag.
  int budget = 3;
  EXPECT_FALSE(wfsort::detail::find_place_emit(*st, 0, /*seq_cutoff=*/100,
                                               [&budget] { return budget-- > 0; }));
  EXPECT_FALSE(st->place_done_of(st->root_idx()));
  // Worker 1 redoes the block idempotently and completes everything.
  ASSERT_TRUE(wfsort::detail::find_place_emit(*st, 1, /*seq_cutoff=*/100, kKeepGoing));
  EXPECT_TRUE(st->all_placed());
  EXPECT_TRUE(st->place_done_of(st->root_idx()));
  const std::uint64_t expected[] = {20, 30, 40, 50, 60, 70, 80};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(st->out[static_cast<std::size_t>(i)].load(), expected[i]);
  }
}

// Build the tree sequentially via build_one, inserting `jobs`' stripes job
// by job in enumeration order — the order one worker claims them in.
BuiltTree build_striped_sequential(std::vector<std::uint64_t> keys,
                                   const wfsort::StripedJobs& jobs) {
  BuiltTree t = unbuilt(std::move(keys));
  for (std::uint64_t j = 0; j < jobs.jobs; ++j) {
    wfsort::Stripe stripe = jobs.stripe(j);
    for (std::uint64_t i; stripe.next(i);) {
      wfsort::detail::build_one(*t.state, static_cast<std::int64_t>(i));
    }
  }
  return t;
}

void expect_same_links(BuiltTree& got, BuiltTree& ref, const std::string& what) {
  for (std::int64_t i = 0; i < got->n(); ++i) {
    EXPECT_EQ(got->child_of(i, kSmall), ref->child_of(i, kSmall)) << what << " i=" << i;
    EXPECT_EQ(got->child_of(i, kBig), ref->child_of(i, kBig)) << what << " i=" << i;
  }
}

TEST(TreeStateDetail, BuildBatchMatchesSequentialBuild) {
  const std::vector<std::uint64_t> keys{9, 4, 12, 1, 6, 10, 15, 0, 5, 8, 11, 13, 2, 7};
  const wfsort::StripedJobs one_stripe(keys.size(), keys.size());
  ASSERT_EQ(one_stripe.jobs, 1u);
  auto ref = build_striped_sequential(keys, one_stripe);
  BuiltTree t = unbuilt(keys);
  wfsort::detail::BuildTally tally;
  ASSERT_TRUE(wfsort::detail::build_batch(*t.state, one_stripe.stripe(0), tally, kKeepGoing));
  EXPECT_GT(tally.iterations, 0u);
  EXPECT_GE(tally.max_iterations, 1u);
  EXPECT_EQ(tally.installs, keys.size() - 1);  // everything but the root
  expect_same_links(t, ref, "one stripe");
}

TEST(TreeStateDetail, BuildBatchSlotRaceGoesToEarlierStripePosition) {
  // One stripe over n = 2 * kBuildLanes elements runs in bit-reversed order,
  // 0, n/2, n/4, 3n/4, ...: the root (0) is skipped, so the lanes start on
  // the even indices that come next.  Every key is above the root's, so all
  // of them aim at the root's empty BIG slot in the first round: lane order
  // decides nothing by itself, and n/2 = kBuildLanes — first in the stripe,
  // not the smallest index — must take it, as it does sequentially.  The
  // odd indices then refill the lanes while older lanes (larger indices such
  // as 3n/4) are still racing down the same path: an index-ordered stall
  // would hand those slots to the wrong element.
  using wfsort::detail::kBuildLanes;
  std::vector<std::uint64_t> keys(2 * kBuildLanes);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 100 + (i * 7) % keys.size();
  keys[0] = 0;
  const wfsort::StripedJobs one_stripe(keys.size(), keys.size());
  auto ref = build_striped_sequential(keys, one_stripe);
  EXPECT_EQ(ref->child_of(0, kBig), kBuildLanes);
  BuiltTree t = unbuilt(keys);
  wfsort::detail::BuildTally tally;
  ASSERT_TRUE(wfsort::detail::build_batch(*t.state, one_stripe.stripe(0), tally, kKeepGoing));
  EXPECT_GT(tally.iterations, tally.installs);  // lanes did meet on occupied slots
  EXPECT_EQ(tally.cas_failures, 0u);  // and one worker never loses a CAS
  expect_same_links(t, ref, "race");
}

TEST(TreeStateDetail, BuildBatchOverStripedJobsMatchesSequentialBuild) {
  // A single worker running build_batch over every job in order builds
  // exactly the sequential tree of the striped order, on inputs where the
  // lanes collide constantly (presorted, all-equal) as well as random ones.
  wfsort::Rng rng(11);
  for (const std::size_t n : {9u, 33u, 100u, 257u}) {
    for (const std::uint64_t batch : {1u, 4u, 32u, 1000u}) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i) {
          keys[i] = pattern == 0   ? i
                    : pattern == 1 ? n - i
                    : pattern == 2 ? 5
                                   : rng.below(n / 2 + 1);
        }
        const wfsort::StripedJobs jobs(n, batch);
        auto ref = build_striped_sequential(keys, jobs);
        BuiltTree t = unbuilt(keys);
        wfsort::detail::BuildTally tally;
        for (std::uint64_t j = 0; j < jobs.jobs; ++j) {
          ASSERT_TRUE(wfsort::detail::build_batch(*t.state, jobs.stripe(j), tally,
                                                  kKeepGoing));
        }
        EXPECT_EQ(tally.installs, n - 1);
        expect_same_links(t, ref,
                          "n=" + std::to_string(n) + " batch=" + std::to_string(batch) +
                              " pattern=" + std::to_string(pattern));
      }
    }
  }
}

// The same over random sizes, job counts and key patterns.  Stripes shorter
// than kBuildLanes retire lanes while others still race, and a lane that
// passed a stalled earlier one (stepping after the slot's winner) must not
// step before it afterwards.  Swapping the last lane into a retired slot did
// that: two of these draws built a different tree with 8 lanes, and about 4
// in 1000 did with 16.
TEST(TreeStateDetail, BuildBatchRandomStripesMatchSequentialBuild) {
  wfsort::Rng rng(99);
  int mismatches = 0;
  for (int draw = 0; draw < 4000 && mismatches < 3; ++draw) {
    const std::size_t n = 2 + rng.below(600);
    const std::uint64_t batch = 1 + rng.below(128);
    const auto pattern = rng.below(4);
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = pattern == 0 ? i : pattern == 1 ? n - i : rng.below(pattern == 2 ? 4 : n / 2 + 1);
    }
    const wfsort::StripedJobs jobs(n, batch);
    auto ref = build_striped_sequential(keys, jobs);
    BuiltTree t = unbuilt(keys);
    wfsort::detail::BuildTally tally;
    for (std::uint64_t j = 0; j < jobs.jobs; ++j) {
      ASSERT_TRUE(wfsort::detail::build_batch(*t.state, jobs.stripe(j), tally, kKeepGoing));
    }
    bool same = true;
    for (std::int64_t i = 0; i < t->n(); ++i) {
      same &= t->child_of(i, kSmall) == ref->child_of(i, kSmall) &&
              t->child_of(i, kBig) == ref->child_of(i, kBig);
    }
    EXPECT_TRUE(same) << "draw=" << draw << " n=" << n << " batch=" << batch
                      << " pattern=" << pattern;
    mismatches += same ? 0 : 1;
  }
}

// The depth phase 1 tallies (start depth + iterations of every finished
// element, maximum over the workers) is the finished tree's depth, for one
// driving thread and for four racing over the same stripes in different
// orders.
TEST(TreeStateDetail, BuildBatchTallyDepthEqualsTreeDepth) {
  wfsort::Rng rng(23);
  for (const std::uint32_t threads : {1u, 4u}) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      constexpr std::size_t kN = 4097;
      std::vector<std::uint64_t> keys(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        keys[i] = pattern == 0 ? rng.next() : pattern == 1 ? i : rng.below(8);
      }
      const wfsort::StripedJobs jobs(kN, 64);
      BuiltTree t = unbuilt(keys);
      std::vector<wfsort::detail::BuildTally> tallies(threads);
      {
        std::vector<std::jthread> crew;
        for (std::uint32_t w = 0; w < threads; ++w) {
          crew.emplace_back([&, w] {
            for (std::uint64_t k = 0; k < jobs.jobs; ++k) {
              const std::uint64_t j = (k + w * jobs.jobs / threads) % jobs.jobs;
              wfsort::detail::build_batch(*t.state, jobs.stripe(j), tallies[w],
                                          kKeepGoing);
            }
          });
        }
      }
      std::uint64_t depth = 0;
      for (const auto& tally : tallies) depth = std::max(depth, tally.max_depth);
      EXPECT_EQ(depth, dfs_depth(*t.state))
          << "threads=" << threads << " pattern=" << pattern;
    }
  }
}

// ---- stripes ------------------------------------------------------------

TEST(StripeDetail, StripedJobsVisitEveryIndexOnce) {
  for (const std::uint64_t n : {2u, 31u, 32u, 33u, 2047u, 2049u, 65537u}) {
    for (const std::uint64_t batch : {1u, 4u, 32u}) {
      const wfsort::StripedJobs jobs(n, batch);
      EXPECT_TRUE(wfsort::is_pow2(jobs.jobs));
      EXPECT_GE(jobs.jobs * batch, n);
      std::vector<std::uint8_t> seen(n, 0);
      for (std::uint64_t j = 0; j < jobs.jobs; ++j) {
        wfsort::Stripe stripe = jobs.stripe(j);
        std::uint64_t count = 0;
        for (std::uint64_t i; stripe.next(i);) {
          ASSERT_LT(i, n) << "n=" << n << " batch=" << batch << " job=" << j;
          ASSERT_EQ(seen[i]++, 0) << "n=" << n << " batch=" << batch << " i=" << i;
          ++count;
        }
        EXPECT_LE(count, batch) << "n=" << n << " job=" << j;
      }
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<std::ptrdiff_t>(n))
          << "n=" << n << " batch=" << batch;
    }
  }
}

TEST(StripeDetail, StripeRunsInBitReversedOffsetOrder) {
  // Stripe 1 of stride 4 below 23: offsets 0..5 of {1, 5, 9, 13, 17, 21},
  // visited as bit_reverse(k, 3) = 0, 4, 2, (6), 1, 5, 3, (7).
  wfsort::Stripe stripe(1, 4, 23);
  std::vector<std::uint64_t> got;
  for (std::uint64_t i; stripe.next(i);) got.push_back(i);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 17, 9, 5, 21, 13}));
  // A stripe that starts past the end is empty.
  wfsort::Stripe empty(9, 16, 9);
  std::uint64_t i = 0;
  EXPECT_FALSE(empty.next(i));
}

TEST(StripeDetail, OneWorkerInsertsBitReversalOfItsStep) {
  // For a power-of-two N, claiming jobs 0, 1, 2, ... inserts element
  // bit_reverse(p) at step p — the order whose every prefix is an even
  // sample of the index range.
  const std::uint64_t n = 256;
  const wfsort::StripedJobs jobs(n, 32);
  std::uint64_t p = 0;
  for (std::uint64_t j = 0; j < jobs.jobs; ++j) {
    wfsort::Stripe stripe = jobs.stripe(j);
    for (std::uint64_t i; stripe.next(i); ++p) {
      EXPECT_EQ(i, wfsort::bit_reverse(p, 8)) << p;
    }
  }
  EXPECT_EQ(p, n);
}

TEST(TreeStateDetail, LcPhasesCompleteOnHandBuiltTree) {
  std::vector<std::uint64_t> keys{50, 30, 70, 20, 40, 60, 80};
  auto st = build_sequential(keys);
  LcMarks sum_marks(keys.size());
  LcMarks place_marks(keys.size());
  wfsort::Rng rng(5);
  wfsort::detail::LcProbeTally tally;
  ASSERT_TRUE(wfsort::detail::lc_tree_sum(*st, sum_marks, rng, 4, tally, kKeepGoing));
  EXPECT_EQ(st->size_of(0), 7);
  EXPECT_GT(tally.probes, 0u);
  EXPECT_GT(tally.visits, 0u);
  ASSERT_TRUE(wfsort::detail::lc_find_place_emit(*st, place_marks, rng, 4, tally, kKeepGoing));
  const std::uint64_t expected[] = {20, 30, 40, 50, 60, 70, 80};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(st->out[static_cast<std::size_t>(i)].load(), expected[i]);
  }
}

TEST(TreeStateDetail, LcPhasesSingleElement) {
  std::vector<std::uint64_t> keys{42};
  wfsort::RunArena arena;
  State st(std::span<const std::uint64_t>(keys), {}, arena);
  LcMarks sum_marks(1), place_marks(1);
  wfsort::Rng rng(1);
  wfsort::detail::LcProbeTally tally;
  ASSERT_TRUE(wfsort::detail::lc_tree_sum(st, sum_marks, rng, 1, tally, kKeepGoing));
  EXPECT_EQ(st.size_of(0), 1);
  ASSERT_TRUE(wfsort::detail::lc_find_place_emit(st, place_marks, rng, 1, tally, kKeepGoing));
  EXPECT_EQ(st.place_of(0), 1);
}

TEST(TreeStateDetail, SpreadSideIsBalancedAcrossPids) {
  // The hashed spread should split ~half/half at every depth.
  for (std::uint32_t depth : {0u, 5u, 17u, 31u, 63u}) {
    int small = 0;
    for (std::uint32_t pid = 0; pid < 1000; ++pid) {
      if (wfsort::detail::spread_side(pid, depth) == kSmall) ++small;
    }
    EXPECT_GT(small, 400) << depth;
    EXPECT_LT(small, 600) << depth;
  }
}

// ---- leaf sort ----------------------------------------------------------

std::vector<std::uint64_t> pattern_input(const std::string& pattern, std::size_t n) {
  std::vector<std::uint64_t> v(n);
  wfsort::Rng rng(0xabcdefULL + n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pattern == "random") v[i] = rng.next();
    else if (pattern == "presorted") v[i] = i;
    else if (pattern == "reverse") v[i] = n - i;
    else if (pattern == "dup-heavy") v[i] = rng.next() % 8;
    else if (pattern == "all-equal") v[i] = 42;
    else v[i] = i < n / 2 ? i : n - i;  // organ-pipe
  }
  return v;
}

TEST(LeafSort, MatchesStdSortAcrossPatterns) {
  for (const char* pattern :
       {"random", "presorted", "reverse", "dup-heavy", "all-equal", "organ-pipe"}) {
    for (std::size_t n : {0u, 1u, 2u, 23u, 24u, 25u, 100u, 1000u, 5000u}) {
      auto v = pattern_input(pattern, n);
      auto expected = v;
      std::sort(expected.begin(), expected.end());
      wfsort::detail::LeafSortTally tally;
      wfsort::detail::leaf_sort(v.data(), v.data() + v.size(),
                                std::less<std::uint64_t>{}, &tally);
      EXPECT_EQ(v, expected) << pattern << " n=" << n;
      EXPECT_EQ(tally.blocks, 1u);
    }
  }
}

TEST(LeafSort, ItemLessTieBreaksByIndex) {
  using Item = wfsort::detail::LeafItem<std::uint64_t>;
  std::vector<Item> items;
  for (std::int64_t i = 9; i >= 0; --i) items.push_back({7, i});
  wfsort::detail::LeafSortTally tally;
  wfsort::detail::leaf_sort(items.data(), items.data() + items.size(),
                            wfsort::detail::LeafItemLess<std::uint64_t,
                                                         std::less<std::uint64_t>>{},
                            &tally);
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(items[static_cast<std::size_t>(i)].idx, i);
  }
}

TEST(LeafSort, ExhaustedBudgetFallsBackToHeapsort) {
  auto v = pattern_input("random", 4096);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  wfsort::detail::LeafSortTally tally;
  wfsort::detail::leaf_sort_with_budget(v.data(), v.data() + v.size(),
                                        std::less<std::uint64_t>{}, /*budget=*/0,
                                        &tally);
  EXPECT_EQ(v, expected);
  EXPECT_EQ(tally.heapsorts, 1u);      // the whole range fell back at once
  EXPECT_EQ(tally.insertion_sorts, 0u);
}

TEST(LeafSort, FewDistinctAndOrganPipeNeverFallBackToHeapsort) {
  // Bare keys with 1, 2 or 8 distinct values: the equal-key step sheds each
  // key's run once its minimum is the pivot, so duplicates never spend the
  // bad-pivot budget.  Organ pipes (distinct = 0 below; each key twice)
  // hand median-of-3 and the ninther low pivots until pattern breaking
  // reshuffles them.
  for (const std::uint64_t distinct : {0u, 1u, 2u, 8u}) {
    for (const std::size_t n : {25u, 100u, 2048u, 5000u, 65536u}) {
      wfsort::Rng rng(distinct * 1000 + n);
      std::vector<std::uint64_t> v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = distinct == 0 ? (i < n / 2 ? i : n - i) : rng.below(distinct);
      }
      auto expected = v;
      std::sort(expected.begin(), expected.end());
      wfsort::detail::LeafSortTally tally;
      wfsort::detail::leaf_sort(v.data(), v.data() + v.size(),
                                std::less<std::uint64_t>{}, &tally);
      EXPECT_EQ(v, expected) << "distinct=" << distinct << " n=" << n;
      EXPECT_EQ(tally.heapsorts, 0u) << "distinct=" << distinct << " n=" << n;
    }
  }
}

TEST(LeafSort, AdversarialMedian3KillerStaysCorrect) {
  // Musser's median-of-3 killer: forces the med3 choice toward small pivots.
  // The bad-pivot budget must keep the sort O(n log n) (= it terminates
  // quickly here) and, above all, correct.
  const std::size_t n = 128;  // at/below kPseudomedianThreshold: plain med-3
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n / 2; ++i) {
    v[2 * i] = i + 1;
    v[2 * i + 1] = i + 1 + n / 2;
  }
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  wfsort::detail::LeafSortTally tally;
  wfsort::detail::leaf_sort(v.data(), v.data() + v.size(),
                            std::less<std::uint64_t>{}, &tally);
  EXPECT_EQ(v, expected);
  // And with the budget forced to 1, the same input trips the fallback path.
  auto w = pattern_input("random", 2000);
  auto wexp = w;
  std::sort(wexp.begin(), wexp.end());
  wfsort::detail::LeafSortTally t2;
  wfsort::detail::leaf_sort_with_budget(w.data(), w.data() + w.size(),
                                        std::less<std::uint64_t>{}, /*budget=*/1,
                                        &t2);
  EXPECT_EQ(w, wexp);
  EXPECT_GE(t2.heapsorts, 1u);
}

// ---- the (key, index) order ---------------------------------------------

// The branchy form the (key, index) order is defined by.
template <typename Key, typename Compare>
bool reference_less(const Compare& cmp, const Key& ka, std::int64_t ia, const Key& kb,
                    std::int64_t ib) {
  return cmp(ka, kb) || (!cmp(kb, ka) && ia < ib);
}

// Every spelling of the order (TreeState::less, descend_side, LeafItemLess,
// splitter_below) agrees with the reference on every ordered
// pair of distinct indices over `keys`.
template <typename Key, typename Compare>
void expect_order_matches_reference(const std::vector<Key>& keys, Compare cmp,
                                    const std::string& what) {
  using wfsort::detail::LeafItem;
  wfsort::RunArena arena;
  const wfsort::detail::TreeState<Key, Compare> st(std::span<const Key>(keys), cmp, arena);
  const wfsort::detail::LeafItemLess<Key, Compare> item_less{cmp};
  const auto n = static_cast<std::int64_t>(keys.size());
  for (std::int64_t a = 0; a < n; ++a) {
    for (std::int64_t b = 0; b < n; ++b) {
      if (a == b) continue;  // a descent never compares an element with itself
      const Key& ka = keys[static_cast<std::size_t>(a)];
      const Key& kb = keys[static_cast<std::size_t>(b)];
      const bool ref = reference_less(cmp, ka, a, kb, b);
      const auto side = ref ? kSmall : kBig;
      const std::string at = what + " a=" + std::to_string(a) + " b=" + std::to_string(b);
      EXPECT_EQ(st.less(a, b), ref) << at;
      EXPECT_EQ(st.descend_side(a, b), side) << at;
      EXPECT_EQ(item_less(LeafItem<Key>{ka, a}, LeafItem<Key>{kb, b}), ref) << at;
      EXPECT_EQ(wfsort::detail::splitter_below(cmp, LeafItem<Key>{ka, a}, kb, b),
                ref ? 1u : 0u)
          << at;
    }
  }
}

struct Key16 {
  std::uint64_t hi;
  std::uint64_t lo;
};
struct Key16Less {
  bool operator()(const Key16& a, const Key16& b) const {
    return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo);
  }
};

TEST(TreeStateDetail, DescendOrderMatchesReference) {
  // Equal keys at low and high indices (ties broken both ways), 0 and
  // UINT64_MAX, and the 32-bit boundary keys a compare built from 32-bit
  // halves gets wrong if it combines them badly.
  const std::vector<std::uint64_t> edges{5,           9,           7, 7, 0x1'00000000ULL,
                                         0xFFFFFFFFULL, ~0ULL,     0, 7, ~0ULL,
                                         0,           0xFFFFFFFFULL};
  expect_order_matches_reference(edges, std::less<std::uint64_t>{}, "edges less");
  expect_order_matches_reference(edges, std::greater<std::uint64_t>{}, "edges greater");
  // A 16-byte key whose order is decided by the low word as well as the high.
  const std::vector<Key16> wide{{1, 2}, {1, 2}, {0, ~0ULL}, {1, 1},
                                {~0ULL, 0}, {1, 2}, {0, ~0ULL}, {0, 0}};
  expect_order_matches_reference(wide, Key16Less{}, "16-byte");
  // Random rounds with frequent equal keys.
  wfsort::Rng rng(123);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint64_t> keys(8);
    for (auto& k : keys) k = rng.next() % 4;
    const std::string what = "round=" + std::to_string(round);
    if (round % 2 == 0) {
      expect_order_matches_reference(keys, std::less<std::uint64_t>{}, what);
    } else {
      expect_order_matches_reference(keys, std::greater<std::uint64_t>{}, what);
    }
  }
}

// ---- partition phase ----------------------------------------------------

using Partition = wfsort::detail::PartitionShared<std::uint64_t>;
using PartitionLocal = wfsort::detail::PartitionLocal<std::uint64_t>;
constexpr std::less<std::uint64_t> kLess{};
constexpr wfsort::detail::LeafItemLess<std::uint64_t, std::less<std::uint64_t>> kItemLess{};

// Drive the three partition sweeps to completion single-threaded, the way
// one surviving worker would.
void run_partition(Partition& ps, PartitionLocal& local) {
  ASSERT_TRUE(wfsort::detail::partition_prepare(kLess, ps, local, kKeepGoing));
  for (std::int64_t c = 0; c < ps.chunks; ++c) {
    ASSERT_TRUE(wfsort::detail::partition_classify(kLess, ps, local, c, kKeepGoing));
  }
  ASSERT_TRUE(wfsort::detail::partition_offsets(ps, local, kKeepGoing));
  for (std::int64_t c = 0; c < ps.chunks; ++c) {
    ASSERT_TRUE(wfsort::detail::partition_scatter(ps, local, c, kKeepGoing));
  }
  for (std::int64_t b = 0; b < ps.buckets; ++b) {
    ASSERT_TRUE(wfsort::detail::partition_bucket(kLess, ps, local, b, kKeepGoing));
  }
}

TEST(PartitionPhase, SingleBucketBelowChunkSize) {
  auto keys = pattern_input("random", 100);  // < kChunk: one bucket, no splitters
  wfsort::RunArena arena;
  Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/true,
               /*bare_keys=*/true, arena);
  EXPECT_EQ(ps.buckets, 1);
  ASSERT_NE(ps.out, nullptr);
  EXPECT_EQ(ps.out_idx, nullptr);
  EXPECT_EQ(ps.sidx, nullptr);
  PartitionLocal local;
  run_partition(ps, local);
  EXPECT_TRUE(local.tree.empty());
  EXPECT_EQ(local.levels, 0);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ps.out[i], expected[i]);
  }
}

TEST(PartitionPhase, ManyChunksDuplicateHeavyMatchesSort) {
  auto keys = pattern_input("dup-heavy", 10000);  // 5 chunks -> 4 buckets
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  for (const bool bare : {false, true}) {  // pair and bare-key buckets
    wfsort::RunArena arena;
    Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/true, bare, arena);
    EXPECT_GT(ps.buckets, 1);
    EXPECT_EQ(ps.sidx == nullptr, bare);
    PartitionLocal local;
    run_partition(ps, local);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(ps.out[i], expected[i]) << "bare=" << bare << " " << i;
    }
  }
}

TEST(PartitionPhase, PresortedBucketsSkipTheSortButCountAsBlocks) {
  // Presorted and all-equal input scatter every bucket in order: neither
  // bucket form sorts it, and each bucket is still one leaf block.
  for (const char* pattern : {"presorted", "all-equal"}) {
    auto keys = pattern_input(pattern, 10000);
    for (const bool bare : {false, true}) {
      wfsort::RunArena arena;
      Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/true, bare, arena);
      PartitionLocal sample;  // the splitter sample's sort alone
      ASSERT_TRUE(wfsort::detail::partition_prepare(kLess, ps, sample, kKeepGoing));
      PartitionLocal local;
      run_partition(ps, local);
      EXPECT_EQ(local.tally.blocks,
                sample.tally.blocks + static_cast<std::uint64_t>(ps.buckets))
          << pattern << " bare=" << bare;
      EXPECT_EQ(local.tally.insertion_sorts, sample.tally.insertion_sorts);
      EXPECT_EQ(local.tally.partition_swaps, sample.tally.partition_swaps);
      for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(ps.out[i], keys[i]) << i;
    }
  }
}

TEST(PartitionPhase, IndexOutputIsTheStableArgsort) {
  // The sort_permutation form stores each rank's input index instead of its
  // key: exactly the (key, index) argsort.
  auto keys = pattern_input("dup-heavy", 10000);
  wfsort::RunArena arena;
  Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/false,
               /*bare_keys=*/false, arena);
  EXPECT_EQ(ps.out, nullptr);
  ASSERT_NE(ps.out_idx, nullptr);
  PartitionLocal local;
  run_partition(ps, local);
  std::vector<std::uint32_t> expected(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) expected[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  for (std::size_t r = 0; r < keys.size(); ++r) {
    EXPECT_EQ(ps.out_idx[r], expected[r]) << r;
  }
}

TEST(PartitionPhase, AllEqualKeysSplittersStayBalanced) {
  // Every key identical: only the index tie-break separates splitters, and
  // it must keep the buckets balanced instead of collapsing them into one.
  auto keys = pattern_input("all-equal", 8192);
  wfsort::RunArena arena;
  Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/false,
               /*bare_keys=*/false, arena);
  ASSERT_GT(ps.buckets, 1);
  PartitionLocal local;
  run_partition(ps, local);
  // The (key, index) rank: with equal keys, rank r holds element r.
  for (std::size_t r = 0; r < keys.size(); ++r) {
    EXPECT_EQ(ps.out_idx[r], r);
  }
  const std::int64_t cap = 2 * ps.n / ps.buckets;
  for (std::size_t b = 0; b + 1 < local.base.size(); ++b) {
    const std::int64_t size = local.base[b + 1] - local.base[b];
    EXPECT_GT(size, 0) << b;
    EXPECT_LE(size, cap) << b;
  }
}

TEST(PartitionPhase, EmptyBucketIsSkipped) {
  std::vector<std::uint64_t> keys{3, 1, 2};
  wfsort::RunArena arena;
  Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/true,
               /*bare_keys=*/true, arena);
  std::fill(ps.out, ps.out + keys.size(), 99u);
  PartitionLocal local;
  // Hand-crafted bases with an empty bucket 0 (skewed input vs the sample):
  // the job must return success without touching any output slot.
  local.base = {0, 0, 0};
  EXPECT_TRUE(wfsort::detail::partition_bucket(kLess, ps, local, 0, kKeepGoing));
  for (std::size_t r = 0; r < keys.size(); ++r) {
    EXPECT_EQ(ps.out[r], 99u) << r;
  }
}

// The in-order splitters, rebuilt here without the engine's tree layout:
// the fixed-stride sample, sorted by (key, index), every kOversample-th
// item.
std::vector<wfsort::detail::LeafItem<std::uint64_t>> reference_splitters(
    const Partition& ps) {
  using Item = wfsort::detail::LeafItem<std::uint64_t>;
  std::vector<Item> sample;
  for (std::int64_t k = 0; k < ps.sample_size; ++k) {
    const std::int64_t i = (k * ps.n) / ps.sample_size;
    sample.push_back({ps.key(i), i});
  }
  std::sort(sample.begin(), sample.end(), kItemLess);
  std::vector<Item> splitters;
  for (std::int64_t b = 1; b < ps.buckets; ++b) {
    const std::int64_t r = std::min((b * ps.sample_size) / ps.buckets, ps.sample_size - 1);
    splitters.push_back(sample[static_cast<std::size_t>(r)]);
  }
  return splitters;
}

// Classify every chunk of `keys` and check each bucket id and hist row
// against a per-element binary search of the in-order reference splitters.
// A non-null `directions` receives monotone_direction of every chunk.
void expect_classify_matches_reference(const std::vector<std::uint64_t>& keys,
                                       const std::string& what,
                                       std::vector<int>* directions = nullptr) {
  wfsort::RunArena arena;
  Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/true,
               /*bare_keys=*/false, arena);
  PartitionLocal local;
  ASSERT_TRUE(wfsort::detail::partition_prepare(kLess, ps, local, kKeepGoing));
  const auto splitters = reference_splitters(ps);
  ASSERT_EQ(static_cast<std::int64_t>(splitters.size()), ps.buckets - 1);
  for (std::int64_t c = 0; c < ps.chunks; ++c) {
    ASSERT_TRUE(wfsort::detail::partition_classify(kLess, ps, local, c, kKeepGoing));
    const std::int64_t lo = c * Partition::kChunk;
    const std::int64_t hi = std::min(ps.n, lo + Partition::kChunk);
    if (directions != nullptr) {
      directions->push_back(
          wfsort::detail::monotone_direction(kLess, ps.keys + lo, hi - lo));
    }
    std::vector<std::uint32_t> expected_row(static_cast<std::size_t>(ps.buckets), 0);
    for (std::int64_t i = lo; i < hi; ++i) {
      const wfsort::detail::LeafItem<std::uint64_t> item{ps.key(i), i};
      const auto below = std::partition_point(
          splitters.begin(), splitters.end(),
          [&](const auto& s) { return kItemLess(s, item); });
      const auto bucket = below - splitters.begin();
      ASSERT_EQ(ps.bucket_id[i], bucket) << what << " i=" << i;
      ++expected_row[static_cast<std::size_t>(bucket)];
    }
    const std::uint32_t* row = ps.hist + c * ps.buckets;
    std::uint64_t total = 0;
    for (std::int64_t b = 0; b < ps.buckets; ++b) {
      EXPECT_EQ(row[b], expected_row[static_cast<std::size_t>(b)]) << what << " c=" << c;
      total += row[b];
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(hi - lo)) << what << " c=" << c;
  }
}

TEST(PartitionPhase, ClassifyCountsSplittersStrictlyBelow) {
  // Power-of-two and padded trees (2, 3, 5, 6, 7, 11 and 32 buckets), with
  // and without a chunk tail shorter than one descent group.  At 6 and 11
  // buckets, items between two real splitters descend through padding
  // nodes, which therefore must repeat the largest splitter.
  for (const std::size_t n : {2u * 2048u, 3u * 2048u + 1u, 5u * 2048u + 7u, 6u * 2048u + 5u,
                              7u * 2048u, 11u * 2048u, 65536u}) {
    for (const char* pattern : {"random", "presorted", "reverse", "all-equal", "dup-heavy"}) {
      expect_classify_matches_reference(pattern_input(pattern, n),
                                        std::string(pattern) + " n=" + std::to_string(n));
    }
  }
}

TEST(PartitionPhase, MonotoneChunksClassifyAsTheDescentDoes) {
  // Every chunk holds its own random keys in one order, so a monotone
  // chunk's walk crosses most of the buckets.  Ascending chunks (with ties)
  // and strictly descending ones take the monotone path; non-increasing
  // chunks with ties are not strictly descending and take the general one.
  // In "long-ties" every key repeats 600 times, so splitters fall inside
  // runs of equal keys, where the (key, index) order ascends.  The tails
  // are 1, 2 and kChunk - 1 elements long.
  const std::int64_t chunk = Partition::kChunk;
  for (const std::int64_t n : {5 * chunk + 1, 5 * chunk + 2, 5 * chunk - 1, 16 * chunk}) {
    wfsort::Rng rng(0x5eed + static_cast<std::uint64_t>(n));
    const struct {
      const char* name;
      int direction;  // of every full chunk
    } orders[] = {{"ascending", 1}, {"descending", -1}, {"ties-non-increasing", 0},
                  {"long-ties", 0}, {"all-equal", 1}};
    const auto un = static_cast<std::uint64_t>(n);
    for (const auto& order : orders) {
      const std::string name = order.name;
      std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < un; ++i) {
        keys[i] = name == "ascending"              ? rng.below(un)
                  : name == "ties-non-increasing" ? rng.below(un / 8)
                  : name == "long-ties"           ? (un - i) / 600
                  : name == "all-equal"           ? 42
                                                  : rng.next();
      }
      for (std::int64_t lo = 0; lo < n; lo += chunk) {
        const auto first = keys.begin() + lo;
        const auto last = keys.begin() + std::min(n, lo + chunk);
        if (name == "ascending") {
          std::sort(first, last);
        } else {
          std::sort(first, last, std::greater<>{});
        }
      }
      const std::string what = name + " n=" + std::to_string(n);
      std::vector<int> directions;
      expect_classify_matches_reference(keys, what, &directions);
      const int tail = static_cast<int>(n % chunk);
      for (std::size_t c = 0; c < directions.size(); ++c) {
        const bool full = c + 1 < directions.size() || tail == 0;
        if (full || order.direction != 0) {
          EXPECT_EQ(directions[c], tail == 1 && !full ? 1 : order.direction)
              << what << " c=" << c;
        }
      }
    }
  }
}

TEST(PartitionPhase, AbortedSweepsReturnFalse) {
  // 4 full chunks and a last one of 1813 = 8*226 + 5 elements: a group
  // tail.  Random chunks take the grouped descent, sorted and strictly
  // descending ones the monotone walk.
  for (const auto& [pattern, direction] :
       {std::pair{"random", 0}, std::pair{"presorted", 1}, std::pair{"reverse", -1}}) {
    auto keys = pattern_input(pattern, 10005);
    wfsort::RunArena arena;
    Partition ps(std::span<const std::uint64_t>(keys), /*keys_out=*/true,
                 /*bare_keys=*/false, arena);
    PartitionLocal local;
    int budget = 5;
    auto limited = [&budget] { return budget-- > 0; };
    EXPECT_FALSE(wfsort::detail::partition_prepare(kLess, ps, local, limited));
    ASSERT_TRUE(wfsort::detail::partition_prepare(kLess, ps, local, kKeepGoing));

    const std::size_t nb = static_cast<std::size_t>(ps.buckets);
    for (const std::int64_t chunk : {std::int64_t{0}, ps.chunks - 1}) {
      const std::int64_t lo = chunk * Partition::kChunk;
      const std::int64_t hi = std::min(ps.n, lo + Partition::kChunk);
      const std::string where =
          std::string(pattern) + " chunk=" + std::to_string(chunk) + " budget=";
      ASSERT_EQ(wfsort::detail::monotone_direction(kLess, ps.keys + lo, hi - lo),
                direction)
          << where;
      std::uint32_t* row = ps.hist + chunk * ps.buckets;
      // An uninterrupted run polls once per element.
      std::int64_t polls = 0;
      auto counting = [&polls] { ++polls; return true; };
      ASSERT_TRUE(wfsort::detail::partition_classify(kLess, ps, local, chunk, counting));
      EXPECT_EQ(polls, hi - lo) << where;
      const std::vector<std::uint16_t> ids(ps.bucket_id + lo, ps.bucket_id + hi);
      const std::vector<std::uint32_t> counts(row, row + nb);

      // Aborts inside and between descent groups, and inside the tail.
      std::vector<int> budgets;
      for (int k = 1; k <= 17; ++k) budgets.push_back(k);
      for (int k = 1; k <= 3; ++k) budgets.push_back(static_cast<int>(hi - lo) - k);
      for (const int k : budgets) {
        std::fill(ps.bucket_id + lo, ps.bucket_id + hi, std::uint16_t{0xffff});
        std::fill(row, row + nb, 0xffffffffu);
        budget = k;
        EXPECT_FALSE(wfsort::detail::partition_classify(kLess, ps, local, chunk, limited))
            << where << k;
        // The hist row is stored only by a completed job.
        EXPECT_EQ(std::count(row, row + nb, 0xffffffffu), static_cast<std::ptrdiff_t>(nb))
            << where << k;
        ASSERT_TRUE(
            wfsort::detail::partition_classify(kLess, ps, local, chunk, kKeepGoing));
        EXPECT_EQ(std::vector<std::uint16_t>(ps.bucket_id + lo, ps.bucket_id + hi), ids)
            << where << k;
        EXPECT_EQ(std::vector<std::uint32_t>(row, row + nb), counts) << where << k;
      }
    }
  }
}

// Finish one bucket with sort_bucket at slots [lo, lo + size) and compare
// its ranks with leaf_sort's order of the same items.  `merged`: the bucket
// is at most two runs, so it must be emitted by the merge (one leaf block,
// no leaf sort work); otherwise it must be leaf-sorted.
template <typename T, typename Less>
void expect_bucket_matches_leaf_sort(const std::vector<T>& bucket, Less less, bool merged,
                                     const std::string& what) {
  constexpr std::int64_t lo = 3;
  const std::int64_t hi = lo + static_cast<std::int64_t>(bucket.size());
  std::vector<T> expected = bucket;
  wfsort::detail::LeafSortTally ref_tally;
  wfsort::detail::leaf_sort(expected.data(), expected.data() + expected.size(), less,
                            &ref_tally);
  std::vector<T> scratch;
  std::vector<T> out(static_cast<std::size_t>(hi));
  std::vector<int> stores(static_cast<std::size_t>(hi), 0);
  wfsort::detail::LeafSortTally tally;
  ASSERT_TRUE(wfsort::detail::sort_bucket(
      scratch, lo, hi, less, tally,
      [&](std::size_t s) { return bucket[s - static_cast<std::size_t>(lo)]; },
      [&](std::size_t r, const T& it) {
        out[r] = it;
        ++stores[r];
      },
      kKeepGoing))
      << what;
  for (std::int64_t r = 0; r < hi; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    ASSERT_EQ(stores[ur], r < lo ? 0 : 1) << what << " r=" << r;
    if (r < lo) continue;
    const T& got = out[ur];
    const T& want = expected[ur - static_cast<std::size_t>(lo)];
    EXPECT_TRUE(!less(got, want) && !less(want, got)) << what << " r=" << r;
    if constexpr (!std::is_integral_v<T>) {
      EXPECT_EQ(got.idx, want.idx) << what << " r=" << r;
    }
  }
  EXPECT_EQ(tally.blocks, 1u) << what;
  if (merged) {
    EXPECT_EQ(tally.insertion_sorts + tally.heapsorts + tally.partition_swaps, 0u)
        << what;
  } else {
    EXPECT_EQ(tally.insertion_sorts, ref_tally.insertion_sorts) << what;
  }
}

TEST(PartitionPhase, RunMergedBucketsEmitTheLeafSortRanks) {
  const struct {
    const char* name;
    std::vector<std::uint64_t> keys;
    bool merged;
  } cases[] = {
      {"empty", {}, true},
      {"one", {4}, true},
      {"two-descending", {4, 2}, true},
      {"two-ascending", {2, 4}, true},
      {"three-desc-asc", {3, 1, 2}, true},
      {"three-asc-desc", {2, 3, 1}, true},
      {"three-descending", {3, 2, 1}, true},
      {"ascending", {1, 2, 2, 3, 5, 8, 8, 13}, true},
      {"descending", {9, 7, 4, 2, 1}, true},
      {"asc+desc", {1, 4, 6, 9, 8, 5, 3, 2}, true},
      {"desc+asc", {9, 6, 3, 1, 4, 7, 8}, true},
      {"asc+asc", {2, 5, 8, 1, 3, 9}, true},
      {"asc+desc equal at seam", {1, 3, 5, 5, 5, 4, 3, 1}, true},
      {"desc+asc equal at seam", {5, 3, 1, 1, 3, 5}, true},
      {"three runs", {1, 5, 9, 2, 6, 3, 7}, false},
      {"desc+desc", {9, 5, 1, 8, 4, 2}, true},
      {"desc+desc+asc", {9, 5, 8, 4, 2, 3}, false},
  };
  using Item = wfsort::detail::LeafItem<std::uint64_t>;
  for (const auto& c : cases) {
    expect_bucket_matches_leaf_sort(c.keys, kLess, c.merged,
                                    std::string("bare ") + c.name);
    // The (key, index) pairs a bucket holds after the scatter: indices in
    // slot order, so equal keys ascend and end a descending run.
    std::vector<Item> items;
    for (std::size_t s = 0; s < c.keys.size(); ++s) {
      items.push_back({c.keys[s], static_cast<std::int64_t>(100 + s)});
    }
    expect_bucket_matches_leaf_sort(items, kItemLess, c.merged,
                                    std::string("pairs ") + c.name);
  }
}

TEST(PartitionPhase, AbortedMergeReturnsFalse) {
  // An organ-pipe bucket: an ascending run, then a descending one.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 40; ++k) keys.push_back(2 * k);
  for (std::uint64_t k = 40; k-- > 0;) keys.push_back(2 * k + 1);
  const std::int64_t size = static_cast<std::int64_t>(keys.size());
  std::vector<std::uint64_t> scratch;
  for (const std::int64_t emitted :
       {std::int64_t{0}, std::int64_t{1}, size / 2, size - 1}) {
    std::int64_t budget = size + emitted;  // the gather, then `emitted` ranks
    std::int64_t stores = 0;
    wfsort::detail::LeafSortTally tally;
    EXPECT_FALSE(wfsort::detail::sort_bucket(
        scratch, 0, size, kLess, tally, [&](std::size_t s) { return keys[s]; },
        [&](std::size_t r, std::uint64_t k) {
          EXPECT_EQ(k, static_cast<std::uint64_t>(r));
          ++stores;
        },
        [&budget] { return budget-- > 0; }))
        << emitted;
    EXPECT_EQ(stores, emitted);
    EXPECT_EQ(tally.insertion_sorts, 0u);
  }
}

TEST(TreeStateDetail, AllPlacedAndMeasureDepth) {
  auto st = build_sequential({3, 1, 2});
  EXPECT_FALSE(st->all_placed());
  ASSERT_TRUE(wfsort::detail::tree_sum(*st, 0, kKeepGoing));
  ASSERT_TRUE(wfsort::detail::find_place_emit(*st, 0, /*seq_cutoff=*/0, kKeepGoing));
  EXPECT_TRUE(st->all_placed());
  EXPECT_EQ(dfs_depth(*st), 3u);  // 3 -> 1 -> 2 chain
}

// ------------------------------------------------------ completion contract

// run_worker returning true is a promise that the output is fully assembled
// at that moment, not only once the crew joins: assist_copy_back starts
// streaming it straight away.  Eight real threads per run on every
// configuration; each checks Output::complete() the instant its own
// run_worker returns, before the join.
TEST(CompletionContract, EveryReturningWorkerSeesTheWholeOutput) {
  using Engine = wfsort::detail::Engine<std::uint64_t, std::less<std::uint64_t>>;
  constexpr std::uint32_t kThreads = 8;
  const struct {
    const char* name;
    wfsort::Options opts;
  } configs[] = {
      {"det-tree", {.threads = kThreads}},
      {"det-partition", {.threads = kThreads, .phase1 = wfsort::Phase1::kPartition}},
      {"lc", {.threads = kThreads, .variant = wfsort::Variant::kLowContention}},
  };
  for (const auto& c : configs) {
    for (const std::size_t n : {std::size_t{2048}, std::size_t{20000}}) {
      for (std::uint64_t rep = 0; rep < 25; ++rep) {
        wfsort::Rng rng(n * 1000 + rep);
        std::vector<std::uint64_t> v(n);
        for (auto& x : v) x = rng.next() % (2 * n);  // some duplicates
        std::vector<std::uint64_t> expected = v;
        std::sort(expected.begin(), expected.end());
        Engine engine(std::span<std::uint64_t>(v), {}, c.opts);
        std::atomic<std::uint32_t> completed{0};
        std::atomic<std::uint32_t> incomplete{0};
        {
          std::vector<std::jthread> threads;
          for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
            threads.emplace_back([&, tid] {
              if (!engine.run_worker(tid)) return;
              if (!engine.output().complete()) incomplete.fetch_add(1);
              completed.fetch_add(1);
            });
          }
        }
        const std::string where =
            std::string(c.name) + " n=" + std::to_string(n) + " rep=" + std::to_string(rep);
        EXPECT_EQ(completed.load(), kThreads) << where;
        EXPECT_EQ(incomplete.load(), 0u) << where;
        engine.finalize();
        EXPECT_EQ(v, expected) << where;
      }
    }
  }
}

}  // namespace
