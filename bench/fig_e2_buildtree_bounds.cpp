// E2 — Lemma 2.4 and the tree-depth claim behind Lemma 2.8.
//
// Lemma 2.4: no build_tree call loops more than N-1 times (pigeon-hole on
// CAS targets).  Lemma 2.8's engine: on random-order input the Quicksort
// tree has depth O(log N) w.h.p.  Inserted in index order, presorted input
// would degenerate the deterministic variant into an N-deep chain; the
// native engine's phase 1 inserts bit-reversed stripes (StripedJobs), so
// sorted, reversed, organ-pipe and few-distinct inputs stay O(log N) deep
// too.  Measured on the native engine.  Exits 1 on a Lemma 2.4 violation
// or when a presorted input's depth exceeds 4*log2(N).
#include <cmath>
#include <cstdio>
#include <span>

#include "core/sort.h"
#include "exp/table.h"
#include "exp/workloads.h"

using wfsort::exp::Dist;

int main() {
  std::printf("E2: build_tree loop bound (Lemma 2.4) and pivot-tree depth\n");
  std::printf("Claims: max iterations <= N-1 always; depth ~ c*log2(N) on random input\n");
  std::printf("        (c -> 2.99 asymptotically for random BSTs); striped insertion keeps\n");
  std::printf("        presorted inputs within 4*log2(N) as well.\n");

  wfsort::exp::Table table("E2  per-N bounds (native engine, 4 threads)",
                           {"N", "input", "max build iters", "bound N-1", "depth",
                            "depth/log2N", "total iters/N"});
  wfsort::exp::Series depth_series;
  bool too_deep = false;

  for (std::size_t n : {1u << 10, 1u << 12, 1u << 14, 1u << 16}) {
    for (Dist d : {Dist::kShuffled, Dist::kUniform, Dist::kSorted, Dist::kReversed,
                   Dist::kOrganPipe, Dist::kFewDistinct}) {
      auto keys = wfsort::exp::make_u64_keys(n, d, 42 + n);
      wfsort::SortStats stats;
      wfsort::sort(std::span<std::uint64_t>(keys), wfsort::Options{.threads = 4}, &stats);
      const double logn = std::log2(static_cast<double>(n));
      table.add_row({static_cast<std::uint64_t>(n), std::string(wfsort::exp::dist_name(d)),
                     stats.max_build_iters, static_cast<std::uint64_t>(n - 1),
                     static_cast<std::uint64_t>(stats.tree_depth),
                     static_cast<double>(stats.tree_depth) / logn,
                     static_cast<double>(stats.total_build_iters) / static_cast<double>(n)});
      if (d == Dist::kShuffled) {
        depth_series.add(static_cast<double>(n), static_cast<double>(stats.tree_depth));
      }
      const bool presorted = d != Dist::kShuffled && d != Dist::kUniform;
      if (presorted && stats.tree_depth > 4.0 * logn) {
        std::printf("TOO DEEP: %s at N=%zu has depth %u > 4*log2(N)\n",
                    wfsort::exp::dist_name(d), n, stats.tree_depth);
        too_deep = true;
      }
      if (stats.max_build_iters > n - 1) {
        std::printf("VIOLATION of Lemma 2.4 at N=%zu!\n", n);
        return 1;
      }
    }
  }
  table.print();

  std::printf("depth growth on random input: %s (log-like; exponent ~0)\n",
              wfsort::exp::verdict_exponent(depth_series.power_law_exponent(), 0.0, 0.25)
                  .c_str());
  std::printf("paper-vs-measured: Lemma 2.4 bound held in every run; random-input depth\n"
              "is ~3 log2 N, and presorted inputs, which an index-order insertion would\n"
              "chain to depth ~N, stay within %s.\n",
              too_deep ? "NOT within 4 log2 N (see above)" : "4 log2 N");
  return too_deep ? 1 : 0;
}
