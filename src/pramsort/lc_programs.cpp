#include "pramsort/lc_programs.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "lowcontention/fat_tree.h"
#include "pramsort/det_programs.h"

namespace wfsort::sim {

namespace {

constexpr int kSmall = SortLayout::kSmall;
constexpr int kBig = SortLayout::kBig;

// A SortLayout view of the group arrays: same global element addressing,
// child/size/place redirected into the g* regions.  Lets stage A reuse the
// Section-2 programs verbatim.
SortLayout group_view(const LcSortLayout& l) {
  SortLayout v;
  v.n = l.main.n;
  v.keys = l.main.keys;
  v.child = l.gchild;
  v.size = l.gsize;
  v.place = l.gplace;
  v.out = l.gout;  // unused by build/sum; group_find_place handles output itself
  return v;
}

pram::SubTask<void> noop_job(pram::Ctx& ctx) {
  (void)ctx;
  co_return;
}

// Group phase 3: like Figure 6 on the group arrays, but emits the *global
// element index* at each rank into gout — the fat tree and all fallback
// reads are served from this array.
pram::SubTask<void> group_find_place_prog(pram::Ctx& ctx, const LcSortLayout& l, std::uint32_t g) {
  struct Frame {
    pram::Word node;
    pram::Word sub;
  };
  const pram::Word groot = static_cast<pram::Word>(g) * static_cast<pram::Word>(l.slice);
  std::vector<Frame> stack{{groot, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.node == pram::kEmpty) continue;
    const pram::Word small = co_await ctx.read(l.gchild_addr(f.node, kSmall));
    pram::Word s = 0;
    if (small != pram::kEmpty) s = co_await ctx.read(l.gsize_addr(small));
    const pram::Word pl = f.sub + s + 1;
    co_await ctx.write(l.gplace_addr(f.node), pl);
    co_await ctx.write(l.gout_addr(g, static_cast<std::uint64_t>(pl - 1)), f.node);
    const pram::Word big = co_await ctx.read(l.gchild_addr(f.node, kBig));
    stack.push_back({small, f.sub});
    stack.push_back({big, f.sub + s + 1});
  }
}

bool fat_is_interior(const LcSortLayout& l, std::uint64_t f) { return 2 * f + 1 < l.slice; }

}  // namespace

pram::SubTask<pram::Word> select_winner_prog(pram::Ctx& ctx, const LcSortLayout& l,
                                             pram::Word candidate) {
  const HeapTree t(next_pow2(l.procs));
  const std::uint32_t depth = t.depth();

  // Geometric pre-wait: wave s (about 2^s processors) leaves after
  // K*(log P - s) idle rounds.
  std::uint32_t s = 0;
  while (s < depth && ctx.rng().coin()) ++s;
  const std::uint64_t waits = static_cast<std::uint64_t>(l.wait_unit) * (depth - s);
  for (std::uint64_t k = 0; k < waits; ++k) (void)co_await ctx.yield();

  std::uint64_t j = t.leaf(ctx.pid() % t.leaves);
  pram::Word v = pram::kEmpty;
  while (true) {
    v = co_await ctx.read(l.winner.base + j);
    if (v != pram::kEmpty || t.is_root(j)) break;
    j = t.parent(j);
  }
  if (t.is_root(j) && v == pram::kEmpty) {
    const pram::Word old = co_await ctx.cas(l.winner.base + t.root(), pram::kEmpty, candidate);
    v = (old == pram::kEmpty) ? candidate : old;
  }
  if (!t.is_leaf(j)) {
    co_await ctx.write(l.winner.base + t.left(j), v);
    co_await ctx.write(l.winner.base + t.right(j), v);
  }
  co_return v;
}

pram::SubTask<void> write_most_fat_prog(pram::Ctx& ctx, const LcSortLayout& l, std::uint32_t w) {
  const std::uint64_t cells = l.slice * l.copies;
  const std::uint64_t quota = log2_ceil(std::uint64_t{l.procs} + 1) + 1;
  for (std::uint64_t q = 0; q < quota; ++q) {
    const std::uint64_t cell = ctx.rng().below(cells);
    const std::uint64_t node = cell / l.copies;
    const std::uint64_t rank = FatTree::rank_of_node(l.levels, node);
    const pram::Word val = co_await ctx.read(l.gout_addr(w, rank));
    co_await ctx.write(l.fat_addr(cell), val);
  }
}

pram::SubTask<Kids> lc_children_prog(pram::Ctx& ctx, const LcSortLayout& l, pram::Word e,
                                     std::uint32_t w) {
  Kids k;
  if (l.in_winner_slice(e, w)) {
    const pram::Word pl = co_await ctx.read(l.gplace_addr(e));
    WFSORT_DCHECK(pl > 0);  // the winner slice is fully placed by stage A
    const std::uint64_t f =
        FatTree::node_of_rank(l.levels, static_cast<std::uint64_t>(pl - 1));
    if (fat_is_interior(l, f)) {
      k.small = co_await ctx.read(l.gout_addr(w, FatTree::rank_of_node(l.levels, 2 * f + 1)));
      k.big = co_await ctx.read(l.gout_addr(w, FatTree::rank_of_node(l.levels, 2 * f + 2)));
      co_return k;
    }
    // Fat leaves hand off to the main pivot tree below.
  }
  k.small = co_await ctx.read(l.main.child_addr(e, kSmall));
  k.big = co_await ctx.read(l.main.child_addr(e, kBig));
  co_return k;
}

pram::SubTask<void> lc_insert_prog(pram::Ctx& ctx, const LcSortLayout& l, pram::Word i,
                                   std::uint32_t w) {
  const pram::Word ikey = co_await ctx.read(l.main.key_addr(i));
  std::uint64_t f = 0;
  pram::Word handoff = pram::kEmpty;
  while (true) {
    const std::uint64_t copy = ctx.rng().below(l.copies);
    pram::Word v = co_await ctx.read(l.fat_addr(f * l.copies + copy));
    if (v == pram::kEmpty) {
      // Write-most missed this copy: fall back to the authoritative slice.
      v = co_await ctx.read(l.gout_addr(w, FatTree::rank_of_node(l.levels, f)));
    }
    if (!fat_is_interior(l, f)) {
      handoff = v;
      break;
    }
    const pram::Word vkey = co_await ctx.read(l.main.key_addr(v));
    f = SortLayout::key_less(ikey, i, vkey, v) ? 2 * f + 1 : 2 * f + 2;
  }
  co_await build_tree(ctx, l.main, i, handoff);
}

pram::SubTask<void> lc_sum_prog(pram::Ctx& ctx, const LcSortLayout& l, std::uint32_t w,
                                pram::Word root) {
  const std::uint64_t n = l.main.n;
  while (true) {
    const pram::Word e = static_cast<pram::Word>(ctx.rng().below(n));
    const pram::Word v = co_await ctx.read(l.sum_mark_addr(e));

    if (v == kMarkEmpty) {
      const Kids k = co_await lc_children_prog(ctx, l, e, w);
      bool l_done = true, r_done = true;
      if (k.small != pram::kEmpty) {
        l_done = (co_await ctx.read(l.sum_mark_addr(k.small))) != kMarkEmpty;
      }
      if (k.big != pram::kEmpty) {
        r_done = (co_await ctx.read(l.sum_mark_addr(k.big))) != kMarkEmpty;
      }
      if (l_done && r_done) {
        pram::Word total = 1;
        if (k.small != pram::kEmpty) total += co_await ctx.read(l.main.size_addr(k.small));
        if (k.big != pram::kEmpty) total += co_await ctx.read(l.main.size_addr(k.big));
        co_await ctx.write(l.main.size_addr(e), total);
        co_await ctx.write(l.sum_mark_addr(e), e == root ? kMarkAllDone : kMarkDone);
      }
      continue;
    }
    if (v == kMarkAllDone) {
      const Kids k = co_await lc_children_prog(ctx, l, e, w);
      if (k.small != pram::kEmpty || k.big != pram::kEmpty) {
        if (k.small != pram::kEmpty) co_await ctx.write(l.sum_mark_addr(k.small), kMarkAllDone);
        if (k.big != pram::kEmpty) co_await ctx.write(l.sum_mark_addr(k.big), kMarkAllDone);
        co_return;
      }
      if (e == root) co_return;  // degenerate single-element tree
    }
  }
}

pram::SubTask<void> lc_place_prog(pram::Ctx& ctx, const LcSortLayout& l, std::uint32_t w,
                                  pram::Word root) {
  const std::uint64_t n = l.main.n;
  while (true) {
    const pram::Word e = static_cast<pram::Word>(ctx.rng().below(n));
    const pram::Word v = co_await ctx.read(l.place_mark_addr(e));
    const Kids k = co_await lc_children_prog(ctx, l, e, w);

    if (v == kMarkAllDone) {
      if (k.small != pram::kEmpty || k.big != pram::kEmpty) {
        if (k.small != pram::kEmpty) {
          co_await ctx.write(l.place_mark_addr(k.small), kMarkAllDone);
        }
        if (k.big != pram::kEmpty) co_await ctx.write(l.place_mark_addr(k.big), kMarkAllDone);
        co_return;
      }
      if (e == root) co_return;
      continue;
    }

    // Every placement stores the key at its output slot BEFORE the place:
    // `place > 0` is what tells later probes the element is done, so a
    // processor that crashed between the two writes must leave the place
    // unset for someone else to redo both (the native TreeState::emit order).
    pram::Word pl = co_await ctx.read(l.main.place_addr(e));
    if (e == root && pl == 0) {
      pram::Word s = 0;
      if (k.small != pram::kEmpty) s = co_await ctx.read(l.main.size_addr(k.small));
      pl = s + 1;
      const pram::Word key = co_await ctx.read(l.main.key_addr(e));
      co_await ctx.write(l.main.out_addr(pl - 1), key);
      co_await ctx.write(l.main.place_addr(e), pl);
    }

    if (pl > 0) {
      // Downward rule: place unplaced children.
      if (k.small != pram::kEmpty) {
        const pram::Word cpl = co_await ctx.read(l.main.place_addr(k.small));
        if (cpl == 0) {
          const Kids gk = co_await lc_children_prog(ctx, l, k.small, w);
          pram::Word sz = 0;
          if (gk.big != pram::kEmpty) sz = co_await ctx.read(l.main.size_addr(gk.big));
          const pram::Word npl = pl - sz - 1;
          const pram::Word key = co_await ctx.read(l.main.key_addr(k.small));
          co_await ctx.write(l.main.out_addr(npl - 1), key);
          co_await ctx.write(l.main.place_addr(k.small), npl);
        }
      }
      if (k.big != pram::kEmpty) {
        const pram::Word cpl = co_await ctx.read(l.main.place_addr(k.big));
        if (cpl == 0) {
          const Kids gk = co_await lc_children_prog(ctx, l, k.big, w);
          pram::Word sz = 0;
          if (gk.small != pram::kEmpty) sz = co_await ctx.read(l.main.size_addr(gk.small));
          const pram::Word npl = pl + sz + 1;
          const pram::Word key = co_await ctx.read(l.main.key_addr(k.big));
          co_await ctx.write(l.main.out_addr(npl - 1), key);
          co_await ctx.write(l.main.place_addr(k.big), npl);
        }
      }
      // Upward rule: announce DONE once placed and children announced.
      if (v == kMarkEmpty) {
        bool l_done = true, r_done = true;
        if (k.small != pram::kEmpty) {
          l_done = (co_await ctx.read(l.place_mark_addr(k.small))) != kMarkEmpty;
        }
        if (k.big != pram::kEmpty) {
          r_done = (co_await ctx.read(l.place_mark_addr(k.big))) != kMarkEmpty;
        }
        if (l_done && r_done) {
          co_await ctx.write(l.place_mark_addr(e), e == root ? kMarkAllDone : kMarkDone);
        }
      }
    }
  }
}

pram::Task lc_sort_worker(pram::Ctx& ctx, const LcSortLayout& l) {
  const std::uint32_t g = l.group_of_proc(ctx.pid());
  const pram::Word groot = static_cast<pram::Word>(g) * static_cast<pram::Word>(l.slice);
  const SortLayout gview = group_view(l);

  // Stage A: group pre-sort (Section 2 on the slice).
  // Job functors are hoisted into named locals: GCC 12 miscompiles prvalue
  // non-trivial arguments to a coroutine called from another coroutine
  // (double-destroy of the parameter copy).
  const std::uint32_t per_group = std::max<std::uint32_t>(1, l.procs / l.groups);
  PramJobFn group_job = [gview, groot](pram::Ctx& c, std::uint64_t j) {
    return build_tree(c, gview, groot + static_cast<pram::Word>(j), groot);
  };
  co_await wat_skeleton(ctx, l.gwats[g], per_group, group_job);
  co_await tree_sum_prog(ctx, gview, groot);
  co_await group_find_place_prog(ctx, l, g);

  // Stage B: winner selection.
  const pram::Word w64 = co_await select_winner_prog(ctx, l, static_cast<pram::Word>(g));
  const std::uint32_t w = static_cast<std::uint32_t>(w64);

  // Stage C/D: fatten the winner's slice.
  co_await write_most_fat_prog(ctx, l, w);
  const pram::Word root =
      co_await ctx.read(l.gout_addr(w, FatTree::rank_of_node(l.levels, 0)));

  // Stage E: insert all remaining elements (LC-WAT allocation).
  PramJobFn insert_job = [l, w](pram::Ctx& c, std::uint64_t j) {
    const pram::Word e = static_cast<pram::Word>(j);
    if (l.in_winner_slice(e, w)) return noop_job(c);
    return lc_insert_prog(c, l, e, w);
  };
  co_await lcwat_skeleton(ctx, l.insert_wat, insert_job);

  // Stages F, G.
  co_await lc_sum_prog(ctx, l, w, root);
  co_await lc_place_prog(ctx, l, w, root);
}

}  // namespace wfsort::sim
