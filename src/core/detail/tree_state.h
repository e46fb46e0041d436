// Shared state of one sort: the pivot tree threaded through the input.
//
// Mirrors Figure 3 of the paper, but in *packed record* form rather than the
// paper's (and our seed's) parallel arrays: each element owns one
// 32-byte PackedNode (half a cache line, for keys up to 8 bytes) holding
// both 32-bit child links, the subtree size, the final place (1-based rank;
// 0 = not yet known), the phase-3 completion flag and a private key copy.
// A descent step, a summation visit or a placement visit therefore costs
// ONE cache miss where the structure-of-arrays layout cost up to four, and
// place emission reads the key from the line the visit already loaded.
// This is a deliberate, documented deviation from the paper's in-array
// threading (docs/native_engine.md); the algorithm and all of its
// invariants are unchanged.  Only this header names the link type: the
// phases go through child_of, try_install and set_child.
//
// Keys are copied into the records at construction and never modified while
// the sort runs, which also makes the caller's buffer write-only for the
// rest of the sort — the engine exploits that to overlap output copy-back
// with straggling workers.  The sorted result is assembled into `out`
// (indexed by rank) and copied back after at least one worker finished.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <span>
#include <type_traits>

#include "common/arena.h"
#include "common/check.h"
#include "core/detail/key_order.h"

namespace wfsort::detail {

inline constexpr std::int64_t kNoIdx = -1;

using Link = std::int32_t;  // a record's links, size and place

// Largest input the pivot tree can index; the Engine checks it before it
// allocates anything.
inline constexpr std::uint64_t kMaxTreeN = std::numeric_limits<Link>::max();
constexpr bool tree_indexable(std::uint64_t n) { return n <= kMaxTreeN; }

enum Side : int { kSmall = 0, kBig = 1 };

// One pivot-tree node: 32-byte aligned while its fields fit there (keys of
// up to 15 bytes), so two records share a cache line and none straddles
// one; a wider key pads the record to 64-byte lines.
template <typename Key>
struct alignas(sizeof(Key) < 16 ? 32 : 64) PackedNode {
  std::atomic<Link> child[2];            // kNoIdx = EMPTY; write-once
  std::atomic<Link> size;                // 0 = unknown
  std::atomic<Link> place;               // 0 = unknown, else 1-based rank
  Key key;                               // immutable copy, set before workers start
  std::atomic<std::uint8_t> place_done;  // phase-3 completion flag
};

template <typename Key, typename Compare>
struct TreeState {
  static_assert(std::is_trivially_copyable_v<Key>,
                "the wait-free sorter assembles its output with atomic element "
                "stores; sort records must be trivially copyable (sort indices "
                "or pointers for heavyweight payloads)");

  std::span<const Key> keys;  // the caller's buffer; read only at construction
  Compare cmp;
  // Pivot-tree root element: 0 for the deterministic variant; the fat-tree
  // root chosen at runtime by the low-contention variant (every worker
  // stores the same value, so the atomic is only for data-race freedom).
  std::atomic<std::int64_t> root{0};

  PackedNode<Key>* nodes;            // one record per element (arena storage)
  ArenaArray<std::atomic<Key>> out;  // sorted result (index place-1)

  // Records and output borrow RunArena storage.  Each record is constructed
  // once, with its final values, straight into the arena's uninitialised
  // bytes.  The records are advised onto huge pages first: descents visit
  // them at random, and the bit-reversed insertion order spreads even the
  // tree's top levels over the whole array (docs/native_engine.md,
  // "Insertion order").
  TreeState(std::span<const Key> k, Compare c, RunArena& arena)
      : keys(k),
        cmp(c),
        nodes(arena.uninit<PackedNode<Key>>(k.size())),
        out(k.size(), arena) {
    advise_huge_pages(nodes, k.size() * sizeof(PackedNode<Key>));
    for (std::size_t i = 0; i < k.size(); ++i) {
      ::new (static_cast<void*>(nodes + i)) PackedNode<Key>{
          {kNoIdx, kNoIdx}, 0, 0, k[i], std::uint8_t{0}};
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  std::int64_t n() const { return static_cast<std::int64_t>(keys.size()); }

  std::int64_t root_idx() const { return root.load(std::memory_order_acquire); }
  void set_root(std::int64_t r) { root.store(r, std::memory_order_release); }

  const Key& key_of(std::int64_t node) const {
    return nodes[static_cast<std::size_t>(node)].key;
  }

  // Strict order with index tie-breaking (key_index_less), so all keys
  // behave as if distinct.
  bool less(std::int64_t a, std::int64_t b) const {
    return key_index_less(cmp, key_of(a), a, key_of(b), b);
  }

  // Which child of `p` the descent of element `e` continues into.  The
  // comparison result is the child[] index, so the compiler lowers the
  // choice to setcc + indexed load: a descent step has no unpredictable
  // branch.  e != p (an element never descends through itself).
  Side descend_side(std::int64_t e, std::int64_t p) const {
    return static_cast<Side>(!less(e, p));
  }

  // Hint the hardware that `node`'s record is about to be visited.
  void prefetch(std::int64_t node) const {
    __builtin_prefetch(&nodes[static_cast<std::size_t>(node)], 0, 1);
  }

  std::int64_t child_of(std::int64_t node, Side s) const {
    return nodes[static_cast<std::size_t>(node)].child[s].load(std::memory_order_acquire);
  }
  // Figure 4's install: CAS `elem` into `node`'s EMPTY `s` slot.  On a lost
  // race `seen` receives the winner, so the caller descends into it.
  bool try_install(std::int64_t node, Side s, std::int64_t elem, std::int64_t& seen) {
    Link expected = kNoIdx;
    const bool won = nodes[static_cast<std::size_t>(node)].child[s].compare_exchange_strong(
        expected, static_cast<Link>(elem), std::memory_order_acq_rel, std::memory_order_acquire);
    seen = expected;  // still kNoIdx when this CAS won
    return won;
  }
  // Idempotent link store (LC stage D stitches the fat-tree top with it:
  // every worker writes the same child).
  void set_child(std::int64_t node, Side s, std::int64_t child) {
    nodes[static_cast<std::size_t>(node)].child[s].store(static_cast<Link>(child),
                                                         std::memory_order_release);
  }
  std::int64_t size_of(std::int64_t node) const {
    return node == kNoIdx
               ? 0
               : nodes[static_cast<std::size_t>(node)].size.load(std::memory_order_acquire);
  }
  void set_size(std::int64_t node, std::int64_t s) {
    nodes[static_cast<std::size_t>(node)].size.store(static_cast<Link>(s),
                                                     std::memory_order_release);
  }
  std::int64_t place_of(std::int64_t node) const {
    return nodes[static_cast<std::size_t>(node)].place.load(std::memory_order_acquire);
  }
  bool place_done_of(std::int64_t node) const {
    return nodes[static_cast<std::size_t>(node)].place_done.load(
               std::memory_order_acquire) != 0;
  }
  void mark_place_done(std::int64_t node) {
    nodes[static_cast<std::size_t>(node)].place_done.store(1, std::memory_order_release);
  }
  // Publish completion of a sequential block (see find_place_emit's
  // seq_cutoff).  The CAS only decides which of the concurrent duplicates
  // "won"; the work itself happened before the call and every competitor
  // wrote identical values, so losing is harmless.
  bool try_claim_place_done(std::int64_t node) {
    std::uint8_t expected = 0;
    return nodes[static_cast<std::size_t>(node)].place_done.compare_exchange_strong(
        expected, 1, std::memory_order_acq_rel, std::memory_order_acquire);
  }

  // Store the element's key at the output slot of its rank, then the rank.
  // The key read is free: the record line was loaded to compute the place.
  // Order matters: `out` is written BEFORE `place`, so any worker that
  // acquire-reads a non-zero place (or a completion flag released after it)
  // is also guaranteed to see the output slot — that is what lets finished
  // workers copy the output back while stragglers are still traversing.
  void emit(std::int64_t node, std::int64_t pl) {
    PackedNode<Key>& nd = nodes[static_cast<std::size_t>(node)];
    out[static_cast<std::size_t>(pl - 1)].store(nd.key, std::memory_order_release);
    nd.place.store(static_cast<Link>(pl), std::memory_order_release);
  }

  // Post-run validation/diagnostics (single-threaded use).
  bool all_placed() const {
    for (std::int64_t i = 0; i < n(); ++i) {
      if (place_of(i) == 0) return false;
    }
    return true;
  }
};

}  // namespace wfsort::detail
