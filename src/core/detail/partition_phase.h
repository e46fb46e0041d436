// Alternative phase 1 — blocked in-place parallel partition
// (Options::Phase1::kPartition).
//
// The paper's phase 1 inserts every element into a pivot tree: N descents of
// ~log N dependent cache misses, each ending in a CAS.  That is where the
// sequential gap against std::sort lives.  This phase replaces the tree with
// the composition of two ideas from PAPERS.md — Kuszmaul & Westover's
// blocked in-place parallel partition (linear work, no per-element CAS) and
// Cole–Ramachandran's SPMS-style sampled splitters — while keeping the
// paper's OWN machinery for everything concurrency-related: work is claimed
// from Wats (batched, crash-recovering), every job is idempotent, and nobody
// ever waits for anybody.
//
// Three linear sweeps, each a Wat whose jobs every worker helps drive to
// completion:
//
//   classify   jobs = chunks of kChunk elements.  The worker histograms its
//              chunk by descending a branch-free implicit splitter tree
//              (super scalar sample sort), STORES the per-bucket counts
//              (identical from every worker — idempotent) into the shared
//              hist table, and caches each element's bucket id.
//   scatter    jobs = the same chunks.  With the full histogram visible, the
//              destination of every element is a deterministic function of
//              (chunk, bucket, rank-in-chunk): worker reads the cached
//              bucket ids and stores each element's key (and, on a pair
//              run, its index) into its slot of the scattered arrays.
//              Concurrent duplicates write identical values to identical
//              slots.
//   buckets    jobs = buckets.  The worker copies one bucket's scattered
//              elements into PRIVATE scratch, sorts them with leaf_sort,
//              and writes consecutive rank slots of the run's output from
//              the bucket's base: the key of each rank on a copy-back run,
//              its input index on a sort_permutation run.  (The copy is
//              load-bearing: two workers may sort the same bucket
//              concurrently, and an in-place sort of shared memory would
//              interleave swaps — each sorts its own copy; output stores
//              are idempotent.)  A copy-back run whose equivalent keys are
//              bit-identical (kBareKeyOrder) copies and sorts bare keys: the
//              ranks' keys are then fixed by the key order alone, so the
//              index tie-break cannot change an output byte and is never
//              scattered.  Every other run copies and sorts (key, index)
//              pairs.
//
// Presorted input carries its order into both ends, and two paths use it
// instead of rediscovering it:
//
//   monotone classify   A chunk whose items ascend in (key, index) order
//              (keys non-decreasing) or strictly descend (keys strictly
//              decreasing: equal keys ascend by index) has monotone bucket
//              ids.  Its first element descends the tree; every later one
//              walks the in-order splitters from its predecessor's bucket,
//              so the chunk costs about one compare per element.  Each walk
//              step is a comparison the descent would make, so every
//              bucket_id store and the hist row carry the descent's values
//              — a duplicated job still writes identical values, polls once
//              per element, and stores its row only on completion.
//   run-merged bucket   A gathered bucket that is one ascending or strictly
//              descending run followed by at most one more (sorted and
//              reversed input give one run, organ-pipe input two) skips
//              leaf_sort: a two-way merge of the runs, a descending one
//              walked from its end, emits the ranks straight from the
//              private copy.  It reads only that copy and writes the
//              sorted order's idempotent rank stores, as leaf_sort's path
//              does.
//
// Sweep ordering without barriers: a worker starts sweep k+1 only after ITS
// sweep-k Wat loop returned kAllJobsDone, which acquire-read the done flags
// of every job on the way — the Wat's release-mark/acquire-read discipline
// makes all sweep-k writes visible (transitive happens-before), and a slow
// worker is never waited for because fast workers redo its unmarked jobs.
// The same gate, on the bucket sweep, orders every output store before a
// finished worker's copy-back reads it.
//
// That gate is also why every shared array the sweeps write (hist,
// bucket_id, skey, sidx when allocated, and the output) is taken from the arena
// UNINITIALISED and accessed through std::atomic_ref: each slot is written
// by the sweep that owns it before any sweep reads it, so a pooled run's
// leftover bytes are never observed, and the arrays' first-touch page
// faults happen inside the parallel sweeps instead of on the submitting
// thread.  Only the key copy is filled before the workers start.
//
// Splitters are deterministic and computed locally by every worker: a fixed
// stride sample of kOversample*B elements, leaf-sorted by (key, index), with
// every kOversample-th taken as a bucket boundary, laid out once as an
// implicit search tree (Sanders & Winkel's super scalar sample sort: the
// descent's comparison result feeds the next node index, never a branch, and
// several elements descend together).  Bucketing by the number
// of splitters strictly below an item (the same total order as
// TreeState::less) makes bucket ranks a refinement of the global (key,
// index) order, so the emitted output is bit-identical to the tree path's —
// including on all-equal keys, where the index tie-break keeps both
// splitters and buckets balanced.
//
// Wait-freedom: every worker executes O(n) own steps across the sweeps plus
// O(jobs log jobs) Wat steps — far inside the certifier's 14·N·log2 N
// own-step bound, which test_waitfree_cert checks on this variant too.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/arena.h"
#include "common/bits.h"
#include "common/check.h"
#include "core/detail/key_order.h"
#include "core/detail/leaf_sort.h"
#include "workalloc/wat.h"

namespace wfsort::detail {

// Relaxed atomic access to a slot of the plain shared arrays below.
template <typename T>
inline void store_relaxed(T& slot, T v) {
  std::atomic_ref<T>(slot).store(v, std::memory_order_relaxed);
}
template <typename T>
inline T load_relaxed(const T& slot) {
  return std::atomic_ref<T>(const_cast<T&>(slot)).load(std::memory_order_relaxed);
}

// Whether keys that compare equivalent under Compare are bit-identical, so
// that sorting a bucket's bare keys emits the same bytes as sorting its
// (key, index) pairs: integral keys under std::less or std::greater.
template <typename Key, typename Compare>
inline constexpr bool kBareKeyOrder =
    std::is_integral_v<Key> &&
    (std::is_same_v<Compare, std::less<Key>> || std::is_same_v<Compare, std::less<>> ||
     std::is_same_v<Compare, std::greater<Key>> ||
     std::is_same_v<Compare, std::greater<>>);

// Shared, write-idempotent state of one partition-phase run, including the
// run's output.
template <typename Key>
struct PartitionShared {
  // Arena arrays start 64-byte aligned and hold whole Keys, so every slot
  // meets std::atomic_ref's alignment when the stride does.
  static_assert(sizeof(Key) % std::atomic_ref<Key>::required_alignment == 0);

  static constexpr std::int64_t kChunk = 2048;      // elements per classify/scatter job
  static constexpr std::int64_t kMaxBuckets = 1024;
  static constexpr std::int64_t kOversample = 8;    // sample items per bucket

  std::int64_t n = 0;
  std::int64_t chunks = 0;
  std::int64_t buckets = 0;
  std::int64_t sample_size = 0;  // kOversample * buckets, capped at n

  // Flat, immutable key copy, filled by the constructor on the submitting
  // thread.  It stays serial on purpose: finished workers copy the output
  // back over the caller's buffer while stragglers may still be
  // classifying, so no sweep may ever read the caller's buffer — a
  // straggler would read overwritten input and, through skey, could store
  // a wrong key into an output chunk nobody has copied yet.
  Key* keys;
  // chunks x buckets per-chunk bucket counts (row-major).  Written with
  // relaxed stores of identical values; completeness and visibility are
  // gated by classify_wat's done flags, never by the values themselves.
  std::uint32_t* hist;
  // Per-element bucket id, filled by classify and read back by scatter so
  // the splitter-tree descent runs once per element, not twice.  Same
  // idempotent-store / ALLDONE-gated discipline as `hist`; uint16 because
  // kMaxBuckets is 1024.
  std::uint16_t* bucket_id;
  // Scattered keys, one deterministic slot per element, and beside them
  // the input index of each slot on a pair run; a bare-key run leaves sidx
  // null.  The index fits uint32 by the ctor CHECK below.
  Key* skey;
  std::uint32_t* sidx;
  // The run's rank-indexed output, written by the bucket sweep; exactly one
  // is allocated.  `out[r]` is the key of rank r (copy-back runs);
  // `out_idx[r]` the input index of rank r (sort_permutation runs).
  Key* out = nullptr;
  std::uint32_t* out_idx = nullptr;

  Wat classify_wat;
  Wat scatter_wat;
  Wat bucket_wat;

  // All shared arrays and Wat done-bits borrow RunArena storage.
  // `keys_out` picks the output form: keys (copy-back) or indices.
  // `bare_keys` (copy-back only) drops sidx: buckets sort bare keys.
  PartitionShared(std::span<const Key> input, bool keys_out, bool bare_keys,
                  RunArena& arena)
      : n(static_cast<std::int64_t>(input.size())),
        chunks((n + kChunk - 1) / kChunk),
        buckets(std::min(std::max<std::int64_t>(n / kChunk, 1), kMaxBuckets)),
        sample_size(std::min(kOversample * buckets, n)),
        keys(arena.uninit<Key>(input.size())),
        hist(arena.uninit<std::uint32_t>(static_cast<std::size_t>(chunks * buckets))),
        bucket_id(arena.uninit<std::uint16_t>(input.size())),
        skey(arena.uninit<Key>(input.size())),
        sidx(bare_keys ? nullptr : arena.uninit<std::uint32_t>(input.size())),
        out(keys_out ? arena.uninit<Key>(input.size()) : nullptr),
        out_idx(keys_out ? nullptr : arena.uninit<std::uint32_t>(input.size())),
        classify_wat(static_cast<std::uint64_t>(chunks), arena),
        scatter_wat(static_cast<std::uint64_t>(chunks), arena),
        bucket_wat(static_cast<std::uint64_t>(buckets), arena) {
    WFSORT_CHECK(n > 0);
    WFSORT_CHECK(keys_out || !bare_keys);
    // Scatter-offset bookkeeping and sidx are uint32; 2^32 elements is
    // 32 GiB of keys.
    WFSORT_CHECK(n <= static_cast<std::int64_t>(UINT32_MAX));
    std::copy(input.begin(), input.end(), keys);
  }

  const Key& key(std::int64_t i) const {
    return keys[static_cast<std::size_t>(i)];
  }
};

// Per-worker private state: deterministic splitters, classify scratch, the
// scatter-offset table, and the bucket-sort scratch.  Nothing here is ever
// read by another worker.
template <typename Key>
struct PartitionLocal {
  // The buckets-1 splitters as an implicit search tree: node j's children
  // are 2j and 2j+1 (tree[0] unused), and an in-order walk of nodes
  // 1 .. 2^levels-1 yields the splitters in ascending order, padded with
  // copies of the largest.  At most 1024 items (16 KiB for 8-byte keys).
  std::vector<LeafItem<Key>> tree;
  int levels = 0;                          // ceil(log2(buckets))
  std::vector<LeafItem<Key>> splitters;    // the same buckets-1, in order
  std::vector<std::uint32_t> counts;       // classify scratch (buckets)
  std::vector<std::uint32_t> offsets;      // chunks x buckets absolute start slots
  std::vector<std::int64_t> base;          // buckets+1 bucket base slots
  std::vector<std::uint32_t> cursor;       // scatter scratch (buckets)
  std::vector<LeafItem<Key>> items;        // sample and pair-bucket scratch
  std::vector<Key> bare;                   // bare-key bucket scratch
  std::vector<std::uint32_t> run;          // partition_offsets cursor scratch
  bool offsets_ready = false;
  LeafSortTally tally;                     // folded into telemetry by the engine

  // Re-arm worker-persistent (thread_local) scratch for a new run: the
  // vectors keep their capacity — that is the point — but everything the
  // previous run computed must be recomputed against the new input.
  void begin_run() {
    offsets_ready = false;
    tally = {};
  }
};

// Whether splitter `s` lies strictly below the item (key, idx) in the
// (key, index) order, as a value (key_index_less has no branch), so the
// splitter-tree descent built on it has no data-dependent jumps.
template <typename Key, typename Compare>
inline std::size_t splitter_below(const Compare& cmp, const LeafItem<Key>& s,
                                  const Key& key, std::int64_t idx) {
  return static_cast<std::size_t>(key_index_less(cmp, s.key, s.idx, key, idx));
}

// Compute this worker's splitters (identical for every worker): gather the
// stride sample, leaf-sort it, lay every kOversample-th item out as a node
// of the splitter tree.  Polls `keep_going` once per sampled element.
template <typename Key, typename Compare, typename Check>
bool partition_prepare(const Compare& cmp, const PartitionShared<Key>& ps,
                       PartitionLocal<Key>& local, Check&& keep_going) {
  local.counts.assign(static_cast<std::size_t>(ps.buckets), 0);
  local.cursor.assign(static_cast<std::size_t>(ps.buckets), 0);
  local.tree.clear();
  local.splitters.clear();
  local.levels = 0;
  if (ps.buckets <= 1) return true;
  local.items.resize(static_cast<std::size_t>(ps.sample_size));
  LeafItem<Key>* sample = local.items.data();
  for (std::int64_t k = 0; k < ps.sample_size; ++k) {
    if (!keep_going()) return false;
    // Fixed stride positions (k*n)/S — deterministic, spread over the whole
    // input, distinct because S <= n.
    const std::int64_t i = (k * ps.n) / ps.sample_size;
    sample[k] = {ps.key(i), i};
  }
  leaf_sort(sample, sample + ps.sample_size, LeafItemLess<Key, Compare>{cmp},
            &local.tally);
  // Splitter b is the item ending the b-th sample stripe, clamped for the
  // capped-sample case (sample_size < kOversample * buckets).
  for (std::int64_t b = 1; b < ps.buckets; ++b) {
    const std::int64_t r =
        std::min((b * ps.sample_size) / ps.buckets, ps.sample_size - 1);
    local.splitters.push_back(sample[r]);
  }
  // Node j at depth d sits at in-order position (j - 2^d) * 2^(h+1) + 2^h - 1,
  // h = levels - 1 - d its height.  Position p holds splitter p+1, clamped to
  // the last one, buckets-1.
  const int levels = static_cast<int>(log2_ceil(static_cast<std::uint64_t>(ps.buckets)));
  const std::size_t nodes = std::size_t{1} << levels;
  local.levels = levels;
  local.tree.resize(nodes);
  for (std::size_t j = 1; j < nodes; ++j) {
    const int h = levels - static_cast<int>(std::bit_width(j));
    const std::size_t p =
        ((j - std::bit_floor(j)) << (h + 1)) + (std::size_t{1} << h) - 1;
    local.tree[j] = local.splitters[std::min(p, local.splitters.size() - 1)];
  }
  return true;
}

// Whether len keys, taken as items in the run's (key, index) order, ascend
// (+1: keys non-decreasing), strictly descend (-1: keys strictly
// decreasing, since equal keys ascend by index), or neither (0).  Stops at
// the first pair that rules both out, after about two compares on random
// keys.
template <typename Key, typename Compare>
int monotone_direction(const Compare& cmp, const Key* k, std::int64_t len) {
  if (len < 2 || !cmp(k[1], k[0])) {
    for (std::int64_t i = 2; i < len; ++i) {
      if (cmp(k[i], k[i - 1])) return 0;
    }
    return 1;
  }
  for (std::int64_t i = 2; i < len; ++i) {
    if (!cmp(k[i], k[i - 1])) return 0;
  }
  return -1;
}

// Classify sweep, one chunk: histogram the chunk against the splitters and
// store the counts.  Idempotent (identical values from every worker).
//
// Each element descends the splitter tree, j = 2j + [tree[j] < item], for
// `levels` steps; the leaf index j - 2^levels counts the padded splitters
// below the item, and clamping it to buckets-1 discounts the padding.
// kGroup elements descend in lockstep so their independent tree loads
// overlap; the chunk's tail goes one element at a time.
//
// A monotone chunk (monotone_direction) has monotone bucket ids instead: its
// first element descends, and every later one walks the in-order splitters
// from its predecessor's bucket — up past the splitters below it on an
// ascending chunk, down past those not below it on a descending one.  Each
// walk step is the comparison the descent makes, so the ids and counts are
// the descent's; the chunk costs one compare per element plus at most
// buckets-1 steps.
//
// Either way keep_going is polled once per element before its id is stored
// (a group's polls all come before its descent), and the hist row is stored
// only by a job that completes.
template <typename Key, typename Compare, typename Check>
bool partition_classify(const Compare& cmp, PartitionShared<Key>& ps,
                        PartitionLocal<Key>& local, std::int64_t chunk,
                        Check&& keep_going) {
  constexpr std::int64_t kGroup = 8;
  const std::int64_t lo = chunk * PartitionShared<Key>::kChunk;
  const std::int64_t hi = std::min(ps.n, lo + PartitionShared<Key>::kChunk);
  std::uint32_t* counts = local.counts.data();
  for (std::int64_t b = 0; b < ps.buckets; ++b) counts[b] = 0;
  const LeafItem<Key>* tree = local.tree.data();
  const int levels = local.levels;
  const std::size_t leaves = std::size_t{1} << levels;
  const std::size_t last = static_cast<std::size_t>(ps.buckets - 1);
  const auto record = [&](std::int64_t i, std::size_t b) {
    ++counts[b];
    store_relaxed(ps.bucket_id[static_cast<std::size_t>(i)],
                  static_cast<std::uint16_t>(b));
  };
  const auto descend = [&](std::int64_t i) {
    std::size_t j = 1;
    for (int l = 0; l < levels; ++l) {
      j = 2 * j + splitter_below(cmp, tree[j], ps.key(i), i);
    }
    return std::min(j - leaves, last);
  };
  const int direction = monotone_direction(cmp, ps.keys + lo, hi - lo);
  if (direction != 0) {
    const LeafItem<Key>* sp = local.splitters.data();
    std::size_t b = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      if (!keep_going()) return false;
      if (i == lo) {
        b = descend(i);
      } else if (direction > 0) {
        while (b < last && splitter_below(cmp, sp[b], ps.key(i), i)) ++b;
      } else {
        while (b > 0 && !splitter_below(cmp, sp[b - 1], ps.key(i), i)) --b;
      }
      record(i, b);
    }
  } else {
    std::int64_t i = lo;
    for (; i + kGroup <= hi; i += kGroup) {
      for (std::int64_t u = 0; u < kGroup; ++u) {
        if (!keep_going()) return false;
      }
      std::size_t j[kGroup];
      for (std::size_t& x : j) x = 1;
      for (int l = 0; l < levels; ++l) {
        for (std::int64_t u = 0; u < kGroup; ++u) {
          j[u] = 2 * j[u] + splitter_below(cmp, tree[j[u]], ps.key(i + u), i + u);
        }
      }
      for (std::int64_t u = 0; u < kGroup; ++u) {
        record(i + u, std::min(j[u] - leaves, last));
      }
    }
    for (; i < hi; ++i) {
      if (!keep_going()) return false;
      record(i, descend(i));
    }
  }
  std::uint32_t* row = ps.hist + static_cast<std::size_t>(chunk * ps.buckets);
  for (std::int64_t b = 0; b < ps.buckets; ++b) store_relaxed(row[b], counts[b]);
  return true;
}

// Build the worker-local scatter-offset table from the complete histogram:
// offsets[c][b] = bucket b's base + elements of b in chunks before c.  Call
// only after this worker's classify Wat loop returned kAllJobsDone (that is
// what makes `hist` complete and visible).  Polls once per table row.
template <typename Key, typename Check>
bool partition_offsets(const PartitionShared<Key>& ps, PartitionLocal<Key>& local,
                       Check&& keep_going) {
  if (local.offsets_ready) return true;
  const std::size_t nb = static_cast<std::size_t>(ps.buckets);
  local.base.assign(nb + 1, 0);
  std::vector<std::int64_t>& base = local.base;
  // Bucket totals, then exclusive prefix -> bucket bases.
  for (std::int64_t c = 0; c < ps.chunks; ++c) {
    if (!keep_going()) return false;
    const std::uint32_t* row = ps.hist + static_cast<std::size_t>(c * ps.buckets);
    for (std::size_t b = 0; b < nb; ++b) base[b + 1] += load_relaxed(row[b]);
  }
  for (std::size_t b = 0; b < nb; ++b) base[b + 1] += base[b];
  WFSORT_DCHECK(base[nb] == ps.n);
  // Running per-bucket cursors -> absolute start slot of every (chunk,
  // bucket) run.
  local.offsets.resize(static_cast<std::size_t>(ps.chunks * ps.buckets));
  std::vector<std::uint32_t>& run = local.run;
  run.assign(nb, 0);
  for (std::size_t b = 0; b < nb; ++b) {
    run[b] = static_cast<std::uint32_t>(base[b]);
  }
  for (std::int64_t c = 0; c < ps.chunks; ++c) {
    if (!keep_going()) return false;
    const std::uint32_t* row = ps.hist + static_cast<std::size_t>(c * ps.buckets);
    std::uint32_t* out = local.offsets.data() + static_cast<std::size_t>(c * ps.buckets);
    for (std::size_t b = 0; b < nb; ++b) {
      out[b] = run[b];
      run[b] += load_relaxed(row[b]);
    }
  }
  local.offsets_ready = true;
  return true;
}

// Scatter sweep, one chunk: read each element's cached bucket id and store
// its key, and on a pair run its index, into the deterministic slot.
// Idempotent — slot and values are functions of the input alone.  The bucket
// ids were filled by the classify sweep, whose ALLDONE gate precedes this
// call.
template <typename Key, typename Check>
bool partition_scatter(PartitionShared<Key>& ps, PartitionLocal<Key>& local,
                       std::int64_t chunk, Check&& keep_going) {
  const std::int64_t lo = chunk * PartitionShared<Key>::kChunk;
  const std::int64_t hi = std::min(ps.n, lo + PartitionShared<Key>::kChunk);
  const std::uint32_t* off =
      local.offsets.data() + static_cast<std::size_t>(chunk * ps.buckets);
  std::uint32_t* cursor = local.cursor.data();
  for (std::int64_t b = 0; b < ps.buckets; ++b) cursor[b] = off[b];
  // The index store is chosen once per run, not tested per element.
  const auto sweep = [&](auto with_idx) {
    for (std::int64_t i = lo; i < hi; ++i) {
      if (!keep_going()) return false;
      const std::int64_t b = load_relaxed(ps.bucket_id[static_cast<std::size_t>(i)]);
      const std::size_t slot = cursor[b]++;
      store_relaxed(ps.skey[slot], ps.key(i));
      if constexpr (decltype(with_idx)::value) {
        store_relaxed(ps.sidx[slot], static_cast<std::uint32_t>(i));
      }
    }
    return true;
  };
  return ps.sidx != nullptr ? sweep(std::true_type{}) : sweep(std::false_type{});
}

// The end of the run that opens at items[from]: ascending (no item below
// its predecessor), or strictly descending when its first pair descends.
// `descending` reports which; a run of one or no item ascends.
template <typename T, typename Less>
std::size_t run_end(const T* items, std::size_t from, std::size_t size, Less less,
                    bool& descending) {
  descending = from + 1 < size && less(items[from + 1], items[from]);
  std::size_t i = from + 1;
  while (i < size && less(items[i], items[i - 1]) == descending) ++i;
  return std::min(i, size);
}

// Gather slots [lo, hi) into private `scratch` with `load`, and hand each
// item to `emit` with its rank.  A bucket that is one ascending or strictly
// descending run followed by at most one more is emitted by a two-way merge
// of the two runs, each walked in ascending order (a descending run from its
// end); any other bucket is sorted under `less` first.  The ranks either way
// are the sorted order's, and a merged bucket counts as one leaf block.
template <typename T, typename Less, typename Load, typename Emit, typename Check>
bool sort_bucket(std::vector<T>& scratch, std::int64_t lo, std::int64_t hi, Less less,
                 LeafSortTally& tally, Load&& load, Emit&& emit, Check&& keep_going) {
  // Sized once and filled by index: a per-element push_back leaves the
  // gather loop's cost to whether the compiler inlines vector growth into
  // the (large) engine worker, and out of line it is a call per element.
  // A growth reserves twice the bucket: the scratch is thread_local, so a
  // pooled worker that has seen its largest bucket stops allocating, also
  // on new keys whose buckets come out a little larger.
  const std::size_t size = static_cast<std::size_t>(hi - lo);
  if (size > scratch.capacity()) scratch.reserve(2 * size);
  scratch.resize(size);
  T* items = scratch.data();
  for (std::int64_t s = lo; s < hi; ++s) {
    if (!keep_going()) return false;
    items[s - lo] = load(static_cast<std::size_t>(s));
  }
  std::size_t rank = static_cast<std::size_t>(lo);
  bool a_desc = false;
  bool b_desc = false;
  const std::size_t seam = run_end(items, 0, size, less, a_desc);
  if (run_end(items, seam, size, less, b_desc) == size) {
    ++tally.blocks;
    // Cursors at each run's least item, stepping towards its greatest; a
    // run is spent when its cursor reaches `stop`.
    std::ptrdiff_t a = a_desc ? static_cast<std::ptrdiff_t>(seam) - 1 : 0;
    std::ptrdiff_t b = b_desc ? static_cast<std::ptrdiff_t>(size) - 1
                              : static_cast<std::ptrdiff_t>(seam);
    const std::ptrdiff_t a_step = a_desc ? -1 : 1;
    const std::ptrdiff_t b_step = b_desc ? -1 : 1;
    const std::ptrdiff_t a_stop = a_desc ? -1 : static_cast<std::ptrdiff_t>(seam);
    const std::ptrdiff_t b_stop = b_desc ? static_cast<std::ptrdiff_t>(seam) - 1
                                         : static_cast<std::ptrdiff_t>(size);
    for (std::size_t k = 0; k < size; ++k) {
      if (!keep_going()) return false;
      // Only bare keys tie, and equal bare keys are bit-identical.
      if (b == b_stop || (a != a_stop && !less(items[b], items[a]))) {
        emit(rank++, items[a]);
        a += a_step;
      } else {
        emit(rank++, items[b]);
        b += b_step;
      }
    }
    return true;
  }
  leaf_sort(items, items + size, less, &tally);
  for (const T& it : scratch) {
    if (!keep_going()) return false;
    emit(rank++, it);
  }
  return true;
}

// Bucket sweep, one bucket: copy the bucket's scattered elements into
// private scratch, leaf-sort, store consecutive ranks into the run's output.
// The private copy is essential — concurrent duplicates of this job must not
// sort shared memory in place.  A run without sidx sorts bare keys (only
// kBareKeyOrder runs are built that way); every other run sorts (key,
// index) pairs.
template <typename Key, typename Compare, typename Check>
bool partition_bucket(const Compare& cmp, PartitionShared<Key>& ps,
                      PartitionLocal<Key>& local, std::int64_t bucket,
                      Check&& keep_going) {
  const std::int64_t lo = local.base[static_cast<std::size_t>(bucket)];
  const std::int64_t hi = local.base[static_cast<std::size_t>(bucket) + 1];
  if (lo == hi) return true;  // empty bucket (skewed input vs the sample)
  if constexpr (kBareKeyOrder<Key, Compare>) {
    if (ps.sidx == nullptr) {
      return sort_bucket(
          local.bare, lo, hi, cmp, local.tally,
          [&](std::size_t s) { return load_relaxed(ps.skey[s]); },
          [&](std::size_t r, const Key& k) { store_relaxed(ps.out[r], k); }, keep_going);
    }
  }
  WFSORT_DCHECK(ps.sidx != nullptr);
  const auto load = [&](std::size_t s) {
    return LeafItem<Key>{load_relaxed(ps.skey[s]),
                         static_cast<std::int64_t>(load_relaxed(ps.sidx[s]))};
  };
  const auto emit = [&](std::size_t r, const LeafItem<Key>& it) {
    if (ps.out != nullptr) {
      store_relaxed(ps.out[r], it.key);
    } else {
      store_relaxed(ps.out_idx[r], static_cast<std::uint32_t>(it.idx));
    }
  };
  return sort_bucket(local.items, lo, hi, LeafItemLess<Key, Compare>{cmp}, local.tally,
                     load, emit, keep_going);
}

}  // namespace wfsort::detail
