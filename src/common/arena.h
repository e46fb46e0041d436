// RunArena — the recycled storage substrate behind SortPool (ISSUE 10).
//
// A sorting run allocates a sequence of large flat arrays: the PackedNode
// tree, the WAT done-bits, partition scratch, the LC fat-tree planes,
// copy-back chunk flags.  RunArena serves them by SLOT MATCHING: the i-th
// request of a run is served from the i-th retained buffer.  If the
// retained buffer is large enough the request costs zero heap traffic
// (reuse); otherwise the slot is reallocated to the new high-water mark
// (grow).  begin_run() rewinds the cursor; nothing is ever freed between
// runs, so a pool that has seen its largest input of every shape performs
// steady-state submits with ZERO heap allocations (test_pool.cpp proves it
// with a counting operator-new hook).  A SortPool's one arena serves every
// variant, so slot i may hold what a run of another shape put there: every
// structure constructs (make) or writes (uninit) its slot before it reads
// it, and never relies on what the slot held before.
//
// The arena is single-owner per run: one thread calls begin_run() and all
// make<T>() calls happen-before the workers start (the Engine constructor
// runs on the submitting thread).  Workers only ever touch the returned
// storage, never the arena itself, so the arena needs no synchronization
// of its own — SortPool's one busy flag serializes the runs on it.
//
// Storage is always 64-byte aligned (cache-line isolation is part of the
// contract: PackedNode and the telemetry scratch rely on it).  Only
// trivially-destructible element types are supported — buffers are
// recycled without running destructors, either by re-running placement
// default-initialization (make) or by handing the bytes back as they are
// (uninit) to a caller that writes every slot before reading it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace wfsort {

// Advise the kernel to back the 2 MiB-aligned interior of [p, p + bytes)
// with transparent huge pages.  Call it before the first touch: the page
// faults that touch then takes come back as 2 MiB pages, so a large array
// visited at random (the pivot tree's node records) keeps its working set
// inside the TLB's reach.  Advice only: a no-op off Linux, below 2 MiB and
// when the kernel declines.
inline void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
  const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (a + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t hi = (a + bytes) & ~(kHuge - 1);
  if (hi > lo) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

class RunArena {
 public:
  static constexpr std::size_t kAlign = 64;

  struct Totals {
    std::uint64_t runs = 0;         // begin_run() calls
    std::uint64_t reuse_bytes = 0;  // bytes served from retained buffers
    std::uint64_t grow_events = 0;  // slots (re)allocated to a larger size
    std::uint64_t held_bytes = 0;   // current retained footprint
  };

  RunArena() = default;
  RunArena(const RunArena&) = delete;
  RunArena& operator=(const RunArena&) = delete;

  ~RunArena() {
    for (Slot& s : slots_) {
      ::operator delete(s.ptr, std::align_val_t{kAlign});
    }
  }

  // Rewind the slot cursor; retained buffers stay allocated and are handed
  // back out in the same order the previous run requested them.
  void begin_run() {
    cursor_ = 0;
    ++totals_.runs;
  }

  // Raw 64-byte-aligned storage.  Reuses the retained buffer at the current
  // slot when it is large enough, grows it otherwise.
  void* raw(std::size_t bytes) {
    if (bytes == 0) bytes = 1;
    if (cursor_ == slots_.size()) slots_.push_back(Slot{});
    Slot& s = slots_[cursor_++];
    if (s.bytes >= bytes) {
      totals_.reuse_bytes += bytes;
      return s.ptr;
    }
    ::operator delete(s.ptr, std::align_val_t{kAlign});
    totals_.held_bytes -= s.bytes;
    s.ptr = ::operator new(bytes, std::align_val_t{kAlign});
    s.bytes = bytes;
    totals_.held_bytes += bytes;
    ++totals_.grow_events;
    return s.ptr;
  }

  // An array of `count` default-initialized T.  Default-initialization
  // matches the owning `new T[count]` path bit for bit: C++20 atomics
  // value-initialize their payload in their default constructor, trivial
  // types stay uninitialized until the caller writes them.
  template <typename T>
  T* make(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is recycled without running destructors");
    static_assert(alignof(T) <= kAlign, "raise RunArena::kAlign");
    T* p = static_cast<T*>(raw(count * sizeof(T)));
    for (std::size_t i = 0; i < count; ++i) {
      ::new (static_cast<void*>(p + i)) T;
    }
    return p;
  }

  // An array of `count` T left uninitialised: recycled storage still holds
  // the previous run's bytes.  For callers that construct every element
  // themselves (TreeState's records) or write every slot before anything
  // reads it (the partition sweeps, whose Wat gates order each write before
  // the first read) — their first-touch page faults then land wherever that
  // first write runs instead of on the submitting thread.
  template <typename T>
  T* uninit(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is recycled without running destructors");
    static_assert(alignof(T) <= kAlign, "raise RunArena::kAlign");
    return static_cast<T*>(raw(count * sizeof(T)));
  }

  // A single constructed object.  The caller is responsible for calling the
  // destructor before the next begin_run() if ~T matters (Engine does this
  // for every per-variant structure it places here — their bulk arrays live
  // in this same arena and need no teardown).
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(alignof(T) <= kAlign, "raise RunArena::kAlign");
    void* p = raw(sizeof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  const Totals& totals() const { return totals_; }

 private:
  struct Slot {
    void* ptr = nullptr;
    std::size_t bytes = 0;
  };

  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;
  Totals totals_{};
};

// A flat array that either owns its storage (`new T[n]`, the cold one-shot
// path and direct construction in tests) or borrows it from a RunArena
// (the pooled path).  Same element semantics either way; the structures
// built on top (TreeState, Wat, FatTree, …) are oblivious to the choice.
template <typename T>
class ArenaArray {
 public:
  ArenaArray() = default;

  explicit ArenaArray(std::size_t count)
      : owned_(count == 0 ? nullptr : new T[count]),
        ptr_(owned_.get()),
        count_(count) {}

  ArenaArray(std::size_t count, RunArena& arena)
      : ptr_(count == 0 ? nullptr : arena.make<T>(count)), count_(count) {}

  ArenaArray(ArenaArray&&) noexcept = default;
  ArenaArray& operator=(ArenaArray&&) noexcept = default;

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  T& operator[](std::size_t i) { return ptr_[i]; }
  const T& operator[](std::size_t i) const { return ptr_[i]; }

  T* begin() { return ptr_; }
  T* end() { return ptr_ + count_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + count_; }

 private:
  std::unique_ptr<T[]> owned_;
  T* ptr_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace wfsort
