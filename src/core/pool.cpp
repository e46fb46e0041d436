#include "core/pool.h"

namespace wfsort {

SortPool::SortPool(std::uint32_t threads) {
  std::uint32_t t = threads;
  if (t == 0) t = Options{}.resolved_threads();
  workers_.reserve(t);
  for (std::uint32_t i = 0; i < t; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

SortPool::~SortPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  workers_.clear();  // join
}

SortPool::Lease::~Lease() {
  if (!ok_) return;
  {
    // Fold this run's arena accounting into the pool-level snapshot while
    // the arena is still exclusively ours.
    std::lock_guard<std::mutex> lk(pool_->mu_);
    pool_->arena_totals_ = pool_->arena_.totals();
  }
  pool_->busy_.store(false, std::memory_order_release);
}

void SortPool::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    Slot* s = nullptr;
    for (std::uint64_t p = head_; p < tail_ && s == nullptr; ++p) {
      Slot& c = slots_[p % kRunSlots];
      if (!c.done && !c.quit && c.next_tid < c.max_tid) s = &c;
    }
    if (s == nullptr) {
      if (stop_) return;
      cv_work_.wait(lk);
      continue;
    }
    const std::uint32_t tid = s->next_tid++;
    ++s->active;
    const std::uint64_t gen = s->gen;
    if (!s->first_claim_seen) {
      s->first_claim_seen = true;
      wake_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - s->t_submit)
              .count());
    }
    JobFn fn = s->fn;
    void* ctx = s->ctx;

    lk.unlock();
    const bool completed = fn(ctx, tid);
    lk.lock();

    // The slot cannot have been recycled while our claim was in flight:
    // retirement requires active == 0 and we held a unit of `active`.
    WFSORT_CHECK(s->gen == gen);
    --s->active;
    if (completed) s->quit = true;
    cv_done_.notify_all();
  }
}

SortPool::BlockingRun SortPool::begin_blocking(JobFn fn, void* ctx,
                                               std::uint32_t workers) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return tail_ - head_ < kRunSlots; });
  const std::uint64_t pos = tail_++;
  Slot& s = slots_[pos % kRunSlots];
  s.fn = fn;
  s.ctx = ctx;
  s.gen = ++gen_;
  s.next_tid = 1;
  s.max_tid = workers;
  s.active = 0;
  s.quit = workers <= 1;  // no id to hand out
  s.done = false;
  s.first_claim_seen = false;
  s.t_submit = std::chrono::steady_clock::now();
  lk.unlock();
  if (workers > 2) {
    cv_work_.notify_all();
  } else if (workers == 2) {
    cv_work_.notify_one();
  }
  return BlockingRun{pos};
}

void SortPool::finish_blocking(BlockingRun h, bool caller_completed) {
  std::unique_lock<std::mutex> lk(mu_);
  Slot& s = slots_[h.pos % kRunSlots];
  if (caller_completed) s.quit = true;
  // Drain ids no parked worker claimed (pool short-handed, or every claimed
  // worker was fault-killed): the run must never depend on someone else
  // showing up, and wait-freedom makes sequential draining always correct.
  while (!s.quit && s.next_tid < s.max_tid) {
    const std::uint32_t tid = s.next_tid++;
    ++s.active;
    JobFn fn = s.fn;
    void* ctx = s.ctx;
    lk.unlock();
    const bool completed = fn(ctx, tid);
    lk.lock();
    --s.active;
    if (completed) s.quit = true;
  }
  cv_done_.wait(lk, [&] { return s.active == 0; });
  s.done = true;
  while (head_ < tail_ && slots_[head_ % kRunSlots].done) ++head_;
  lk.unlock();
  cv_done_.notify_all();  // ring space freed
}

PoolStats SortPool::stats() const {
  PoolStats ps;
  ps.threads = thread_count();
  ps.runs = runs_.load(std::memory_order_relaxed);
  ps.caller_only_runs = caller_only_runs_.load(std::memory_order_relaxed);
  ps.bypass_runs = bypass_runs_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  ps.wake_ns = wake_ns_;
  ps.arena_reuse_bytes = arena_totals_.reuse_bytes;
  ps.arena_grow_events = arena_totals_.grow_events;
  ps.arena_held_bytes = arena_totals_.held_bytes;
  return ps;
}

SortPool& default_pool() {
  static SortPool pool;
  return pool;
}

}  // namespace wfsort
