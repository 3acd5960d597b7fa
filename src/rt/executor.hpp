// Execution runtime: a small, dependency-free work-stealing thread pool.
//
// The hot paths of this library — FDD construction, pairwise/N-way
// comparison, batch classification — decompose into bulk independent
// subproblems (Hazelhurst's observation for BDD-style analyses holds for
// FDDs too). The Executor runs such task sets across a fixed set of
// worker threads: every worker owns a deque, takes its own work LIFO, and
// steals FIFO from siblings when idle. Parallelism is always *opt-in*:
// every parallel entry point in the library defaults to
// Executor::inline_executor(), which runs everything on the calling
// thread, and parallel results are bit-identical to serial ones (results
// land in preassigned index slots, so schedule order never shows).
//
// Blocking calls participate: a thread waiting on its own parallel_for
// claims pending iterations itself, so nested submission from inside a
// task cannot deadlock — a batch's owner alone is always sufficient to
// drain it.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace dfw {

class RunContext;

/// Counters accumulated since construction (or the last reset_metrics()).
/// Queryable at any time, but only a *quiescent* read (no batch in flight,
/// see Executor::quiescent()) is a consistent cut — a mid-flight read can
/// pair a batch's tasks_run with a busy_ms that does not include them yet.
struct ExecutorMetrics {
  std::uint64_t tasks_run = 0;  ///< claimed work chunks executed
  std::uint64_t steals = 0;     ///< tasks taken from another worker's deque
  std::uint64_t batches = 0;    ///< parallel_for invocations
  double busy_ms = 0.0;         ///< wall time inside tasks, summed over threads
};

class Executor {
 public:
  /// A pool with `threads` workers. 0 workers makes a serial executor that
  /// runs every batch inline on the calling thread.
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The shared serial executor — the library-wide default. Never runs
  /// anything off the calling thread.
  static Executor& inline_executor();

  /// std::thread::hardware_concurrency(), floored at 1.
  static std::size_t hardware_threads();

  std::size_t thread_count() const { return threads_.size(); }
  bool is_inline() const { return threads_.empty(); }

  /// Runs fn(i) for every i in [0, n); returns when all invocations have
  /// completed. Iterations are claimed dynamically by the caller and the
  /// workers. If invocations throw, all remaining iterations still run and
  /// the exception from the smallest throwing index is rethrown.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Governed variant: iterations additionally observe `context` (borrowed,
  /// may be null). Once the context is aborted — by a breach inside an
  /// iteration or from outside — iterations that have not started yet are
  /// *skipped* instead of run, and the join point rethrows the governing
  /// dfw::Error (the smallest-index rule still applies, so the breaching
  /// iteration's own error wins over skip markers behind it).
  ///
  /// With a non-null obs sink every claimed chunk additionally emits a
  /// "chunk" trace span (attributed to the thread that ran it, with the
  /// chunk's index range as args) and a duration sample in the registry
  /// histogram "rt.executor.chunk_ns". The default sink is null and free.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    RunContext* context, ObsOptions obs = {});

  /// Like parallel_for, but hands each task a contiguous index range
  /// fn(begin, end) of at most `grain` iterations — the right shape when
  /// per-iteration work is tiny (e.g. classifying one packet).
  void parallel_for_chunked(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);
  void parallel_for_chunked(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn,
      RunContext* context, ObsOptions obs = {});

  /// True when no parallel_for/parallel_for_chunked batch is in flight on
  /// this executor — the precondition for a consistent metrics() cut and
  /// for reset_metrics().
  bool quiescent() const {
    return active_batches_.load(std::memory_order_acquire) == 0;
  }

  /// A point-in-time snapshot; see ExecutorMetrics for the mid-flight
  /// caveat. For a consistent cut, call at quiescence.
  ExecutorMetrics metrics() const;

  /// Zeroes the counters. Requires quiescence: resetting while a batch is
  /// in flight would tear that batch's counters in half (its already-run
  /// chunks vanish, its remaining chunks survive), so this throws
  /// std::logic_error when quiescent() is false.
  void reset_metrics();

 private:
  struct Worker;
  struct Batch;

  void worker_loop(std::size_t self);
  /// Pops one batch token (own deque back, else steal a sibling's front)
  /// and helps run it. Returns false when every deque is empty.
  bool try_run_one(std::size_t self);
  /// Spreads `count` helper tokens for `batch` over the worker deques.
  void enqueue_helpers(Batch& batch, std::size_t count);
  /// Removes this batch's not-yet-claimed helper tokens from every deque,
  /// so the batch owner never waits behind unrelated queued work and no
  /// reference to the (stack-allocated) batch outlives its owner's frame.
  void sweep_helpers(Batch& batch);
  void run_batch(Batch& batch);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};

  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::size_t> active_batches_{0};
};

}  // namespace dfw
