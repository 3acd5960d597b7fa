#include "rt/executor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

#include "rt/govern.hpp"

namespace dfw {

// Workers hold plain pointers to batches, never ownership: a Batch lives
// on its owner's stack, and parallel_for_chunked does not return until no
// worker references it (outstanding_helpers == 0). That keeps every Batch
// destruction — including any captured exception object — on the owning
// thread, strictly after all worker accesses.
struct Executor::Worker {
  std::mutex mu;
  std::deque<Batch*> tokens;
};

// Shared state of one parallel_for call. Helpers claim chunk indices from
// `next`; completion is `done == chunk_count` (all chunks finished) plus
// `outstanding_helpers == 0` (no worker still holds a token). The
// first-throwing-chunk rule (smallest begin index wins) keeps the
// rethrown exception independent of the schedule.
struct Executor::Batch {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t chunk_count = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  RunContext* ctx = nullptr;  ///< borrowed; aborted() skips unstarted chunks
  ObsOptions obs;             ///< per-chunk spans / duration samples
  Histogram* chunk_hist = nullptr;  ///< resolved once at batch entry

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t outstanding_helpers = 0;
  std::exception_ptr error;
  std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
};

Executor::Executor(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

Executor& Executor::inline_executor() {
  static Executor serial(0);
  return serial;
}

std::size_t Executor::hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void Executor::enqueue_helpers(Batch& batch, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t w =
        next_queue_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    std::lock_guard<std::mutex> lk(workers_[w]->mu);
    workers_[w]->tokens.push_back(&batch);
  }
  pending_.fetch_add(count, std::memory_order_release);
  {
    // Taking the lock (even empty) pairs with the waiters' predicate check,
    // so a worker between its check and its wait cannot miss these tokens.
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  if (count == 1) {
    wake_cv_.notify_one();
  } else {
    wake_cv_.notify_all();
  }
}

void Executor::sweep_helpers(Batch& batch) {
  std::size_t removed = 0;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    std::lock_guard<std::mutex> lk(worker->mu);
    const auto it =
        std::remove(worker->tokens.begin(), worker->tokens.end(), &batch);
    removed += static_cast<std::size_t>(worker->tokens.end() - it);
    worker->tokens.erase(it, worker->tokens.end());
  }
  if (removed > 0) {
    pending_.fetch_sub(removed, std::memory_order_release);
    std::lock_guard<std::mutex> lk(batch.mu);
    batch.outstanding_helpers -= removed;
    if (batch.outstanding_helpers == 0 && batch.done == batch.chunk_count) {
      batch.cv.notify_all();
    }
  }
}

bool Executor::try_run_one(std::size_t self) {
  Batch* batch = nullptr;
  bool stolen = false;
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.tokens.empty()) {
      batch = own.tokens.back();
      own.tokens.pop_back();
    }
  }
  if (!batch) {
    for (std::size_t k = 1; k < workers_.size() && !batch; ++k) {
      Worker& victim = *workers_[(self + k) % workers_.size()];
      std::lock_guard<std::mutex> lk(victim.mu);
      if (!victim.tokens.empty()) {
        batch = victim.tokens.front();
        victim.tokens.pop_front();
        stolen = true;
      }
    }
  }
  if (!batch) {
    return false;
  }
  pending_.fetch_sub(1, std::memory_order_release);
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
  }
  run_batch(*batch);
  // Last touch of *batch: the owner cannot leave its frame before this
  // helper is accounted for.
  std::lock_guard<std::mutex> lk(batch->mu);
  if (--batch->outstanding_helpers == 0 &&
      batch->done == batch->chunk_count) {
    batch->cv.notify_all();
  }
  return true;
}

void Executor::worker_loop(std::size_t self) {
  for (;;) {
    if (try_run_one(self)) {
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.wait(lk, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) {
      return;
    }
  }
}

void Executor::run_batch(Batch& batch) {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    const std::size_t chunk =
        batch.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= batch.chunk_count) {
      return;
    }
    std::exception_ptr error;
    if (batch.ctx != nullptr && batch.ctx->aborted()) {
      // Governed batch, context already breached: cancel this not-yet-
      // started chunk. The marker carries the original abort code; the
      // smallest-index rule keeps the breaching chunk's own error (which
      // precedes every skipped chunk in claim order) as the one rethrown.
      error = std::make_exception_ptr(
          Error(batch.ctx->abort_code(), "chunk cancelled before start"));
    } else {
      const std::size_t begin = chunk * batch.grain;
      const std::size_t end = std::min(begin + batch.grain, batch.n);
      const auto start = Clock::now();
      try {
        ScopedSpan span(batch.obs.tracer, "chunk", "begin", begin, "end",
                        end);
        (*batch.fn)(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
      if (batch.chunk_hist != nullptr) {
        batch.chunk_hist->record(elapsed_ns);
      }
      busy_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lk(batch.mu);
    if (error && chunk < batch.error_chunk) {
      batch.error = error;
      batch.error_chunk = chunk;
    }
    if (++batch.done == batch.chunk_count &&
        batch.outstanding_helpers == 0) {
      batch.cv.notify_all();
    }
  }
}

void Executor::parallel_for_chunked(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunked(n, grain, fn, nullptr);
}

namespace {

// Batch-in-flight marker; its scope is what quiescent() reports on.
class ActiveBatchGuard {
 public:
  explicit ActiveBatchGuard(std::atomic<std::size_t>& counter)
      : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~ActiveBatchGuard() { counter_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::atomic<std::size_t>& counter_;
};

}  // namespace

void Executor::parallel_for_chunked(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn,
    RunContext* context, ObsOptions obs) {
  if (n == 0) {
    return;
  }
  ActiveBatchGuard in_flight(active_batches_);
  if (context != nullptr && !context->aborted()) {
    // Probe once at batch entry so a cancellation or deadline that fired
    // before the batch started skips every chunk instead of running one
    // grain of work first. The raise marks the context aborted; the skip
    // markers below carry the code to the join point.
    try {
      context->check_now();
    } catch (const Error&) {
    }
  }
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunk_count = (n + grain - 1) / grain;
  Histogram* chunk_hist =
      obs.metrics != nullptr ? &obs.metrics->histogram("rt.executor.chunk_ns")
                             : nullptr;
  if (is_inline() || chunk_count == 1) {
    // Serial path: same chunk decomposition, same first-error rule, same
    // skip-after-abort behaviour — and the same per-chunk spans — as the
    // pool path.
    std::exception_ptr error;
    for (std::size_t c = 0; c < chunk_count; ++c) {
      if (context != nullptr && context->aborted()) {
        if (!error) {
          error = std::make_exception_ptr(
              Error(context->abort_code(), "chunk cancelled before start"));
        }
        continue;
      }
      const std::size_t begin = c * grain;
      const std::size_t end = std::min(begin + grain, n);
      const auto start = std::chrono::steady_clock::now();
      try {
        ScopedSpan span(obs.tracer, "chunk", "begin", begin, "end", end);
        fn(begin, end);
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
      if (chunk_hist != nullptr) {
        chunk_hist->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
      }
    }
    if (error) {
      std::rethrow_exception(error);
    }
    return;
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  Batch batch;
  batch.n = n;
  batch.grain = grain;
  batch.chunk_count = chunk_count;
  batch.fn = &fn;
  batch.ctx = context;
  batch.obs = obs;
  batch.chunk_hist = chunk_hist;

  // One helper per worker, capped by the chunk count — the caller claims
  // chunks too, so more helpers than chunks would only churn.
  const std::size_t helpers = std::min(thread_count(), chunk_count - 1);
  batch.outstanding_helpers = helpers;
  enqueue_helpers(batch, helpers);
  run_batch(batch);

  // All chunks are claimed now; drop helper tokens still queued so the
  // wait below only covers helpers actively draining their final claim.
  sweep_helpers(batch);
  std::unique_lock<std::mutex> lk(batch.mu);
  batch.cv.wait(lk, [&] {
    return batch.done == batch.chunk_count && batch.outstanding_helpers == 0;
  });
  if (batch.error) {
    std::rethrow_exception(batch.error);
  }
}

void Executor::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(
      n, 1, [&fn](std::size_t begin, std::size_t) { fn(begin); }, nullptr);
}

void Executor::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn,
                            RunContext* context, ObsOptions obs) {
  parallel_for_chunked(
      n, 1, [&fn](std::size_t begin, std::size_t) { fn(begin); }, context,
      obs);
}

ExecutorMetrics Executor::metrics() const {
  ExecutorMetrics m;
  m.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  m.steals = steals_.load(std::memory_order_relaxed);
  m.batches = batches_.load(std::memory_order_relaxed);
  m.busy_ms =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) / 1e6;
  return m;
}

void Executor::reset_metrics() {
  if (!quiescent()) {
    // A reset racing an in-flight batch would split that batch's counters
    // across the reset boundary — half its chunks erased, half surviving —
    // so the numbers after the reset would describe no real workload.
    throw std::logic_error(
        "Executor::reset_metrics: batches in flight; reset requires "
        "quiescence (see Executor::quiescent())");
  }
  tasks_run_.store(0, std::memory_order_relaxed);
  steals_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  busy_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace dfw
