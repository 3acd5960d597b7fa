// Executor unit tests: inline semantics, full and exactly-once index
// coverage, nested submission, exception propagation, zero-task edge
// cases, metrics, and concurrent external callers. These are the suites
// the DFW_SANITIZE=thread build is expected to exercise.

#include "rt/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rt/govern.hpp"

namespace dfw {
namespace {

TEST(ExecutorTest, InlineExecutorRunsOnCallingThread) {
  Executor& ex = Executor::inline_executor();
  EXPECT_TRUE(ex.is_inline());
  EXPECT_EQ(ex.thread_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  ex.parallel_for(64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;  // safe: everything runs on this thread
  });
  EXPECT_EQ(calls, 64u);
}

TEST(ExecutorTest, ZeroTasksIsANoOp) {
  Executor pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  pool.parallel_for_chunked(0, 16, [&](std::size_t, std::size_t) {
    called = true;
  });
  Executor::inline_executor().parallel_for(0,
                                           [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ExecutorTest, EveryIndexRunsExactlyOnce) {
  Executor pool(4);
  constexpr std::size_t kN = 2000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, ChunkedCoversAllWithBoundedChunks) {
  Executor pool(3);
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kGrain = 64;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for_chunked(kN, kGrain, [&](std::size_t begin,
                                            std::size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end - begin, kGrain);
    ASSERT_LE(end, kN);
    for (std::size_t i = begin; i < end; ++i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, NestedSubmissionCompletes) {
  Executor pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(50, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 400);
}

TEST(ExecutorTest, NestedSubmissionOnSingleWorkerDoesNotDeadlock) {
  Executor pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ExecutorTest, SmallestIndexExceptionWinsAndAllIndicesRun) {
  Executor pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(1000, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i >= 500) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "500");
  }
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ExecutorTest, InlineExceptionMatchesPoolSemantics) {
  std::size_t ran = 0;
  try {
    Executor::inline_executor().parallel_for(10, [&](std::size_t i) {
      ++ran;
      if (i >= 3) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_EQ(ran, 10u);  // remaining iterations still run
}

TEST(ExecutorTest, ThrowingTaskPreservesErrorTypeAcrossThreadCounts) {
  // A dfw::Error thrown inside a worker must arrive at the join point as
  // a dfw::Error with its code intact — not sliced to runtime_error — at
  // every pool width.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 7) {
          throw Error(ErrorCode::kInternal, "task 7 failed");
        }
      });
      FAIL() << "parallel_for should have rethrown (threads=" << threads
             << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal);
      EXPECT_NE(std::string(e.what()).find("task 7 failed"),
                std::string::npos);
    }
    EXPECT_EQ(ran.load(), 64) << "threads=" << threads;
  }
}

TEST(ExecutorTest, GovernedBatchSkipsEverythingWhenPreCancelled) {
  CancelSource source;
  source.cancel();
  RunContext::Config config;
  config.cancel = source.token();
  RunContext ctx(std::move(config));

  Executor pool(2);
  std::atomic<int> ran{0};
  for (Executor* ex : {&Executor::inline_executor(), &pool}) {
    try {
      ex->parallel_for(100, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
      }, &ctx);
      FAIL() << "governed batch over an aborted context should throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
  }
  EXPECT_EQ(ran.load(), 0) << "no chunk of a pre-cancelled batch may run";
}

TEST(ExecutorTest, GovernedBatchSkipsUnstartedAfterMidBatchBreach) {
  // Every iteration charges one node against a tiny budget, so whichever
  // iteration runs first breaches; iterations not yet started are skipped
  // rather than run, and the breach error wins at the join.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    RunContext ctx = RunContext::with_budgets({.max_nodes = 1});
    ctx.charge_nodes(1);  // next charge breaches
    Executor pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(10000, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
        ctx.charge_nodes(1);
      }, &ctx);
      FAIL() << "expected budget breach (threads=" << threads << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNodeBudgetExceeded);
    }
    // Only chunks already started before the first breach ran: far fewer
    // than the full batch.
    EXPECT_LT(ran.load(), 10000) << "threads=" << threads;
  }
}

TEST(ExecutorTest, GovernedBatchWithNullContextMatchesUngoverned) {
  Executor pool(2);
  std::atomic<int> ran{0};
  pool.parallel_for(128, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  }, nullptr);
  EXPECT_EQ(ran.load(), 128);
}

TEST(ExecutorTest, MetricsCountTasksAndBatches) {
  Executor pool(2);
  pool.parallel_for(100, [](std::size_t) {});
  const ExecutorMetrics m = pool.metrics();
  EXPECT_EQ(m.tasks_run, 100u);
  EXPECT_EQ(m.batches, 1u);
  EXPECT_GE(m.busy_ms, 0.0);
  pool.reset_metrics();
  const ExecutorMetrics zero = pool.metrics();
  EXPECT_EQ(zero.tasks_run, 0u);
  EXPECT_EQ(zero.steals, 0u);
  EXPECT_EQ(zero.batches, 0u);
  EXPECT_EQ(zero.busy_ms, 0.0);
}

TEST(ExecutorTest, PoolSurvivesManySequentialBatches) {
  Executor pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(32, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 31 * 32 / 2);
  }
  EXPECT_EQ(pool.metrics().batches, 200u);
}

TEST(ExecutorTest, ConcurrentExternalCallersShareThePool) {
  Executor pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for(64, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(total.load(), 4 * 20 * 64);
}

TEST(ExecutorTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(Executor::hardware_threads(), 1u);
}

}  // namespace
}  // namespace dfw
