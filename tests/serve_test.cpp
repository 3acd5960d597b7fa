// The serve layer's contract, including the PR's correctness gate: under
// a storm of concurrent hot swaps, every batch a reader shard classifies
// must be byte-identical to a serial replay of the same packets against
// the pinned version's policy, with zero dropped lookups and every
// retired version reclaimed once the storm drains.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "engine/trace.hpp"
#include "fw/rule.hpp"
#include "net/interval.hpp"
#include "net/interval_set.hpp"
#include "rt/epoch.hpp"
#include "rt/executor.hpp"
#include "rt/govern.hpp"
#include "serve/serve.hpp"
#include "synth/synth.hpp"

namespace dfw {
namespace {

using serve::BatchResult;
using serve::ServeCore;
using serve::ServeOptions;
using serve::ServeStats;

Policy make_policy(std::size_t rules, std::uint64_t seed) {
  SynthConfig config;
  config.num_rules = rules;
  Rng rng(seed);
  return synth_policy(config, rng);
}

std::vector<Decision> serial_replay(const Policy& policy,
                                    std::span<const Packet> packets) {
  std::vector<Decision> out;
  out.reserve(packets.size());
  for (const Packet& p : packets) {
    out.push_back(policy.evaluate(p));
  }
  return out;
}

// -- Epoch domain -------------------------------------------------------------

TEST(EpochDomain, SlotsRegisterUnregisterAndRecycle) {
  EpochDomain domain;
  EXPECT_EQ(domain.registered(), 0u);
  const std::size_t a = domain.register_slot();
  const std::size_t b = domain.register_slot();
  EXPECT_NE(a, b);
  EXPECT_EQ(domain.registered(), 2u);
  domain.unregister_slot(a);
  EXPECT_EQ(domain.registered(), 1u);
  const std::size_t c = domain.register_slot();
  EXPECT_EQ(c, a) << "freed slots are recycled";
  domain.unregister_slot(b);
  domain.unregister_slot(c);
  EXPECT_EQ(domain.registered(), 0u);
}

TEST(EpochDomain, MinActiveTracksTheOldestPin) {
  EpochDomain domain;
  const std::size_t slot = domain.register_slot();

  // Nothing pinned: every retire epoch is immediately reclaimable.
  EXPECT_GE(domain.min_active(), domain.advance());

  domain.enter(slot);
  const std::uint64_t pinned_at = domain.epoch();
  const std::uint64_t retire = domain.advance();
  EXPECT_EQ(domain.min_active(), pinned_at);
  EXPECT_LT(domain.min_active(), retire)
      << "a pin taken before the advance blocks that retire epoch";

  domain.exit(slot);
  EXPECT_GE(domain.min_active(), retire);
  domain.unregister_slot(slot);
}

TEST(EpochDomain, GuardPinsForItsScope) {
  EpochDomain domain;
  EpochRegistration reg(domain);
  ASSERT_TRUE(reg.valid());
  const std::uint64_t retire = [&] {
    EpochGuard guard(domain, reg.slot());
    return domain.advance();
  }();
  EXPECT_GE(domain.min_active(), retire) << "guard exit released the pin";
}

// -- Serve basics -------------------------------------------------------------

TEST(Serve, BootServesSequenceOneAndMatchesEvaluate) {
  const Policy policy = make_policy(30, 1);
  Rng rng(2);
  const std::vector<Packet> trace = synth_trace(policy, 500, rng);

  ServeCore core(policy, ServeOptions{});
  EXPECT_EQ(core.current_sequence(), 1u);

  const BatchResult result = core.classify_batch(trace);
  EXPECT_EQ(result.status, ErrorCode::kOk);
  EXPECT_EQ(result.version, 1u);
  EXPECT_EQ(result.decisions, serial_replay(policy, trace));

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.lookups, trace.size());
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(Serve, SwapPublishesRetiresAndReclaims) {
  const Policy first = make_policy(30, 3);
  const Policy second = make_policy(30, 4);
  Rng rng(5);
  const std::vector<Packet> trace = synth_trace(first, 500, rng);

  ServeCore core(first, ServeOptions{});
  const Result<std::uint64_t> swapped = core.swap(second);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped.value(), 2u);
  EXPECT_EQ(core.current_sequence(), 2u);

  const BatchResult result = core.classify_batch(trace);
  EXPECT_EQ(result.version, 2u);
  EXPECT_EQ(result.decisions, serial_replay(second, trace));

  // No reader held a pin across the swap, so the retired boot version
  // was reclaimable inside swap() itself.
  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.retired, 1u);
  EXPECT_EQ(stats.reclaimed, 1u);
  EXPECT_EQ(stats.limbo, 0u);
}

TEST(Serve, GovernedSwapRejectionKeepsServingTheOldVersion) {
  const Policy small = make_policy(10, 6);
  // Plenty of rules over a near-empty node budget: the swap compile
  // must breach deterministically.
  const Policy huge = make_policy(200, 7);
  Rng rng(8);
  const std::vector<Packet> trace = synth_trace(small, 200, rng);

  ServeOptions options;
  options.swap_budgets.max_nodes = 8;
  ServeCore core(small, options);

  const Result<std::uint64_t> swapped = core.swap(huge);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.code(), ErrorCode::kNodeBudgetExceeded);
  EXPECT_EQ(core.current_sequence(), 1u);

  const BatchResult result = core.classify_batch(trace);
  EXPECT_EQ(result.version, 1u);
  EXPECT_EQ(result.decisions, serial_replay(small, trace));

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.swaps_rejected, 1u);
  EXPECT_EQ(stats.retired, 0u);
}

TEST(Serve, NonComprehensiveSwapIsRejectedNotFatal) {
  const Policy good = make_policy(10, 9);
  // One rule pinning field 0 to a single value: packets outside it fall
  // through, so FDD validation must refuse the swap.
  const Schema& schema = good.schema();
  std::vector<IntervalSet> conjuncts;
  conjuncts.emplace_back(Interval(0, 0));
  for (std::size_t i = 1; i < schema.field_count(); ++i) {
    conjuncts.emplace_back(schema.domain(i));
  }
  const Policy partial(schema, {Rule(schema, conjuncts, kAccept)});

  ServeCore core(good, ServeOptions{});
  const Result<std::uint64_t> swapped = core.swap(partial);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(core.current_sequence(), 1u);
  EXPECT_EQ(core.stats().swaps_rejected, 1u);
}

TEST(Serve, AdmissionControlRefusesBatchesOverTheBound) {
  const Policy policy = make_policy(60, 10);
  Rng rng(11);
  const std::vector<Packet> big = synth_trace(policy, 400'000, rng);
  const std::vector<Packet> small = synth_trace(policy, 4, rng);

  ServeOptions options;
  options.max_inflight_batches = 1;
  ServeCore core(policy, options);

  // One reader occupies the single admission token with a large batch;
  // the main thread fires small batches at the core until one lands
  // inside the window and is refused. Bounded retries keep the test
  // deterministic-in-outcome without handshake hooks in the hot path.
  bool saw_rejection = false;
  for (int attempt = 0; attempt < 50 && !saw_rejection; ++attempt) {
    std::atomic<bool> started{false};
    std::thread reader([&] {
      auto shard = core.shard();
      started.store(true);
      const BatchResult r = shard.classify(big);
      EXPECT_EQ(r.status, ErrorCode::kOk);
    });
    while (!started.load()) {
      std::this_thread::yield();
    }
    for (int probe = 0; probe < 1000; ++probe) {
      const BatchResult r = core.classify_batch(small);
      if (r.status == ErrorCode::kOverloaded) {
        EXPECT_EQ(r.version, 0u);
        EXPECT_TRUE(r.decisions.empty());
        saw_rejection = true;
        break;
      }
      EXPECT_EQ(r.status, ErrorCode::kOk);
    }
    reader.join();
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(core.stats().batches_rejected, 1u);
  EXPECT_EQ(core.stats().inflight, 0u);
}

// -- The correctness gate -----------------------------------------------------
//
// A writer thread hot-swaps through a ring of pre-built policies (>= 100
// successful swaps) while reader shards classify batches continuously.
// Every reader records (version, batch index, decisions); afterwards each
// record is replayed serially against the policy that owned that version.
// The gate: byte-identical decisions for every batch, zero dropped
// lookups, and retired == reclaimed == swaps once drained.

void run_swap_storm(ClassifierBackendKind backend, std::uint64_t min_swaps) {
  constexpr std::size_t kPolicies = 8;
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kBatchesPerReader = 60;
  constexpr std::size_t kBatchLen = 64;
  const std::uint64_t kMinSwaps = min_swaps;

  std::vector<Policy> ring;
  ring.reserve(kPolicies);
  for (std::size_t i = 0; i < kPolicies; ++i) {
    ring.push_back(make_policy(20, 100 + i));
  }

  // A shared packet pool; batches are windows into it.
  Rng rng(42);
  const std::vector<Packet> pool = synth_trace(ring[0], 4096, rng);
  const auto batch_window = [&](std::size_t i) {
    const std::size_t start = (i * 97) % (pool.size() - kBatchLen);
    return std::span<const Packet>(pool).subspan(start, kBatchLen);
  };

  Executor executor(2);
  ServeOptions options;
  options.run.executor = &executor;
  options.batch_grain = 16;  // several chunks per batch
  options.backend = backend;
  ServeCore core(ring[0], options);

  // version sequence -> index into `ring`. Sequence 1 is the boot policy.
  std::map<std::uint64_t, std::size_t> version_policy;
  version_policy[1] = 0;
  std::mutex version_mu;

  std::atomic<bool> readers_done{false};
  std::thread writer([&] {
    std::uint64_t swaps = 0;
    std::size_t next = 1;
    while (swaps < kMinSwaps || !readers_done.load()) {
      const std::size_t idx = next++ % kPolicies;
      const Result<std::uint64_t> r = core.swap(ring[idx]);
      ASSERT_TRUE(r.ok());
      {
        std::lock_guard<std::mutex> lock(version_mu);
        version_policy[r.value()] = idx;
      }
      ++swaps;
    }
  });

  struct Record {
    std::uint64_t version;
    std::size_t batch;
    std::vector<Decision> decisions;
  };
  std::vector<std::vector<Record>> records(kReaders);
  std::vector<std::thread> readers;
  std::atomic<std::size_t> readers_finished{0};
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto shard = core.shard();
      for (std::size_t i = 0; i < kBatchesPerReader; ++i) {
        const std::size_t batch = r * kBatchesPerReader + i;
        BatchResult result = shard.classify(batch_window(batch));
        ASSERT_EQ(result.status, ErrorCode::kOk) << "dropped lookup";
        ASSERT_EQ(result.decisions.size(), kBatchLen);
        records[r].push_back(
            {result.version, batch, std::move(result.decisions)});
      }
      if (readers_finished.fetch_add(1) + 1 == kReaders) {
        readers_done.store(true);
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  writer.join();

  const ServeStats stats = core.stats();
  EXPECT_GE(stats.swaps, kMinSwaps);
  EXPECT_EQ(stats.swaps_rejected, 0u);
  EXPECT_EQ(stats.batches, kReaders * kBatchesPerReader);
  EXPECT_EQ(stats.batches_rejected, 0u);
  EXPECT_EQ(stats.lookups, kReaders * kBatchesPerReader * kBatchLen);

  // Every recorded batch replays byte-identically against the policy
  // that owned its pinned version.
  std::size_t replayed = 0;
  for (const std::vector<Record>& reader_records : records) {
    for (const Record& record : reader_records) {
      const auto it = version_policy.find(record.version);
      ASSERT_NE(it, version_policy.end())
          << "batch pinned an unpublished version " << record.version;
      EXPECT_EQ(record.decisions,
                serial_replay(ring[it->second], batch_window(record.batch)))
          << "version " << record.version << ", batch " << record.batch;
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, kReaders * kBatchesPerReader);

  // Quiescent drain: with all shards gone every retired version is
  // reclaimable, and each successful swap retired exactly one version.
  core.reclaim();
  const ServeStats drained = core.stats();
  EXPECT_EQ(drained.retired, drained.swaps);
  EXPECT_EQ(drained.reclaimed, drained.retired);
  EXPECT_EQ(drained.limbo, 0u);
}

TEST(ServeStorm, SerialReplayIsByteIdenticalAcrossHotSwaps) {
  run_swap_storm(ClassifierBackendKind::kFlatSlab, 100);
}

// The alternative backend runs a shorter storm: the gate is identical —
// byte-equal serial replay under concurrent swaps — and the flat-slab
// storm already soaks the swap machinery itself.
TEST(ServeStorm, PrefixTrieBackendReplaysByteIdentically) {
  run_swap_storm(ClassifierBackendKind::kPrefixTrie, 30);
}

}  // namespace
}  // namespace dfw
