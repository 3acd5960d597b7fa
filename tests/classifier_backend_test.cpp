// Cross-backend equivalence harness: both compiled classifier layouts
// (flat-slab, prefix-trie) must produce byte-identical
// decisions — to each other, to the interpreted FDD walk, to the policy's
// first-match evaluation, and (on the accept/discard fragment) to the BDD
// baseline. Probes mix exhaustive small universes, random five-tuple
// traffic, and adversarial edge packets sitting exactly on interval
// boundaries, where off-by-one bugs live. Batch paths are checked for
// determinism across 1/2/8-thread executors: parallelism may reorder
// work, never output.

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "bdd/packet_encode.hpp"
#include "engine/classifier.hpp"
#include "fdd/construct.hpp"
#include "obs/names.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

constexpr ClassifierBackendKind kAllBackends[] = {
    ClassifierBackendKind::kFlatSlab,
    ClassifierBackendKind::kPrefixTrie,
};

Classifier compile_with(const Fdd& fdd, ClassifierBackendKind kind) {
  CompileOptions options;
  options.backend = kind;
  return Classifier::compile(fdd, options);
}

/// Adversarial probes: every rule-conjunct corner and every domain corner,
/// in every combination pattern that stays one packet (per-field lows,
/// per-field highs, and low/high alternations).
std::vector<Packet> edge_packets(const Policy& policy) {
  const Schema& schema = policy.schema();
  const std::size_t d = schema.field_count();
  std::vector<Packet> probes;
  for (std::size_t i = 0; i < policy.size(); ++i) {
    Packet lo(d), hi(d), lohi(d), hilo(d);
    for (std::size_t f = 0; f < d; ++f) {
      lo[f] = policy.rule(i).conjunct(f).min();
      hi[f] = policy.rule(i).conjunct(f).max();
      lohi[f] = (f % 2 == 0) ? lo[f] : hi[f];
      hilo[f] = (f % 2 == 0) ? hi[f] : lo[f];
    }
    probes.push_back(lo);
    probes.push_back(hi);
    probes.push_back(lohi);
    probes.push_back(hilo);
    // One past / one before each corner (clamped to the domain) — the
    // packets adjacent to every boundary.
    for (std::size_t f = 0; f < d; ++f) {
      const Interval& domain = schema.domain(f);
      if (lo[f] > domain.lo()) {
        Packet p = lo;
        p[f] = lo[f] - 1;
        probes.push_back(std::move(p));
      }
      if (hi[f] < domain.hi()) {
        Packet p = hi;
        p[f] = hi[f] + 1;
        probes.push_back(std::move(p));
      }
    }
  }
  Packet domain_lo(d), domain_hi(d);
  for (std::size_t f = 0; f < d; ++f) {
    domain_lo[f] = schema.domain(f).lo();
    domain_hi[f] = schema.domain(f).hi();
  }
  probes.push_back(domain_lo);
  probes.push_back(domain_hi);
  return probes;
}

TEST(BackendKind, NameRoundTrip) {
  for (const ClassifierBackendKind kind : kAllBackends) {
    const auto parsed = parse_backend_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_backend_kind("slab").has_value());
  EXPECT_FALSE(parse_backend_kind("").has_value());
}

TEST(ClassifierBackend, AgreesWithPolicyExhaustively) {
  std::mt19937_64 rng(711);
  for (int trial = 0; trial < 25; ++trial) {
    const Policy p = test::random_policy(tiny3(), 6, rng);
    const Fdd fdd = build_reduced_fdd(p);
    for (const ClassifierBackendKind kind : kAllBackends) {
      const Classifier c = compile_with(fdd, kind);
      EXPECT_EQ(c.backend(), kind);
      for (const Packet& pkt : test::all_packets(tiny3())) {
        ASSERT_EQ(c.classify(pkt), p.evaluate(pkt))
            << to_string(kind) << " trial " << trial;
      }
    }
  }
}

TEST(ClassifierBackend, ConstantPolicy) {
  const Schema s = tiny2();
  const Fdd fdd =
      build_reduced_fdd(Policy(s, {Rule::catch_all(s, kDiscard)}));
  for (const ClassifierBackendKind kind : kAllBackends) {
    const Classifier c = compile_with(fdd, kind);
    EXPECT_EQ(c.classify({0, 0}), kDiscard) << to_string(kind);
    EXPECT_EQ(c.classify({7, 7}), kDiscard) << to_string(kind);
  }
}

TEST(ClassifierBackend, FiveTupleRandomAndEdgeProbesAgree) {
  SynthConfig config;
  config.num_rules = 120;
  Rng rng(712);
  const Policy p = synth_policy(config, rng);
  const Fdd fdd = build_reduced_fdd(p);

  std::vector<Classifier> classifiers;
  for (const ClassifierBackendKind kind : kAllBackends) {
    classifiers.push_back(compile_with(fdd, kind));
  }

  std::vector<Packet> probes = edge_packets(p);
  std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
  std::uniform_int_distribution<Value> port(0, 65535);
  std::uniform_int_distribution<Value> proto(0, 255);
  for (int probe = 0; probe < 3000; ++probe) {
    probes.push_back({ip(rng), ip(rng), port(rng), port(rng), proto(rng)});
  }

  for (const Packet& pkt : probes) {
    const Decision want = fdd.evaluate(pkt);
    ASSERT_EQ(p.evaluate(pkt), want);
    for (std::size_t b = 0; b < classifiers.size(); ++b) {
      ASSERT_EQ(classifiers[b].classify(pkt), want)
          << to_string(kAllBackends[b]);
    }
  }
}

TEST(ClassifierBackend, BddBaselineAgreesOnAcceptSet) {
  SynthConfig config;
  config.num_rules = 60;
  Rng rng(713);
  const Policy p = synth_policy(config, rng);
  const Fdd fdd = build_reduced_fdd(p);

  const BitLayout layout = layout_for(p.schema());
  BddManager mgr(layout.total_bits);
  const BddRef accept_set = encode_policy(mgr, layout, p);

  std::vector<Classifier> classifiers;
  for (const ClassifierBackendKind kind : kAllBackends) {
    classifiers.push_back(compile_with(fdd, kind));
  }

  std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
  std::uniform_int_distribution<Value> port(0, 65535);
  std::uniform_int_distribution<Value> proto(0, 255);
  for (int probe = 0; probe < 1000; ++probe) {
    const Packet pkt = {ip(rng), ip(rng), port(rng), port(rng), proto(rng)};
    const bool accepted =
        mgr.evaluate(accept_set, encode_packet(layout, pkt));
    for (std::size_t b = 0; b < classifiers.size(); ++b) {
      ASSERT_EQ(classifiers[b].classify(pkt) == kAccept, accepted)
          << to_string(kAllBackends[b]);
    }
  }
}

TEST(ClassifierBackend, BatchDeterminismAcrossThreadCounts) {
  SynthConfig config;
  config.num_rules = 80;
  Rng rng(714);
  const Policy p = synth_policy(config, rng);
  const Fdd fdd = build_reduced_fdd(p);

  std::vector<Packet> packets;
  std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
  std::uniform_int_distribution<Value> port(0, 65535);
  std::uniform_int_distribution<Value> proto(0, 255);
  for (int i = 0; i < 4000; ++i) {
    packets.push_back({ip(rng), ip(rng), port(rng), port(rng), proto(rng)});
  }

  for (const ClassifierBackendKind kind : kAllBackends) {
    CompileOptions options;
    options.backend = kind;
    options.batch_grain = 64;  // force many chunks even at 8 threads
    const Classifier c = Classifier::compile(fdd, options);

    const std::vector<Decision> serial = c.classify_batch(packets);
    ASSERT_EQ(serial.size(), packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      ASSERT_EQ(serial[i], c.classify(packets[i])) << to_string(kind);
    }
    for (const std::size_t threads : {2u, 8u}) {
      Executor pool(threads);
      RunOptions run;
      run.executor = &pool;
      EXPECT_EQ(c.classify_batch(packets, run), serial)
          << to_string(kind) << " threads=" << threads;
      std::vector<Decision> out(packets.size(), Decision{0xff});
      c.classify_into(packets, out, run);
      EXPECT_EQ(out, serial) << to_string(kind) << " threads=" << threads;
    }
    std::vector<Decision> out(packets.size(), Decision{0xff});
    c.classify_into(packets, out);
    EXPECT_EQ(out, serial) << to_string(kind);
  }
}

TEST(ClassifierBackend, ClassifyIntoValidatesOutputSize) {
  std::mt19937_64 rng(715);
  const Policy p = test::random_policy(tiny2(), 4, rng);
  const Classifier c = Classifier::compile(p);
  const std::vector<Packet> packets = test::all_packets(tiny2());
  std::vector<Decision> short_out(packets.size() - 1);
  EXPECT_THROW(c.classify_into(packets, short_out), std::invalid_argument);
}

TEST(ClassifierBackend, CompilePhaseAndBatchMetricsRecorded) {
  std::mt19937_64 rng(717);
  const Policy p = test::random_policy(tiny3(), 6, rng);
  for (const ClassifierBackendKind kind : kAllBackends) {
    MetricsRegistry metrics;
    CompileOptions options;
    options.backend = kind;
    options.run.obs.metrics = &metrics;
    const Classifier c = Classifier::compile(p, options);
    const std::string phase =
        std::string("phase.") + compile_phase_name(kind) + "_ns";
    EXPECT_EQ(metrics.histogram(phase).count(), 1u) << to_string(kind);

    const std::vector<Packet> packets = test::all_packets(tiny3());
    c.classify_batch(packets);
    c.classify_batch(packets);
    EXPECT_EQ(metrics.counter(names::kClassifierBatchCount).value(), 2u);
    EXPECT_EQ(metrics.counter(names::kClassifierLookupCount).value(),
              2 * packets.size());
    EXPECT_EQ(metrics.histogram(names::kClassifierBatchNs).count(), 2u);
  }
}

}  // namespace
}  // namespace dfw
