// Workload `serve`: ServeCores over synthetic policies, each with a ring
// of perturbed successor policies, fed synth_trace packets in 512-packet
// batches. Lookups (reads) beside swaps (writes) exercise engine
// classify, engine compile and the rt epoch/reclaim; fdd compare, lint and
// simplify are idle.
//
// Lookup cost varies with the served policy (coefficient of variation
// about 0.45 from one generated policy to the next), so the run serves
// many tenants, one core each, and spreads every phase evenly over them.
//
// Two phases, one process, so the load is known:
//   (a) closed loop: one thread classifies batches back to back, no swaps
//       — the data plane's throughput;
//   (b) open loop: one thread sends a batch on a fixed schedule (a
//       constant rate well under its capacity), each timed from when it
//       was due, while an operator thread calls swap() on a fixed cadence.
//       The generator's lateness is reported, and the run fails its check
//       when the generator fell behind its schedule.
//
// Set-up generates the inputs from the seed and boots the cores (the
// boot compiles are set-up work).

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "engine/classifier.hpp"
#include "engine/trace.hpp"
#include "fdd/construct.hpp"
#include "fdd/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "serve/serve.hpp"
#include "synth/synth.hpp"

namespace perfbench {
namespace {

using namespace dfw;

struct Sizes {
  std::size_t tenants;  // independent policies, one ServeCore each
  std::size_t rules;    // per policy, catch-all included
  std::size_t ring;     // boot policy plus perturbed successors
  std::size_t batches;  // distinct packet batches per tenant
  double rate_per_s;    // open-loop batch rate
  double swap_period_ms;
};

constexpr Sizes kFull{128, 120, 2, 2, 5000, 200};
constexpr Sizes kTiny{2, 40, 2, 2, 500, 50};
constexpr std::size_t kBatch = 512;
constexpr double kPerturbPercent = 10;
constexpr double kClosedShare = 0.4;  // of the run's seconds; rest is (b)
constexpr std::size_t kChunk = 16;    // closed-loop batches per timing chunk
constexpr std::size_t kSamplesChecked = 24;
constexpr int kSetupRepeats = 5;
// Room for every span of a traced run on one thread (a batch records a
// serve.batch span and an executor chunk span), so the self-time table
// loses nothing to ring wrap-around.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;

struct Tenant {
  std::vector<Policy> ring;
  std::vector<Packet> packets;

  std::span<const Packet> batch(std::size_t i) const {
    const std::size_t n = packets.size() / kBatch;
    return {packets.data() + (i % n) * kBatch, kBatch};
  }
};

Tenant make_tenant(std::uint64_t seed, const Sizes& sizes) {
  Rng rng(seed);
  SynthConfig config;
  config.num_rules = sizes.rules;
  Tenant t;
  t.ring.push_back(synth_policy(config, rng));
  for (std::size_t i = 1; i < sizes.ring; ++i) {
    t.ring.push_back(perturb_policy(t.ring[0], kPerturbPercent, rng));
  }
  t.packets = synth_trace(t.ring[0], sizes.batches * kBatch, rng);
  return t;
}

// A booted core with its long-lived shard (declared after the core, so
// destroyed before it) and the ring policy behind each published version.
struct Served {
  std::unique_ptr<serve::ServeCore> core;
  std::optional<serve::ServeCore::Shard> shard;
  std::map<std::uint64_t, std::size_t> version_policy{{1, 0}};
  std::size_t swaps = 0;
};

std::vector<Served> boot(const std::vector<Tenant>& tenants,
                         const serve::ServeOptions& options) {
  std::vector<Served> served(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    served[t].core =
        std::make_unique<serve::ServeCore>(tenants[t].ring[0], options);
    served[t].shard.emplace(served[t].core->shard());
  }
  return served;
}

struct Sample {
  std::size_t tenant = 0;
  std::size_t batch = 0;
  std::uint64_t version = 0;
  std::vector<Decision> decisions;
};

// Counts every batch and keeps an evenly spread sample of them, checked
// after each phase. When the sample is full, every other entry is dropped
// and the sampling interval doubles, so memory does not grow with the
// batches a run makes.
struct Recorder {
  const std::vector<Tenant>& tenants;
  Outcome& out;
  std::vector<Sample> samples = {};
  std::uint64_t batches = 0;
  std::uint64_t every = 1;

  void record(std::size_t tenant, std::size_t i, serve::BatchResult r) {
    ++batches;
    out.check(r.status == ErrorCode::kOk && r.decisions.size() == kBatch,
              "batch rejected or short");
    if (batches % every != 0) {
      return;
    }
    samples.push_back({tenant, i, r.version, std::move(r.decisions)});
    if (samples.size() == 2 * kSamplesChecked) {
      for (std::size_t j = 0; j < kSamplesChecked; ++j) {
        samples[j] = std::move(samples[2 * j + 1]);
      }
      samples.resize(kSamplesChecked);
      every *= 2;
    }
  }

  // Sampled batches must equal linear first-match against the policy of
  // the version each BatchResult reports.
  void check_samples(const std::vector<Served>& served, bool corrupt) {
    const std::size_t n = std::min(samples.size(), kSamplesChecked);
    for (std::size_t j = 0; j < n; ++j) {
      Sample& s = samples[j * samples.size() / n];
      if (corrupt && j == 0) {
        s.decisions[0] = s.decisions[0] == kAccept ? kDiscard : kAccept;
      }
      const auto& versions = served[s.tenant].version_policy;
      const auto it = versions.find(s.version);
      bool ok = it != versions.end();
      const Tenant& tenant = tenants[s.tenant];
      const std::span<const Packet> packets = tenant.batch(s.batch);
      for (std::size_t p = 0; ok && p < packets.size(); ++p) {
        ok = tenant.ring[it->second].evaluate(packets[p]) == s.decisions[p];
      }
      out.check(ok, "sampled batch of version " + std::to_string(s.version) +
                        " disagrees with linear first-match");
    }
    samples.clear();
    every = 1;
  }
};

struct OpenLoop {
  std::vector<double> batch_us;     // completion minus due time
  std::vector<double> lateness_us;  // send minus due time
  std::vector<double> service_ms;   // send to completion
  std::vector<double> swap_ms;
  std::size_t swaps_failed = 0;
  std::size_t late = 0;  // batches sent more than one period late
};

// Phase (b). Batch k goes to tenant k mod n; the operator thread swaps
// the tenants in turn, each to the next policy of its ring.
OpenLoop open_loop(std::vector<Served>& served, Recorder& rec,
                   const Sizes& sizes, double seconds, Tracer* tracer) {
  OpenLoop result;
  const auto period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / sizes.rate_per_s));
  const auto swap_period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(sizes.swap_period_ms * 1e6));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point end =
      start +
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  const std::size_t n = served.size();

  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;  // guarded by mu
  // (tenant, version, ring index) of each successful swap; merged into
  // the tenants' version maps after the join.
  std::vector<std::tuple<std::size_t, std::uint64_t, std::size_t>> published;
  std::thread operator_thread([&] {
    std::size_t j = 0;
    for (Clock::time_point due = start + swap_period;; due += swap_period) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (cv.wait_until(lock, due, [&] { return stop; })) {
          return;
        }
      }
      const std::size_t t = j++ % n;
      const std::size_t index = ++served[t].swaps % sizes.ring;
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      try {
        ScopedSpan span(tracer, "serve.swap_call");
        const Result<std::uint64_t> r =
            served[t].core->swap(rec.tenants[t].ring[index]);
        ok = r.ok();
        if (ok) {
          published.emplace_back(t, r.value(), index);
        }
      } catch (const std::exception&) {
        ok = false;
      }
      result.swap_ms.push_back(1000.0 * seconds_between(t0, Clock::now()));
      result.swaps_failed += ok ? 0 : 1;
      due = std::max(due, Clock::now() - swap_period);
    }
  });

  {
    // Stops and joins the operator thread when this scope ends, on the
    // exception path too.
    struct Join {
      std::mutex& mu;
      std::condition_variable& cv;
      bool& stop;
      std::thread& thread;
      ~Join() {
        {
          std::lock_guard<std::mutex> lock(mu);
          stop = true;
        }
        cv.notify_all();
        thread.join();
      }
    } join{mu, cv, stop, operator_thread};

    // Timer slack would otherwise add tens of microseconds to every
    // wake-up and show as generator lateness.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t k = 0;; ++k) {
      const Clock::time_point due = start + k * period;
      if (due >= end) {
        break;
      }
      std::this_thread::sleep_until(due);
      const std::size_t t = k % n;
      const Clock::time_point sent = Clock::now();
      serve::BatchResult r =
          served[t].shard->classify(rec.tenants[t].batch(k / n));
      const Clock::time_point done = Clock::now();
      rec.record(t, k / n, std::move(r));
      result.batch_us.push_back(1e6 * seconds_between(due, done));
      result.lateness_us.push_back(1e6 * seconds_between(due, sent));
      result.service_ms.push_back(1000.0 * seconds_between(sent, done));
      result.late += sent - due > period ? 1 : 0;
    }
  }
  for (const auto& [t, version, index] : published) {
    served[t].version_policy[version] = index;
  }
  for (std::size_t j = 0; j < result.swap_ms.size(); ++j) {
    rec.out.check(j >= result.swaps_failed, "swap failed");
  }
  return result;
}

double hist_sum(const MetricsSnapshot& snap, const std::string& name,
                double* count) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end()) {
    *count = 0;
    return 0;
  }
  *count = static_cast<double>(it->second.count);
  return static_cast<double>(it->second.sum);
}

}  // namespace

void run_serve(const Args& args, Outcome& out) {
  const Sizes& sizes = args.tiny ? kTiny : kFull;

  HostReference setup_reference;
  std::vector<double> setup_s;
  std::vector<Tenant> tenants;
  std::vector<Served> plain;
  for (int r = 0; r < kSetupRepeats; ++r) {
    plain.clear();
    tenants.clear();
    setup_reference.sample();
    const double t0 = cpu_ms();
    for (std::size_t t = 0; t < sizes.tenants; ++t) {
      tenants.push_back(make_tenant(mix_seed(args.seed, t), sizes));
    }
    plain = boot(tenants, serve::ServeOptions{});
    setup_s.push_back((cpu_ms() - t0) / 1000.0);
  }
  // A traced run boots a second, traced core per tenant, and compiles the
  // bare engine for the same policies.
  MetricsRegistry registry;
  Tracer tracer(kTraceCapacity);
  std::vector<Served> traced;
  std::vector<Classifier> engines;
  if (args.trace) {
    serve::ServeOptions options;
    options.run.obs.tracer = &tracer;
    options.run.obs.metrics = &registry;
    traced = boot(tenants, options);
    for (const Tenant& t : tenants) {
      engines.push_back(Classifier::compile(t.ring[0]));
    }
  }

  const std::uint64_t measured_from_ns = tracer.now_ns();  // after boot

  // (a) Closed loop, in chunks that visit every tenant in turn. Traced
  // runs give each tenant a chunk on the plain core, one on the traced
  // core and one on the bare engine, over the same batches; the order
  // rotates from round to round, so no kind always finds the tenant's
  // data cold.
  Recorder rec{tenants, out};
  HostReference reference;  // sampled between closed-loop chunks
  const std::size_t kinds = args.trace ? 3 : 1;
  const std::size_t round = kinds * tenants.size();
  double chunk_ms[3] = {0, 0, 0};  // plain, traced, engine
  std::uint64_t chunk_batches[3] = {0, 0, 0};
  std::vector<double> plain_chunk_cpu_ms;  // lookups/s is CPU-time based
  std::vector<Decision> engine_out(kBatch);
  double spent = 0;
  for (std::size_t c = 0;
       spent < args.seconds * kClosedShare || c % round != 0; ++c) {
    reference.sample_every(1000.0 * spent);
    const std::size_t kind = (c + c / round) % kinds;
    const std::size_t t = (c / kinds) % tenants.size();
    const std::size_t first = (c / round) * kChunk;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_ms();
    for (std::size_t i = first; i < first + kChunk; ++i) {
      if (kind == 2) {
        engines[t].classify_into(tenants[t].batch(i), engine_out);
      } else {
        Served& s = kind == 0 ? plain[t] : traced[t];
        rec.record(t, i, s.shard->classify(tenants[t].batch(i)));
      }
    }
    const double ms = 1000.0 * seconds_between(t0, Clock::now());
    chunk_ms[kind] += ms;
    chunk_batches[kind] += kChunk;
    if (kind == 0) {
      plain_chunk_cpu_ms.push_back(cpu_ms() - cpu0);
    }
    spent += ms / 1000.0;
  }
  rec.check_samples(plain, args.corrupt);
  const double capacity =
      1000.0 * static_cast<double>(chunk_batches[0]) / chunk_ms[0];

  // (b) Open loop with swaps.
  std::vector<Served>& served = args.trace ? traced : plain;
  const OpenLoop ol = open_loop(served, rec, sizes,
                                args.seconds * (1 - kClosedShare),
                                args.trace ? &tracer : nullptr);
  rec.check_samples(served, false);
  std::uint64_t limbo_peak = 0;
  std::uint64_t reclaimed = 0;
  for (const Served& s : served) {
    const serve::ServeStats stats = s.core->stats();
    limbo_peak = std::max(limbo_peak, stats.limbo_peak);
    reclaimed += stats.reclaimed;
  }
  // A stall (a swap's compile holding the CPU) may delay a few batches;
  // falling behind the schedule means the backlog did not drain within a
  // swap period.
  const double max_late_us =
      ol.lateness_us.empty()
          ? 0
          : *std::max_element(ol.lateness_us.begin(), ol.lateness_us.end());
  const bool valid = max_late_us < sizes.swap_period_ms * 1000.0;
  out.check(valid, "open-loop generator fell behind its schedule");

  char line[400];
  std::snprintf(
      line, sizeof line,
      "serve: %zu tenants x %zu rules, %zu-policy rings, %zu-packet batches; "
      "closed loop %.0f batches/s; open loop %.0f batches/s (%.0f%% of "
      "capacity), %zu batches, batch p50 %.1f us p99 %.1f us; %zu swaps every "
      "%.0f ms, swap p50 %.2f ms p90 %.2f ms; generator lateness p99 %.1f us "
      "max %.1f us, %zu batches over one period late: %s",
      tenants.size(), sizes.rules, sizes.ring, kBatch, capacity,
      sizes.rate_per_s, 100.0 * sizes.rate_per_s / capacity,
      ol.batch_us.size(), quantile(ol.batch_us, 0.5),
      quantile(ol.batch_us, 0.99), ol.swap_ms.size(), sizes.swap_period_ms,
      quantile(ol.swap_ms, 0.5), quantile(ol.swap_ms, 0.9),
      quantile(ol.lateness_us, 0.99), max_late_us, ol.late,
      valid ? "valid" : "INVALID (fell behind)");
  out.note(line);

  if (!args.trace) {
    report_end_to_end(
        setup_reference, median(setup_s), reference,
        mean_rate(plain_chunk_cpu_ms, static_cast<double>(kChunk * kBatch)),
        quantile(ol.batch_us, 0.5) / 1000.0, out);
    return;
  }

  const MetricsSnapshot snap = registry.snapshot();
  double compiles = 0;
  double swaps = 0;
  const double compile_ns =
      hist_sum(snap, names::kServeSwapCompileNs, &compiles);
  const double swap_ns = hist_sum(
      snap, std::string("phase.") + names::kSpanServeSwap + "_ns", &swaps);
  double fdd_nodes = 0;
  double fdd_paths = 0;
  for (const Tenant& t : tenants) {
    const FddStats stats = compute_stats(build_reduced_fdd(t.ring[0]));
    fdd_nodes += static_cast<double>(stats.nodes);
    fdd_paths += static_cast<double>(stats.paths);
  }
  const double n = static_cast<double>(tenants.size());
  const double per_plain =
      chunk_ms[0] * 1e6 / static_cast<double>(chunk_batches[0]);
  const double per_engine =
      chunk_ms[2] * 1e6 / static_cast<double>(chunk_batches[2]);
  out.per_layer = {
      {"engine.compile_ms", compile_ns / 1e6 / std::max(compiles, 1.0), "ms"},
      {"engine.ns_per_lookup", per_engine / kBatch, "ns"},
      {"engine.fdd_nodes", fdd_nodes / n, "count"},
      {"engine.fdd_paths", fdd_paths / n, "count"},
      {"serve.batch_overhead_ns", per_plain - per_engine, "ns"},
      {"serve.swap_publish_ms",
       (swap_ns - compile_ns) / 1e6 / std::max(swaps, 1.0), "ms"},
      {"serve.limbo_peak", static_cast<double>(limbo_peak), "count"},
      {"serve.reclaim_count", static_cast<double>(reclaimed), "count"},
      {"serve.batch_us_p50", quantile(ol.batch_us, 0.5), "us"},
      {"serve.batch_us_p99", quantile(ol.batch_us, 0.99), "us"},
      {"serve.swap_ms_p50", quantile(ol.swap_ms, 0.5), "ms"},
      {"serve.swap_ms_p90", quantile(ol.swap_ms, 0.9), "ms"},
      {"serve.lateness_us_p99", quantile(ol.lateness_us, 0.99), "us"},
      {"serve.lateness_us_max", max_late_us, "us"},
      {"obs.trace_overhead_pct", 100.0 * (chunk_ms[1] / chunk_ms[0] - 1), "%"},
  };
  SpanTable spans;
  const std::uint64_t dropped = spans.add(tracer, measured_from_ns);
  std::snprintf(line, sizeof line,
                "engine.fdd_nodes/paths are per tenant; serve self time "
                "includes engine classify (no span inside the batch; "
                "engine.ns_per_lookup times it from outside); trace events "
                "lost: %llu",
                static_cast<unsigned long long>(dropped));
  out.note(line);
  const double traced_batches = static_cast<double>(chunk_batches[1]) +
                                static_cast<double>(ol.batch_us.size());
  report_self_time(spans, chunk_ms[1] + sum(ol.service_ms) + sum(ol.swap_ms),
                   traced_batches, "batch", out);
}

}  // namespace perfbench
