#include "serve/serve.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fdd/construct.hpp"
#include "fw/decision.hpp"
#include "obs/names.hpp"
#include "obs/obs.hpp"
#include "rt/fault.hpp"
#include "serve/snapshot.hpp"

namespace dfw::serve {
namespace {

/// Same mix as rt/fault.cpp's trigger stream — good avalanche from a
/// cheap constant footprint; here it decorrelates retry backoff jitter.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::unique_ptr<PolicyVersion> compile_version(Policy policy,
                                               std::uint64_t sequence,
                                               RunContext* context,
                                               const ServeOptions& options) {
  // The FDD is built once and kept on the version: the classifier
  // compiles from it here, and snapshot_text() serializes it later
  // without recompute.
  ConstructOptions construct;
  construct.run.context = context;
  construct.run.obs = options.run.obs;
  construct.run.faults = options.run.faults;
  Fdd fdd = build_reduced_fdd(policy, construct);
  CompileOptions compile;
  compile.run.executor = options.run.executor;
  compile.run.context = context;
  compile.run.obs = options.run.obs;
  compile.run.faults = options.run.faults;
  compile.batch_grain = options.batch_grain;
  compile.backend = options.backend;
  Classifier classifier = Classifier::compile(fdd, compile);
  if (options.run.obs.metrics != nullptr) {
    options.run.obs.metrics
        ->counter(serve_backend_counter_name(options.backend))
        .add();
  }
  return std::make_unique<PolicyVersion>(sequence, std::move(policy),
                                         std::move(fdd),
                                         std::move(classifier));
}

std::unique_ptr<PolicyVersion> boot_version(Policy initial,
                                            const ServeOptions& options) {
  return compile_version(std::move(initial), 1, nullptr, options);
}

std::unique_ptr<PolicyVersion> restored_version(
    snapshot::SnapshotData restored, const ServeOptions& options) {
  // The snapshot carries the reduced FDD; compiling from it (not from
  // the policy text) skips reconstruction and reproduces the pre-crash
  // classifier exactly.
  CompileOptions compile;
  compile.run.executor = options.run.executor;
  compile.run.obs = options.run.obs;
  compile.run.faults = options.run.faults;
  compile.batch_grain = options.batch_grain;
  compile.backend = restored.backend;
  Classifier classifier = Classifier::compile(restored.fdd, compile);
  if (options.run.obs.metrics != nullptr) {
    options.run.obs.metrics
        ->counter(serve_backend_counter_name(restored.backend))
        .add();
  }
  return std::make_unique<PolicyVersion>(
      restored.sequence, std::move(restored.policy),
      std::move(restored.fdd), std::move(classifier));
}

/// Worth another attempt: the cause can vanish on retry. Capacity and
/// budget breaches and validation errors are deterministic — retrying
/// them burns the backoff schedule for nothing.
bool is_transient(ErrorCode code) {
  return code == ErrorCode::kFaultInjected ||
         code == ErrorCode::kDeadlineExceeded;
}

}  // namespace

ServeCore::ServeCore(Policy initial, ServeOptions options)
    : options_(std::move(options)),
      handle_(domain_, boot_version(std::move(initial), options_)) {
  served_backend_.store(options_.backend, std::memory_order_relaxed);
  start_reporter();
}

ServeCore::ServeCore(snapshot::SnapshotData restored, ServeOptions options)
    : options_(std::move(options)),
      handle_(domain_, restored_version(std::move(restored), options_)) {
  next_sequence_ = handle_.current_sequence() + 1;
  served_backend_.store(handle_.current_unpinned().classifier.backend(),
                        std::memory_order_relaxed);
  start_reporter();
}

ServeCore::~ServeCore() {
  // The reporter quiesces first: once joined, no tick can touch the
  // handle or the window while teardown proceeds.
  stop_reporter();
  // Readers are gone (Shards must not outlive the core); drain limbo so
  // retire/reclaim bookkeeping balances before the handle frees current.
  handle_.reclaim();
}

ServeCore::Shard::Shard(ServeCore& core)
    : core_(&core), registration_(core.domain_) {
  if (!registration_.valid()) {
    throw std::runtime_error("ServeCore: epoch domain out of reader slots");
  }
}

BatchResult ServeCore::Shard::classify(std::span<const Packet> packets) {
  return core_->classify_pinned(packets, registration_.slot());
}

BatchResult ServeCore::classify_batch(std::span<const Packet> packets) {
  Shard temporary(*this);
  return temporary.classify(packets);
}

BatchResult ServeCore::classify_pinned(std::span<const Packet> packets,
                                       std::size_t slot) {
  BatchResult result;
  // Admission first: a refused batch never pins a version, so overload
  // cannot extend any retired version's lifetime.
  const std::uint64_t admitted =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.max_inflight_batches != 0 &&
      admitted > options_.max_inflight_batches) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    batches_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (options_.run.obs.metrics != nullptr) {
      options_.run.obs.metrics->counter(names::kServeBatchRejected).add();
    }
    result.status = ErrorCode::kOverloaded;
    return result;
  }
  {
    // Trace span only: the duration histogram is the canonical
    // kServeBatchNs recorded below — a PhaseSpan here would duplicate
    // the same samples as phase.serve.batch_ns.
    ScopedSpan span(options_.run.obs.tracer, names::kSpanServeBatch);
    const auto start = std::chrono::steady_clock::now();
    // The pin is held across the whole batch, parallel_for join
    // included: pool workers classify under the submitting thread's
    // epoch slot and need none of their own.
    PolicyHandle::Pin pin = handle_.pin(slot);
    result.version = pin.version().sequence;
    RunOptions batch_run;
    batch_run.executor = options_.run.executor;
    batch_run.obs = options_.run.obs;
    result.decisions = pin.version().classifier.classify_batch(packets,
                                                               batch_run);
    if (options_.run.obs.metrics != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start;
      options_.run.obs.metrics->histogram(names::kServeBatchNs)
          .record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
      options_.run.obs.metrics->counter(names::kServeBatchCount).add();
      options_.run.obs.metrics->counter(names::kServeLookupCount)
          .add(packets.size());
    }
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  lookups_.fetch_add(packets.size(), std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  return result;
}

Result<std::uint64_t> ServeCore::swap(const Policy& next) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  PhaseSpan span(options_.run.obs, names::kSpanServeSwap);
  MetricsRegistry* metrics = options_.run.obs.metrics;
  std::size_t retries = 0;

  const auto fail = [&](const Error& error) {
    swaps_rejected_.fetch_add(1, std::memory_order_relaxed);
    swap_failed_.fetch_add(1, std::memory_order_relaxed);
    last_swap_ok_.store(false, std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->counter(names::kServeSwapRejected).add();
      metrics->counter(names::kServeSwapFailed).add();
    }
    return Result<std::uint64_t>::failure(error);
  };

  const auto backoff = [&](std::size_t attempt) {
    std::uint64_t delay = options_.swap_backoff_initial_ms;
    for (std::size_t i = 1;
         i < attempt && delay < options_.swap_backoff_max_ms; ++i) {
      delay <<= 1;
    }
    delay = std::min(delay, options_.swap_backoff_max_ms);
    // Deterministic jitter in [0, delay/2]: reproducible in tests,
    // decorrelated across daemons seeded differently.
    const std::uint64_t jitter =
        delay == 0
            ? 0
            : splitmix64(options_.swap_jitter_seed ^ attempt) %
                  (delay / 2 + 1);
    if (delay + jitter != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay + jitter));
    }
  };

  for (;;) {
    // Governance is re-armed per attempt: a deadline that lapsed during
    // a faulted attempt must not doom its retry.
    RunContext::Config config;
    config.budgets = options_.swap_budgets;
    if (options_.swap_deadline_ms > 0) {
      config.deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.swap_deadline_ms);
    }
    RunContext context(std::move(config));
    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<PolicyVersion> version;
    try {
      fault::hit(options_.run.faults, fault::sites::kSwapCompile);
      version = compile_version(next, next_sequence_, &context, options_);
      if (metrics != nullptr) {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        metrics->histogram(names::kServeSwapCompileNs)
            .record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()));
      }
      fault::hit(options_.run.faults, fault::sites::kSwapPublish);
    } catch (const Error& error) {
      // Last-good guarantee, eagerly: whatever this attempt compiled is
      // freed right here — before any backoff sleep, never parked in
      // limbo — and the served version is untouched.
      version.reset();
      if (is_transient(error.code()) &&
          retries < options_.swap_max_retries) {
        ++retries;
        swap_retries_.fetch_add(1, std::memory_order_relaxed);
        if (metrics != nullptr) {
          metrics->counter(names::kServeSwapRetries).add();
        }
        backoff(retries);
        continue;
      }
      return fail(error);
    } catch (const std::bad_alloc&) {
      version.reset();
      if (retries < options_.swap_max_retries) {
        ++retries;
        swap_retries_.fetch_add(1, std::memory_order_relaxed);
        if (metrics != nullptr) {
          metrics->counter(names::kServeSwapRetries).add();
        }
        backoff(retries);
        continue;
      }
      return fail(
          Error(ErrorCode::kInternal, "allocation failed compiling swap"));
    } catch (const std::logic_error& error) {
      // validate() rejects a non-comprehensive replacement —
      // deterministic, so no retry; keep serving.
      version.reset();
      return fail(Error(ErrorCode::kInvalidInput, error.what()));
    }

    const std::uint64_t sequence = next_sequence_++;
    handle_.publish(std::move(version));
    swaps_.fetch_add(1, std::memory_order_relaxed);
    served_backend_.store(options_.backend, std::memory_order_relaxed);
    last_swap_ok_.store(true, std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->counter(names::kServeSwapCount).add();
      metrics->counter(names::kServeRetireCount).add();
    }
    const std::size_t freed = handle_.reclaim();
    if (freed != 0 && metrics != nullptr) {
      metrics->counter(names::kServeReclaimCount).add(freed);
    }
    return Result<std::uint64_t>::success(sequence);
  }
}

std::size_t ServeCore::reclaim() {
  const std::size_t freed = handle_.reclaim();
  if (freed != 0 && options_.run.obs.metrics != nullptr) {
    options_.run.obs.metrics->counter(names::kServeReclaimCount).add(freed);
  }
  return freed;
}

ServeStats ServeCore::stats() const {
  ServeStats s;
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.swaps_rejected = swaps_rejected_.load(std::memory_order_relaxed);
  s.swap_retries = swap_retries_.load(std::memory_order_relaxed);
  s.swap_failed = swap_failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batches_rejected = batches_rejected_.load(std::memory_order_relaxed);
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.retired = handle_.retired_total();
  s.reclaimed = handle_.reclaimed_total();
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.limbo = handle_.limbo_size();
  s.limbo_peak = handle_.limbo_peak();
  return s;
}

ServeHealth ServeCore::health() const {
  ServeHealth h;
  h.sequence = handle_.current_sequence();
  h.backend = served_backend_.load(std::memory_order_relaxed);
  h.last_swap_ok = last_swap_ok_.load(std::memory_order_relaxed);
  h.stats = stats();
  return h;
}

TelemetryRecord ServeCore::telemetry_now() const {
  TelemetryRecord record;
  record.tick = telemetry_ticks_.load(std::memory_order_relaxed);
  record.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - boot_time_)
          .count());
  if (options_.run.obs.metrics != nullptr) {
    record.metrics = options_.run.obs.metrics->snapshot();
  }
  if (options_.run.faults != nullptr) {
    // Overlay, not absorb: telemetry is point-in-time, and re-adding a
    // live plan's counters every tick would double-count them.
    overlay(record.metrics, *options_.run.faults);
  }
  record.health = health();
  return record;
}

std::vector<TelemetryRecord> ServeCore::telemetry_window() const {
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  return {window_.begin(), window_.end()};
}

void ServeCore::start_reporter() {
  if (options_.telemetry_interval_ms == 0) {
    return;
  }
  reporter_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(options_.telemetry_interval_ms);
    std::unique_lock<std::mutex> lock(telemetry_mu_);
    while (!telemetry_stop_) {
      if (telemetry_cv_.wait_for(lock, interval,
                                 [this] { return telemetry_stop_; })) {
        return;
      }
      lock.unlock();
      reporter_tick();
      lock.lock();
    }
  });
}

void ServeCore::stop_reporter() {
  if (!reporter_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    telemetry_stop_ = true;
  }
  telemetry_cv_.notify_all();
  reporter_.join();
}

void ServeCore::reporter_tick() {
  // The tick counter is bumped before the snapshot so the record it
  // produces already carries this tick in serve.telemetry.tick.count.
  if (options_.run.obs.metrics != nullptr) {
    options_.run.obs.metrics->counter(names::kServeTelemetryTicks).add();
  }
  TelemetryRecord record = telemetry_now();
  record.tick = telemetry_ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    window_.push_back(record);
    if (options_.telemetry_window != 0) {
      while (window_.size() > options_.telemetry_window) {
        window_.pop_front();
      }
    }
  }
  if (options_.on_telemetry) {
    try {
      options_.on_telemetry(record);
    } catch (...) {
      // A throwing sink must not take the reporter (or the core) down.
    }
  }
}

std::string ServeCore::snapshot_text() {
  // The swap mutex excludes publication, so the unpinned current version
  // is stable for the whole serialization — the snapshot is always one
  // published version, never a blend.
  std::lock_guard<std::mutex> lock(swap_mu_);
  const PolicyVersion& version = handle_.current_unpinned();
  const std::string text = snapshot::encode(
      version.sequence, version.classifier.backend(), version.policy,
      version.fdd, default_decisions(), options_.run.faults);
  if (options_.run.obs.metrics != nullptr) {
    options_.run.obs.metrics->counter(names::kServeSnapshotSave).add();
  }
  return text;
}

std::string ServeHealth::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"dfw-serve-health-v1\""
      << ",\"sequence\":" << sequence
      << ",\"backend\":\"" << to_string(backend) << '"'
      << ",\"last_swap_ok\":" << (last_swap_ok ? "true" : "false")
      << ",\"swaps\":" << stats.swaps
      << ",\"swaps_rejected\":" << stats.swaps_rejected
      << ",\"swap_retries\":" << stats.swap_retries
      << ",\"swap_failed\":" << stats.swap_failed
      << ",\"batches\":" << stats.batches
      << ",\"batches_rejected\":" << stats.batches_rejected
      << ",\"lookups\":" << stats.lookups
      << ",\"retired\":" << stats.retired
      << ",\"reclaimed\":" << stats.reclaimed
      << ",\"inflight\":" << stats.inflight
      << ",\"limbo\":" << stats.limbo
      << ",\"limbo_peak\":" << stats.limbo_peak << '}';
  return out.str();
}

}  // namespace dfw::serve
