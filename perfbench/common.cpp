#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "obs/json.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the log readable when a systematic fault fails every operation.
    if (failed <= 10) {
      notes.push_back("CHECK FAILED: " + what);
    }
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over the pair.
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

double mean_rate(const std::vector<double>& unit_ms,
                 double work_per_unit) {
  const double total = sum(unit_ms);
  return total > 0 ? 1000.0 * static_cast<double>(unit_ms.size()) *
                         work_per_unit / total
                   : 0;
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1000.0 * static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace {

volatile std::uint64_t g_reference_sink = 0;  // keeps the kernel's result live

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// The reference kernel's data, built once per process and never timed:
// the timed kernel allocates nothing, so it never pays for memory a
// workload freed just before it.
struct ReferenceData {
  std::map<std::string, std::uint64_t> words;  // about 2 MB of tree nodes
  std::vector<std::string> queries;            // every key, shuffled; a
                                               // sample looks up every other
  std::vector<std::uint64_t> source;           // pseudo-random words, 400 KB
  std::vector<std::uint64_t> scratch;          // sorted in place
};

ReferenceData& reference_data() {
  static ReferenceData data = [] {
    ReferenceData d;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000; ++i) {
      d.queries.push_back("reference-key-" + std::to_string(xorshift(x)));
      d.words[d.queries.back()] = x;
    }
    for (std::size_t i = d.queries.size() - 1; i > 0; --i) {
      std::swap(d.queries[i], d.queries[xorshift(x) % (i + 1)]);
    }
    d.source.resize(50000);
    for (std::uint64_t& w : d.source) {
      w = xorshift(x);
    }
    d.scratch.resize(d.source.size());
    return d;
  }();
  return data;
}

}  // namespace

void HostReference::sample() {
  ReferenceData& d = reference_data();
  const double t0 = cpu_ms();
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < d.queries.size(); i += 2) {
    sum += d.words.find(d.queries[i])->second;
  }
  std::copy(d.source.begin(), d.source.end(), d.scratch.begin());
  std::sort(d.scratch.begin(), d.scratch.end());
  g_reference_sink = sum + d.scratch[d.scratch.size() / 2];
  samples_ms_.push_back(cpu_ms() - t0);
}

void HostReference::sample_every(double measured_ms) {
  if (measured_ms >= next_ms_) {
    sample();
    next_ms_ = measured_ms + 250;
  }
}

double HostReference::slowdown() const {
  return samples_ms_.empty() ? 1 : median_ms() / kNominalMs;
}

void report_end_to_end(const HostReference& setup_reference, double setup_s,
                       const HostReference& reference, double rate_per_s,
                       double latency_ms, Outcome& out) {
  const double setup_slowdown = setup_reference.slowdown();
  const double slowdown = reference.slowdown();
  out.end_to_end = {
      {"setup_s", setup_s / setup_slowdown, "s"},
      {"host_adj.throughput_per_s", rate_per_s * slowdown, "1/s"},
      {"host_adj.latency_ms_p50", latency_ms / slowdown, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  char line[400];
  std::snprintf(line, sizeof line,
                "measured: setup %.4f s, throughput %.6g/s, latency p50 "
                "%.4f ms; host reference kernel (nominal %.0f ms) %.3f ms "
                "over %zu set-up samples, %.3f ms over %zu run samples: "
                "slowdown %.3f in set-up, %.3f in the run, by which the "
                "end-to-end times are divided and the rate multiplied",
                setup_s, rate_per_s, latency_ms, HostReference::kNominalMs,
                setup_reference.median_ms(), setup_reference.samples(),
                reference.median_ms(), reference.samples(), setup_slowdown,
                slowdown);
  out.note(line);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

// The layers the self-time table reports, in print order.
const std::vector<std::string>& known_layers() {
  static const std::vector<std::string> layers = {
      "diverse", "fdd", "gen", "simplify", "lint", "fleet", "engine",
      "serve"};
  return layers;
}

// The library's unprefixed phase names, by the layer that emits them.
// dead_rules and anomaly_pairs are absent on purpose: both simplify and
// lint call those scans, so they take their caller's layer.
std::optional<std::string> fixed_layer(std::string_view name) {
  static const std::map<std::string, std::string, std::less<>> table = {
      {"build_reduced_fdd", "fdd"}, {"reduce", "fdd"},
      {"construct", "fdd"},         {"validate", "fdd"},
      {"shape", "fdd"},             {"compare", "fdd"},
      {"generate", "gen"},          {"lint", "lint"},
      {"adapter", "lint"},          {"syntax-pairs", "lint"},
      {"coverage", "lint"},         {"dead-rules", "lint"},
      {"merge", "lint"},            {"redundancy", "lint"},
      {"properties", "lint"},       {"simplify", "simplify"},
  };
  if (const auto it = table.find(name); it != table.end()) {
    return it->second;
  }
  const std::size_t dot = name.find('.');
  if (dot == std::string_view::npos) {
    return std::nullopt;
  }
  const std::string_view prefix = name.substr(0, dot);
  if (prefix == "workflow") {
    return "diverse";
  }
  if (prefix == "classifier") {
    return "engine";
  }
  for (const std::string& layer : known_layers()) {
    if (prefix == layer) {
      return layer;
    }
  }
  return std::nullopt;
}

double number_of(const dfw::json::Value& event, std::string_view key) {
  const dfw::json::Value* v = event.find(key);
  return v != nullptr && v->is_number() ? v->number : 0;
}

}  // namespace

std::uint64_t SpanTable::add(const dfw::Tracer& tracer,
                             std::uint64_t since_ns) {
  const std::string text = tracer.chrome_trace_json();
  // One event per line; parse them one at a time so a large trace never
  // becomes one large document tree.
  // tid -> index of the open span at each depth
  std::map<std::uint32_t, std::vector<std::size_t>> open;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (!line.starts_with("{\"name\"")) {
      continue;
    }
    if (line.ends_with(',')) {
      line.remove_suffix(1);
    }
    const std::optional<dfw::json::Value> event =
        dfw::json::parse(line, nullptr);
    if (!event) {
      continue;
    }
    if (number_of(*event, "ts") * 1000.0 < static_cast<double>(since_ns)) {
      continue;
    }
    const dfw::json::Value* name = event->find("name");
    const dfw::json::Value* args = event->find("args");
    const auto tid = static_cast<std::uint32_t>(number_of(*event, "tid"));
    const auto depth = static_cast<std::size_t>(
        args != nullptr ? number_of(*args, "depth") : 0);

    Span span;
    span.name = name != nullptr ? name->string : "?";
    span.dur_ms = number_of(*event, "dur") / 1000.0;
    span.self_ms = span.dur_ms;
    std::vector<std::size_t>& stack = open[tid];
    // A parent lost to ring wrap-around leaves the span a root.
    span.parent = depth > 0 && depth <= stack.size() ? stack[depth - 1]
                                                      : kNoParent;
    if (span.parent != kNoParent) {
      spans_[span.parent].self_ms -= span.dur_ms;
    }
    const std::optional<std::string> fixed = fixed_layer(span.name);
    span.layer = fixed                        ? *fixed
                 : span.parent != kNoParent ? spans_[span.parent].layer
                                            : "other";
    stack.resize(depth);
    stack.push_back(spans_.size());
    spans_.push_back(std::move(span));
  }
  return tracer.dropped();
}

bool SpanTable::has_ancestor(const Span& s, std::string_view name) const {
  for (std::size_t p = s.parent; p != kNoParent; p = spans_[p].parent) {
    if (spans_[p].name == name) {
      return true;
    }
  }
  return false;
}

bool SpanTable::counts(const Span& s, std::string_view name,
                       std::string_view under) const {
  return s.name == name && !has_ancestor(s, name) &&
         (under.empty() || has_ancestor(s, under));
}

double SpanTable::total_ms(std::string_view name,
                           std::string_view under) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (counts(s, name, under)) {
      total += s.dur_ms;
    }
  }
  return total;
}

std::size_t SpanTable::count(std::string_view name,
                             std::string_view under) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    n += counts(s, name, under) ? 1 : 0;
  }
  return n;
}

std::map<std::string, double> SpanTable::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.layer] += s.self_ms;
  }
  return out;
}

double SpanTable::covered_ms() const {
  double total = 0;
  for (const Span& s : spans_) {
    total += s.parent == kNoParent ? s.dur_ms : 0;
  }
  return total;
}

void report_self_time(const SpanTable& table, double wall_ms, double units,
                      const std::string& unit_name, Outcome& out) {
  const std::map<std::string, double> self = table.self_ms_by_layer();
  const double per = units > 0 ? units : 1;
  const double share_base = wall_ms > 0 ? wall_ms : 1;
  char line[160];
  std::snprintf(line, sizeof line,
                "self time by layer over %.0f traced units (%s), ms per unit "
                "and share of traced wall time (%.4f ms per unit):",
                units, unit_name.c_str(), wall_ms / per);
  out.note(line);
  std::vector<std::string> rows = known_layers();
  rows.push_back("other");  // spans no layer claims; printed, not a metric
  for (const std::string& layer : rows) {
    const auto it = self.find(layer);
    const double ms = it != self.end() ? it->second : 0;
    if (layer != "other") {
      out.per_layer.push_back(
          {layer + ".self_pct", 100.0 * ms / share_base, "%"});
    }
    if (ms > 0) {
      std::snprintf(line, sizeof line, "  %-10s %12.4f ms %7.2f%%",
                    layer.c_str(), ms / per, 100.0 * ms / share_base);
      out.note(line);
    }
  }
  const double covered = table.covered_ms();
  std::snprintf(line, sizeof line, "  %-10s %12.4f ms %7.2f%%",
                "no span", std::max(0.0, wall_ms - covered) / per,
                100.0 * std::max(0.0, wall_ms - covered) / share_base);
  out.note(line);
  out.per_layer.push_back(
      {"obs.span_coverage_pct", 100.0 * covered / share_base, "%"});
}

}  // namespace perfbench
