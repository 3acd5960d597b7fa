// dfw_perfbench: one run of one workload of the end-to-end benchmark.
//
//   dfw_perfbench --workload <design|fleet_audit|fleet_redundancy|serve>
//                 --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt]
//
// Prints a host calibration line, the workload's notes, and as its last
// line one JSON object {"attempted", "failed", "metrics"}: end-to-end
// metrics when --trace 0, per-layer metrics when --trace 1. run.py builds
// this program, runs it, and checks the metric set against BENCHMARK.json.
// Exit code 0 when the run completed (whether or not its checks passed),
// 2 on bad arguments.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

// A fixed integer kernel (xorshift64), so its time depends on the host
// alone. The 1- and 2-thread times give the host's effective parallelism.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

struct Calibration {
  double one_thread_ms = 0;
  double two_threads_ms = 0;
  double parallelism = 0;
  double reference_ms = 0;  // HostReference kernel, median of kRepeats
};

// Keeps the kernel's results live.
volatile std::uint64_t g_sink = 0;

Calibration calibrate() {
  constexpr std::uint64_t kIterations = 60'000'000;
  constexpr int kRepeats = 3;
  std::uint64_t sink[2] = {1, 2};
  std::vector<double> one;
  std::vector<double> two;
  HostReference reference;
  for (int r = 0; r < kRepeats; ++r) {
    reference.sample();
    Clock::time_point t0 = Clock::now();
    sink[0] = spin(kIterations, sink[0] + 1);
    one.push_back(1000.0 * seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    std::thread other([&] { sink[1] = spin(kIterations, sink[1] + 1); });
    sink[0] = spin(kIterations, sink[0] + 3);
    other.join();
    two.push_back(1000.0 * seconds_between(t0, Clock::now()));
  }
  g_sink = sink[0] ^ sink[1];
  Calibration c;
  c.one_thread_ms = median(one);
  c.two_threads_ms = median(two);
  c.parallelism = 2.0 * c.one_thread_ms / c.two_threads_ms;
  c.reference_ms = reference.median_ms();
  return c;
}

void print_metrics(const std::vector<Metric>& metrics) {
  bool first = true;
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: dfw_perfbench --workload <design|fleet_audit|"
               "fleet_redundancy|serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--corrupt]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg == "--corrupt") {
      args.corrupt = true;
    } else {
      return usage();
    }
  }
  void (*workload)(const Args&, Outcome&) = nullptr;
  if (args.workload == "design") {
    workload = run_design;
  } else if (args.workload == "fleet_audit") {
    workload = run_fleet_audit;
  } else if (args.workload == "fleet_redundancy") {
    workload = run_fleet_redundancy;
  } else if (args.workload == "serve") {
    workload = run_serve;
  }
  if (workload == nullptr || !(args.seconds > 0)) {
    return usage();
  }

  const Calibration cal = calibrate();
  std::printf("host calibration: fixed spin kernel %.2f ms on 1 thread, "
              "%.2f ms on 2 threads; effective parallelism %.2f; host "
              "reference kernel %.3f ms\n",
              cal.one_thread_ms, cal.two_threads_ms, cal.parallelism,
              cal.reference_ms);

  Outcome out;
  try {
    workload(args, out);
  } catch (const std::exception& e) {
    out.check(false, std::string("workload threw: ") + e.what());
  }
  if (args.trace) {
    out.per_layer.push_back({"host.spin_ms", cal.one_thread_ms, "ms"});
    out.per_layer.push_back(
        {"host.effective_parallelism", cal.parallelism, "ratio"});
    out.per_layer.push_back({"host.reference_ms", cal.reference_ms, "ms"});
  }
  for (const std::string& note : out.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_metrics(args.trace ? out.per_layer : out.end_to_end);
  std::printf("}}\n");
  return 0;
}
