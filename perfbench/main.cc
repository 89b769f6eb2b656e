// perfbench: runs one workload and prints its report.
//
//   perfbench --workload <conv_api_mesh|train_dp|serve_open_loop>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Output: human-readable lines, one "ENV {...}" line, and as the last
// line "RESULT {...}" with the counters and raw metric values. run.py
// attaches units from BENCHMARK.json and prints the contract's line.
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"
#include "src/runtime/task_pool.h"

namespace {

std::string load_average() {
  std::ifstream f("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  f >> one >> five >> fifteen;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", one, five, fifteen);
  return buf;
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double steal = 0, total = 0, v = 0;
  for (int field = 0; field < 8 && f >> v; ++field) {
    total += v;
    if (field == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <conv_api_mesh|train_dp|"
               "serve_open_loop> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (argc % 2 == 0) return usage();  // flags come in pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0 || !std::isfinite(options.seconds)) return usage();

  const std::string load_begin = load_average();
  const auto [steal0, total0] = cpu_steal_jiffies();
  perfbench::Report report;
  try {
    if (options.workload == "conv_api_mesh") {
      report = perfbench::run_conv_api_mesh(options);
    } else if (options.workload == "train_dp") {
      report = perfbench::run_train_dp(options);
    } else if (options.workload == "serve_open_loop") {
      report = perfbench::run_serve_open_loop(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  // Share of the host's CPU time the hypervisor gave to other guests
  // during the run: a run with a high share was measured on a starved
  // host and its timings are not comparable.
  const auto [steal1, total1] = cpu_steal_jiffies();
  const double steal_share = total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0;
  std::printf(
      "ENV {\"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"host_threads\": %d, \"SWDNN_HOST_THREADS\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"loadavg_begin\": %s, "
      "\"loadavg_end\": %s, \"cpu_steal_share\": %.4f}\n",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      swdnn::runtime::host_threads(),
      std::getenv("SWDNN_HOST_THREADS") != nullptr
          ? json_string(std::getenv("SWDNN_HOST_THREADS")).c_str()
          : "null",
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), load_begin.c_str(),
      load_average().c_str(), steal_share);
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s%s: %.17g", sep, json_string(name).c_str(),
                std::isfinite(value) ? value : 0.0);
    sep = ", ";
  }
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}
