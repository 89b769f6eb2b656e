#pragma once
// Shared vocabulary of the perfbench binary: run options, the report a
// workload fills, and the probes that time library layers from outside
// (process counters, trace digestion, direct mesh launches).
//
// The benchmark never adds spans inside the library. It times calls into
// each module's public functions and reads the library's existing
// tracer hooks (api::set_event_tracer, CompileOptions::tracer,
// ServerConfig::tracer).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/api/swdnn_api.h"
#include "src/conv/shape.h"
#include "src/sim/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t) {
  return ms_between(t, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one workload run reports. Metric units live in BENCHMARK.json;
/// run.py attaches them and checks every declared metric is present.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable report lines

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Records one output check. A failed check fails the run and counts
  /// as a failed operation (it lands in fail_ratio).
  bool check(bool ok, const std::string& what);
  void note(const char* format, ...) __attribute__((format(printf, 2, 3)));
};

Report run_conv_api_mesh(const Options& options);
Report run_train_dp(const Options& options);
Report run_serve_open_loop(const Options& options);

// --- process counters (getrusage, /proc) ----------------------------------

/// CPU time of the whole process (every thread), in ms. The kernel
/// leaves hypervisor steal out of it, and a thread that waits for a
/// vCPU is not charged, so unlike wall time it does not stretch when
/// other tenants load the host. The end-to-end cost metrics use it.
double process_cpu_ms();

struct CpuUsage {
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;  ///< voluntary + involuntary
};
CpuUsage cpu_usage();
double peak_rss_mb();
/// Live threads of this process, from /proc/self/status (0 if unreadable).
int live_threads();

/// runtime.* metrics over a measured window of `ops` operations.
void set_runtime_metrics(Report& report, const CpuUsage& begin,
                         const CpuUsage& end, double wall_s, double ops,
                         int peak_threads);

// --- trace digestion -------------------------------------------------------

/// "conv#0+relu#1" -> "conv0_relu1": a GraphIR node name as a metric
/// name component.
std::string node_metric_name(const std::string& graph_node_name);

/// Per-node self times of the compiled "layer" spans in a trace, plus
/// which nodes reached the simulated mesh. Spans of a node are the only
/// ns-clock spans the library records and they never nest, so a span's
/// duration is its self time. Backend events are recorded before the
/// span of the node that issued them; in a trace of one network run
/// alone that order attributes each mesh launch to its node.
struct NodeProfile {
  std::map<std::string, std::vector<double>> fwd_ms, bwd_ms;
  std::map<std::string, bool> on_mesh;  ///< any dma/bus/sync event
  double total_ms = 0;                  ///< sum of all span durations
  double mesh_ms = 0;                   ///< ... of mesh-routed nodes
};
NodeProfile profile_nodes(const std::vector<swdnn::sim::TraceEvent>& events);

/// Sets dnn.node.<node>.{fwd,bwd}_ms (median per node) and
/// dnn.mesh_node_share from a profile, and conv.host_route_share as the
/// share of conv nodes that issued no mesh launch.
void set_node_metrics(Report& report, const NodeProfile& profile);

// --- handle queries ----------------------------------------------------------

/// model_gflops_chip: geomean of api::get_convolution_estimate over the
/// shapes (deterministic).
void set_model_gflops(Report& report, swdnn::api::Handle* handle,
                      const std::vector<swdnn::conv::ConvShape>& shapes);

/// perf.plan_cache_{hit_ratio,misses} and api.{host,plan}_fallbacks from
/// the handle's counters, over its whole life (plan warm-up does not
/// count as a hit or a miss).
void set_handle_counters(Report& report, const swdnn::api::Handle* handle);

// --- direct layer probes ---------------------------------------------------

/// sim.* and api.dispatch_overhead_ms. For each shape with a mesh plan,
/// a benchmark-side conv::SwConvolution autotunes the shape (as the
/// handle's plan warm-up does) and takes its cached best plan. Then
/// `reps` times, in pairs: one api::convolution_forward through
/// `handle` and one direct SwConvolution::execute_choice, the call the
/// API dispatches to. One more traced launch counts bus and barrier
/// events. Dispatch overhead is the median API call minus the median
/// direct launch, averaged over the shapes.
void probe_mesh(Report& report, swdnn::api::Handle* handle,
                const std::vector<swdnn::conv::ConvShape>& shapes, int reps,
                std::uint64_t seed);

/// conv.{fwd,bwd_data,bwd_filter}_ms: host ms of the host im2col/GEMM
/// kernels (the route host-backend conv layers take) summed over the
/// shapes, median of `reps` calls each. Backward ops are timed only
/// when `backward` is set (0 otherwise: the workload runs none).
void probe_host_conv(Report& report,
                     const std::vector<swdnn::conv::ConvShape>& shapes,
                     int reps, bool backward, std::uint64_t seed);

/// perf.rank_ms: median host ms of a fresh PlanChooser ranking one of
/// the shapes.
void probe_rank(Report& report,
                const std::vector<swdnn::conv::ConvShape>& shapes);

}  // namespace perfbench
