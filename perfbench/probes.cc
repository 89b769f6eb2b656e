#include <sys/resource.h>
#include <time.h>

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"
#include "src/conv/im2col.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/perf/chooser.h"
#include "src/util/rng.h"
#include "stats.h"

namespace perfbench {

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    ++failed;
    notes.push_back("CHECK FAILED: " + what);
  }
  return ok;
}

void Report::note(const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  notes.emplace_back(line);
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

CpuUsage cpu_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

void set_runtime_metrics(Report& report, const CpuUsage& begin,
                         const CpuUsage& end, double wall_s, double ops,
                         int peak_threads) {
  const double user = end.user_s - begin.user_s;
  const double sys = end.sys_s - begin.sys_s;
  report.set("runtime.sys_cpu_share", user + sys > 0 ? sys / (user + sys) : 0);
  report.set("runtime.cpu_per_wall", wall_s > 0 ? (user + sys) / wall_s : 0);
  report.set("runtime.ctx_switches_per_op",
             ops > 0 ? (end.ctx_switches - begin.ctx_switches) / ops : 0);
  report.set("runtime.peak_threads", peak_threads);
}

std::string node_metric_name(const std::string& graph_node_name) {
  std::string out;
  for (char c : graph_node_name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (c == '+') {
      out += '_';
    }
  }
  return out;
}

NodeProfile profile_nodes(const std::vector<swdnn::sim::TraceEvent>& events) {
  NodeProfile p;
  bool pending_mesh = false;  // backend events seen since the last span
  for (const swdnn::sim::TraceEvent& e : events) {
    if (e.category == "dma" || e.category == "bus" || e.category == "sync") {
      pending_mesh = true;
    } else if (e.category == "layer") {
      // "<node> <fwd|bwd> in=..B out=..B"
      const std::size_t sp = e.name.find(' ');
      const std::string node = node_metric_name(e.name.substr(0, sp));
      const bool bwd = e.name.compare(sp + 1, 3, "bwd") == 0;
      const double ms = static_cast<double>(e.end_cycle - e.begin_cycle) * 1e-6;
      (bwd ? p.bwd_ms : p.fwd_ms)[node].push_back(ms);
      bool& mesh = p.on_mesh[node];
      mesh = mesh || pending_mesh;
      pending_mesh = false;
      p.total_ms += ms;
    }
  }
  for (const auto* phase : {&p.fwd_ms, &p.bwd_ms}) {
    for (const auto& [node, samples] : *phase) {
      if (!p.on_mesh[node]) continue;
      for (double ms : samples) p.mesh_ms += ms;
    }
  }
  return p;
}

void set_node_metrics(Report& report, const NodeProfile& profile) {
  for (const auto& [node, samples] : profile.fwd_ms) {
    report.set("dnn.node." + node + ".fwd_ms", median(samples));
  }
  for (const auto& [node, samples] : profile.bwd_ms) {
    report.set("dnn.node." + node + ".bwd_ms", median(samples));
  }
  report.set("dnn.mesh_node_share",
             profile.total_ms > 0 ? profile.mesh_ms / profile.total_ms : 0);
  double conv_nodes = 0, conv_host = 0;
  for (const auto& [node, mesh] : profile.on_mesh) {
    if (node.rfind("conv", 0) != 0) continue;
    ++conv_nodes;
    if (!mesh) ++conv_host;
  }
  report.set("conv.host_route_share", conv_nodes > 0 ? conv_host / conv_nodes : 0);
}

void set_model_gflops(Report& report, swdnn::api::Handle* handle,
                      const std::vector<swdnn::conv::ConvShape>& shapes) {
  using namespace swdnn;
  std::vector<double> estimates;
  for (const conv::ConvShape& s : shapes) {
    api::TensorDescriptor xd;
    api::FilterDescriptor wd;
    api::set_tensor4d_descriptor(xd, s.ri, s.ci, s.ni, s.batch);
    api::set_filter_descriptor(wd, s.kr, s.kc, s.ni, s.no);
    double g = 0;
    report.check(api::get_convolution_estimate(handle, xd, wd, &g) ==
                     api::Status::kSuccess, "estimate " + s.to_string());
    estimates.push_back(g);
  }
  report.set("model_gflops_chip", geomean(estimates));
}

void set_handle_counters(Report& report, const swdnn::api::Handle* handle) {
  using namespace swdnn;
  api::PlanCacheCounters pc{};
  api::plan_cache_counters(handle, &pc);
  const double lookups = static_cast<double>(pc.hits + pc.misses);
  report.set("perf.plan_cache_hit_ratio",
             lookups > 0 ? static_cast<double>(pc.hits) / lookups : 0);
  report.set("perf.plan_cache_misses", static_cast<double>(pc.misses));
  api::FaultCounters faults{};
  api::fault_counters(handle, &faults);
  report.set("api.host_fallbacks", static_cast<double>(faults.host_fallbacks));
  report.set("api.plan_fallbacks", static_cast<double>(faults.plan_fallbacks));
}

void probe_mesh(Report& report, swdnn::api::Handle* handle,
                const std::vector<swdnn::conv::ConvShape>& shapes, int reps,
                std::uint64_t seed) {
  using namespace swdnn;
  conv::SwConvolution sw;
  std::vector<double> host_ms, ns_per_cycle, cycles, messages, dma_bytes,
      sim_over_model, bus, barrier, overhead;
  util::Rng rng(seed);
  for (const conv::ConvShape& shape : shapes) {
    sw.autotune_plan(shape);
    const auto lookup = sw.ranked_plans(shape);
    if (!lookup.entry->has_executable()) continue;
    const perf::PlanChoice& choice = lookup.entry->best_executable();
    tensor::Tensor in = conv::make_input(shape);
    tensor::Tensor w = conv::make_filter(shape);
    tensor::Tensor out = conv::make_output(shape);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    api::TensorDescriptor xd, yd;
    api::FilterDescriptor wd;
    api::set_tensor4d_descriptor(xd, shape.ri, shape.ci, shape.ni, shape.batch);
    api::set_filter_descriptor(wd, shape.kr, shape.kc, shape.ni, shape.no);
    api::get_convolution_output_descriptor(xd, wd, yd);
    tensor::Tensor api_out = conv::make_output(shape);

    std::vector<double> direct_ms, api_ms;
    sim::LaunchStats stats;
    for (int i = 0; i < reps; ++i) {
      Clock::time_point t0 = Clock::now();
      stats = sw.execute_choice(choice, in, w, out, shape).stats;
      direct_ms.push_back(ms_since(t0));
      t0 = Clock::now();
      const api::Status st =
          api::convolution_forward(handle, xd, in.data().data(), wd, w.data().data(),
                                   yd, api_out.data().data());
      api_ms.push_back(ms_since(t0));
      report.check(st == api::Status::kSuccess, "mesh probe " + shape.to_string());
    }
    sim::EventTracer tracer;
    sw.set_tracer(&tracer);
    sw.execute_choice(choice, in, w, out, shape);
    sw.set_tracer(nullptr);
    double n_bus = 0, n_sync = 0;
    for (const sim::TraceEvent& e : tracer.events()) {
      if (e.category == "bus") ++n_bus;
      if (e.category == "sync") ++n_sync;
    }

    const double launch_ms = median(direct_ms);
    const double c = static_cast<double>(stats.max_compute_cycles);
    host_ms.push_back(launch_ms);
    overhead.push_back(median(api_ms) - launch_ms);
    cycles.push_back(c);
    ns_per_cycle.push_back(c > 0 ? launch_ms * 1e6 / c : 0);
    messages.push_back(static_cast<double>(stats.regcomm_messages));
    dma_bytes.push_back(
        static_cast<double>(stats.dma.get_bytes + stats.dma.put_bytes));
    // The paper's meas/mdl: level-2 cycle accounting over the level-3
    // closed-form model, for the plan the launch ran.
    sim_over_model.push_back(sw.cycle_accounted_gflops_per_cg(shape, choice.plan) /
                             choice.estimate.gflops_per_cg);
    bus.push_back(n_bus);
    barrier.push_back(n_sync);
  }
  report.set("sim.launch_ms", mean(host_ms));
  report.set("sim.host_ns_per_sim_cycle", mean(ns_per_cycle));
  report.set("sim.cycles_per_launch", mean(cycles));
  report.set("sim.regcomm_messages", mean(messages));
  report.set("sim.dma_bytes", mean(dma_bytes));
  report.set("sim.sim_over_model", geomean(sim_over_model));
  report.set("sim.bus_events", mean(bus));
  report.set("sim.barrier_events", mean(barrier));
  report.set("api.dispatch_overhead_ms", mean(overhead));
}

void probe_host_conv(Report& report,
                     const std::vector<swdnn::conv::ConvShape>& shapes,
                     int reps, bool backward, std::uint64_t seed) {
  using namespace swdnn;
  util::Rng rng(seed);
  double fwd = 0, bwd_data = 0, bwd_filter = 0;
  for (const conv::ConvShape& shape : shapes) {
    tensor::Tensor x = conv::make_input(shape), dx = conv::make_input(shape);
    tensor::Tensor w = conv::make_filter(shape), dw = conv::make_filter(shape);
    tensor::Tensor y = conv::make_output(shape), dy = conv::make_output(shape);
    rng.fill_uniform(x.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    rng.fill_uniform(dy.data(), -1, 1);
    tensor::TensorPool pool;
    const auto time = [&](const auto& call) {
      std::vector<double> ms;
      for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        call();
        ms.push_back(ms_since(t0));
      }
      return median(ms);
    };
    fwd += time([&] { conv::im2col_forward(x, w, y, shape, &pool); });
    if (!backward) continue;
    bwd_data += time([&] { conv::im2col_backward_data(dy, w, dx, shape, &pool); });
    bwd_filter += time([&] { conv::im2col_backward_filter(x, dy, dw, shape, &pool); });
  }
  report.set("conv.fwd_ms", fwd);
  report.set("conv.bwd_data_ms", bwd_data);
  report.set("conv.bwd_filter_ms", bwd_filter);
}

void probe_rank(Report& report,
                const std::vector<swdnn::conv::ConvShape>& shapes) {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    for (const swdnn::conv::ConvShape& shape : shapes) {
      const swdnn::perf::PlanChooser chooser;
      const Clock::time_point t0 = Clock::now();
      const auto ranked = chooser.rank(shape);
      ms.push_back(ms_since(t0));
      if (ranked.empty()) report.check(false, "rank: no plan for " + shape.to_string());
    }
  }
  report.set("perf.rank_ms", median(ms));
}

}  // namespace perfbench
