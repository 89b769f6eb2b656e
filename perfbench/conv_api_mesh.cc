// conv_api_mesh: a closed loop of convolution calls through one
// api::Handle on the default 8x8 simulated mesh, one caller thread.
//
// Two shapes, three ops each. They are chosen so that every mesh plan
// family wins at least one call: shape A's forward and backward-data
// go filter-grained; shape B's forward goes image-size-aware and its
// backward-data batch-size-aware. The batch-size-aware backward-data
// call costs an order of magnitude more host time than the others;
// that is a real defect of the simulator host path and the mix keeps
// it so the benchmark shows it. Backward-filter runs the mesh GEMM.

#include <cstring>
#include <vector>

#include "bench.h"
#include "src/api/swdnn_api.h"
#include "src/conv/backward.h"
#include "src/conv/reference.h"
#include "src/util/rng.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace swdnn;
using conv::ConvShape;

enum class Op { kForward, kBackwardData, kBackwardFilter };
constexpr Op kOps[] = {Op::kForward, Op::kBackwardData, Op::kBackwardFilter};
const char* op_name(Op op) {
  switch (op) {
    case Op::kForward: return "fwd";
    case Op::kBackwardData: return "bwd_data";
    case Op::kBackwardFilter: return "bwd_filter";
  }
  return "?";
}

const std::vector<ConvShape>& shapes() {
  static const std::vector<ConvShape> s = {
      ConvShape::from_output(16, 32, 32, 8, 8, 3, 3),  // A
      ConvShape::from_output(32, 64, 64, 4, 4, 3, 3),  // B
  };
  return s;
}

/// One shape's seeded operands and result buffers.
struct Problem {
  ConvShape shape;
  api::TensorDescriptor x_desc, y_desc;
  api::FilterDescriptor w_desc;
  tensor::Tensor x, w, dy;  // operands
  tensor::Tensor y, dx, dw;  // results

  Problem(const ConvShape& s, util::Rng& rng)
      : shape(s),
        x(conv::make_input(s)),
        w(conv::make_filter(s)),
        dy(conv::make_output(s)),
        y(conv::make_output(s)),
        dx(conv::make_input(s)),
        dw(conv::make_filter(s)) {
    api::set_tensor4d_descriptor(x_desc, s.ri, s.ci, s.ni, s.batch);
    api::set_filter_descriptor(w_desc, s.kr, s.kc, s.ni, s.no);
    api::get_convolution_output_descriptor(x_desc, w_desc, y_desc);
    rng.fill_uniform(x.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    rng.fill_uniform(dy.data(), -1, 1);
  }

  api::Status call(api::Handle* h, Op op) {
    switch (op) {
      case Op::kForward:
        return api::convolution_forward(h, x_desc, x.data().data(), w_desc,
                                        w.data().data(), y_desc,
                                        y.data().data());
      case Op::kBackwardData:
        return api::convolution_backward_data(h, w_desc, w.data().data(),
                                              y_desc, dy.data().data(),
                                              x_desc, dx.data().data());
      case Op::kBackwardFilter:
        return api::convolution_backward_filter(h, x_desc, x.data().data(),
                                                y_desc, dy.data().data(),
                                                w_desc, dw.data().data());
    }
    return api::Status::kBadParam;
  }

  /// Forward and backward-data must equal the reference bitwise (the
  /// mesh kernels accumulate in the reference's order). Backward-filter
  /// runs the mesh GEMM, which sums the (b, ro, co) contraction in
  /// LDM-sized chunks: the library's contract for it is agreement to
  /// 1e-9 (tests/api_test.cc), and that is what is checked.
  bool matches_reference(Op op) const {
    tensor::Tensor expected = op == Op::kForward ? conv::make_output(shape)
                              : op == Op::kBackwardData
                                  ? conv::make_input(shape)
                                  : conv::make_filter(shape);
    const tensor::Tensor* got = nullptr;
    switch (op) {
      case Op::kForward:
        conv::reference_forward(x, w, expected, shape);
        got = &y;
        break;
      case Op::kBackwardData:
        conv::reference_backward_data(dy, w, expected, shape);
        got = &dx;
        break;
      case Op::kBackwardFilter:
        conv::reference_backward_filter(x, dy, expected, shape);
        return expected.max_abs_diff(dw) <= 1e-9;
    }
    return std::memcmp(expected.data().data(), got->data().data(),
                       sizeof(double) * expected.data().size()) == 0;
  }
};

/// Per-(shape, op) wall and process-CPU ms samples of one measured phase.
struct Phase {
  std::vector<std::vector<double>> ms;   // [shape * 3 + op]
  std::vector<std::vector<double>> cpu;  // [shape * 3 + op]
  double wall_s = 0;
  double calls = 0;
  double pass_count = 0;
  CpuUsage usage_begin, usage_end;
  int peak_threads = 0;
};

}  // namespace

Report run_conv_api_mesh(const Options& options) {
  Report report;
  util::Rng rng(options.seed);
  std::vector<Problem> problems;
  for (const ConvShape& s : shapes()) problems.emplace_back(s, rng);

  // --- set-up: handle + warm-up with autotune, nine times (it is cheap).
  // setup_s is its process CPU time, like every end-to-end cost.
  std::vector<double> setup_s, warmup_ms;
  api::Handle* handle = nullptr;
  for (int rep = 0; rep < 9; ++rep) {
    if (handle != nullptr) api::destroy(handle);
    const double cpu0 = process_cpu_ms();
    report.check(api::create(&handle) == api::Status::kSuccess, "create");
    api::set_autotune(handle, true);
    const Clock::time_point t1 = Clock::now();
    for (const Problem& p : problems) {
      report.check(api::convolution_plan_warmup(handle, p.x_desc, p.w_desc) ==
                       api::Status::kSuccess,
                   "plan warm-up " + p.shape.to_string());
    }
    warmup_ms.push_back(ms_since(t1));
    setup_s.push_back((process_cpu_ms() - cpu0) * 1e-3);
  }
  report.set("setup_s", median(setup_s));
  report.set("perf.warmup_ms", median(warmup_ms));

  // --- first pass: output checks and plan families, untimed -----------
  // Family counts are taken here, where every call's plan is the
  // cached winner; they are deterministic.
  double mesh_calls = 0, host_calls = 0, fgrain = 0, img = 0, batch = 0;
  for (Problem& p : problems) {
    for (Op op : kOps) {
      ++report.attempted;
      const api::Status st = p.call(handle, op);
      const std::string what = p.shape.to_string() + " " + op_name(op);
      if (!report.check(st == api::Status::kSuccess,
                        what + ": " + api::status_string(st))) {
        continue;
      }
      report.check(p.matches_reference(op), what + " vs conv::reference");
      if (api::last_execution_route(handle) ==
          api::ExecutionRoute::kHostGemm) {
        ++host_calls;
        continue;
      }
      ++mesh_calls;
      if (op == Op::kBackwardFilter) continue;  // mesh GEMM, no family
      switch (api::last_plan_algo(handle)) {
        case api::PlanAlgo::kFilterGrained: ++fgrain; break;
        case api::PlanAlgo::kImageSizeAware: ++img; break;
        case api::PlanAlgo::kBatchSizeAware: ++batch; break;
        default: break;
      }
      report.note("  %-44s -> %s", what.c_str(),
                  api::plan_algo_name(api::last_plan_algo(handle)));
    }
  }
  const double family_calls = fgrain + img + batch;
  report.set("conv.family_share.fgrain", family_calls > 0 ? fgrain / family_calls : 0);
  report.set("conv.family_share.img", family_calls > 0 ? img / family_calls : 0);
  report.set("conv.family_share.batch", family_calls > 0 ? batch / family_calls : 0);
  report.set("conv.host_route_share",
             mesh_calls + host_calls > 0 ? host_calls / (mesh_calls + host_calls) : 0);
  report.check(fgrain > 0 && img > 0 && batch > 0,
               "every mesh plan family wins at least one call");

  // --- measured closed loop -------------------------------------------
  sim::EventTracer tracer;
  double bus_events = 0;
  const auto run_phase = [&](double seconds, bool traced) {
    Phase ph;
    ph.ms.assign(problems.size() * 3, {});
    ph.cpu.assign(problems.size() * 3, {});
    if (traced) api::set_event_tracer(handle, &tracer);
    ph.usage_begin = cpu_usage();
    const Clock::time_point start = Clock::now();
    // Whole passes only, at least two, so every (shape, op) is sampled
    // equally often.
    while (ph.pass_count < 2 || ms_since(start) < seconds * 1e3) {
      for (std::size_t i = 0; i < problems.size(); ++i) {
        for (Op op : kOps) {
          ++report.attempted;
          const double cpu0 = process_cpu_ms();
          const Clock::time_point t0 = Clock::now();
          const api::Status st = problems[i].call(handle, op);
          ph.ms[i * 3 + static_cast<int>(op)].push_back(ms_since(t0));
          ph.cpu[i * 3 + static_cast<int>(op)].push_back(process_cpu_ms() - cpu0);
          ph.calls += 1;
          if (st != api::Status::kSuccess) {
            ++report.failed;
            report.correct = false;
          }
          if (traced) {  // keep the traced run's memory bounded
            for (const sim::TraceEvent& e : tracer.events()) {
              if (e.category == "bus") ++bus_events;
            }
            tracer.clear();
          }
        }
      }
      ++ph.pass_count;
      ph.peak_threads = std::max(ph.peak_threads, live_threads());
    }
    ph.wall_s = ms_since(start) * 1e-3;
    ph.usage_end = cpu_usage();
    if (traced) api::set_event_tracer(handle, nullptr);
    return ph;
  };

  const auto pass_ms = [](const Phase& ph) {
    double sum = 0;
    for (const auto& samples : ph.ms) sum += median(samples);
    return sum;
  };

  const Phase main = run_phase(options.trace ? options.seconds / 2 : options.seconds, false);
  double flops_per_pass = 0;
  for (const Problem& p : problems) flops_per_pass += 3.0 * static_cast<double>(p.shape.flops());
  // Cost: the typical call's process CPU is the geomean of the six
  // calls' medians; the rate is one pass at each call's median.
  std::vector<double> cpu_p50s;
  for (const auto& samples : main.cpu) cpu_p50s.push_back(median(samples));
  double cpu_pass_ms = 0;
  for (double ms : cpu_p50s) cpu_pass_ms += ms;
  report.set("cpu_ms_per_op", geomean(cpu_p50s));
  report.set("gflop_per_cpu_s", flops_per_pass / (cpu_pass_ms * 1e-3) / 1e9);
  // Wall latency: the typical call is the geomean of the six calls' medians.
  // One call type gets about 17 samples in a run, which supports no
  // tail percentile. The tail is therefore taken over every call's time
  // relative to its own type's median, in call order, as the median
  // over 3-pass windows of each window's p90, scaled by the typical call.
  std::vector<double> p50s;
  for (const auto& samples : main.ms) p50s.push_back(median(samples));
  std::vector<double> ratios;  // call order: pass by pass
  for (std::size_t pass = 0; pass < static_cast<std::size_t>(main.pass_count); ++pass) {
    for (std::size_t c = 0; c < main.ms.size(); ++c) ratios.push_back(main.ms[c][pass] / p50s[c]);
  }
  const double typical_ms = geomean(p50s);
  report.set("wall.latency_p50_ms", typical_ms);
  report.set("wall.latency_p90_ms",
             typical_ms * median_of_window_quantiles(
                              consecutive_windows(ratios, 3 * main.ms.size()), 0.9));
  // Rates use one pass at each call's median time, not the wall clock
  // of the loop, so a short host stall moves a sample, not the figure.
  report.set("wall.gflop_per_host_s", flops_per_pass / (pass_ms(main) * 1e-3) / 1e9);
  report.set("wall.throughput_per_s", static_cast<double>(main.ms.size()) / (pass_ms(main) * 1e-3));
  report.note("measured %.0f passes (%.0f calls) in %.2f s", main.pass_count,
              main.calls, main.wall_s);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    for (Op op : kOps) {
      const auto& s = main.ms[i * 3 + static_cast<int>(op)];
      report.note("  %-44s %-10s median %9.2f ms  p90 %9.2f ms  cpu median %9.2f ms  n=%zu",
                  problems[i].shape.to_string().c_str(), op_name(op),
                  median(s), quantile(s, 0.9),
                  median(main.cpu[i * 3 + static_cast<int>(op)]), s.size());
    }
  }

  std::vector<ConvShape> fwd_shapes, all_shapes;
  for (const Problem& p : problems) {
    fwd_shapes.push_back(p.shape);
    all_shapes.push_back(p.shape);
    all_shapes.push_back(conv::backward_data_shape(p.shape));
  }
  set_model_gflops(report, handle, all_shapes);

  if (options.trace) {
    const Phase traced = run_phase(options.seconds / 2, true);
    report.set("trace.overhead_ratio", pass_ms(traced) / pass_ms(main));
    report.note("traced run: %.0f bus events per pass",
                bus_events / traced.pass_count);
    set_runtime_metrics(report, main.usage_begin, main.usage_end,
                        main.wall_s, main.calls, main.peak_threads);
    std::vector<double> per_op[3];
    for (std::size_t i = 0; i < problems.size(); ++i) {
      for (Op op : kOps) {
        per_op[static_cast<int>(op)].push_back(
            median(traced.ms[i * 3 + static_cast<int>(op)]));
      }
    }
    report.set("conv.fwd_ms", mean(per_op[0]));
    report.set("conv.bwd_data_ms", mean(per_op[1]));
    report.set("conv.bwd_filter_ms", mean(per_op[2]));

    set_handle_counters(report, handle);
    probe_rank(report, all_shapes);
    probe_mesh(report, handle, fwd_shapes, 5, options.seed);
  }
  api::destroy(handle);
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

}  // namespace perfbench
