// train_dp: compiled data-parallel training on a 2-node x 2-CG
// topology (4 replicas, hierarchical exchange, comm/compute overlap),
// a LeNet-sized CNN (two conv+pool blocks, two FC layers) on seeded
// SyntheticBars shards.
//
// The conv layers take the host im2col route, so dnn, tensor, runtime,
// host conv and parallel carry most of a step. The FC layers are built
// as host-GEMM layers but the compiled graph dispatches them through
// the API, which routes them onto the simulated mesh; the trace shows
// that share as dnn.mesh_node_share.

#include <algorithm>
#include <memory>
#include <vector>

#include "bench.h"
#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/loss.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/parallel/hierarchical.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace swdnn;
using conv::ConvShape;

constexpr int kNodes = 2;
constexpr int kCgsPerNode = 2;
constexpr int kReplicas = kNodes * kCgsPerNode;
constexpr std::int64_t kShardBatch = 16;
constexpr std::int64_t kImage = 28;
constexpr int kClasses = 10;

const ConvShape kConv1 = ConvShape::from_output(kShardBatch, 1, 6, 24, 24, 5, 5);
const ConvShape kConv2 = ConvShape::from_output(kShardBatch, 6, 16, 8, 8, 5, 5);
constexpr std::int64_t kFc1In = 4 * 4 * 16, kFc1Out = 84, kFc2Out = kClasses;

/// Every replica gets the same weights (fixed Rng seed per call), as
/// the trainer's lockstep contract requires.
std::unique_ptr<dnn::Network> make_net() {
  util::Rng rng(4242);
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(kConv1, rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);
  net->emplace<dnn::Convolution>(kConv2, rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);
  net->emplace<dnn::FullyConnected>(kFc1In, kFc1Out, rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(kFc1Out, kFc2Out, rng);
  return net;
}

const std::vector<std::int64_t> kShardDims = {kImage, kImage, 1, kShardBatch};

std::vector<ConvShape> fc_shapes() {
  return {dnn::BackendContext::fc_shape(kFc1In, kFc1Out, kShardBatch),
          dnn::BackendContext::fc_shape(kFc1Out, kFc2Out, kShardBatch)};
}

/// Multiply-add flops of one replica's forward + backward (backward
/// runs the data and the filter gradient: twice the forward).
double step_flops_per_replica() {
  double f = static_cast<double>(kConv1.flops() + kConv2.flops());
  for (const ConvShape& s : fc_shapes()) f += static_cast<double>(s.flops());
  return 3.0 * f;
}

std::unique_ptr<parallel::HierarchicalTrainer> make_trainer() {
  auto trainer = std::make_unique<parallel::HierarchicalTrainer>(
      parallel::HierTopology::grid(kNodes, kCgsPerNode), make_net,
      /*learning_rate=*/0.05, /*momentum=*/0.9);
  trainer->compile(kShardDims);
  return trainer;
}

std::vector<dnn::Batch> next_shards(dnn::SyntheticBars& data) {
  std::vector<dnn::Batch> shards;
  for (int r = 0; r < kReplicas; ++r) shards.push_back(data.sample(kShardBatch));
  return shards;
}

/// Length of the union of [begin, end) intervals, in ms.
double covered_ms(std::vector<std::pair<std::uint64_t, std::uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0;
  std::uint64_t cur_begin = 0, cur_end = 0;
  bool open = false;
  for (const auto& [b, e] : spans) {
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += static_cast<double>(cur_end - cur_begin);
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) total += static_cast<double>(cur_end - cur_begin);
  return total * 1e-6;
}

struct Phase {
  std::vector<double> step_ms, step_cpu_ms, loss;
  double wall_s = 0;
  std::uint64_t allocations = 0;
  CpuUsage usage_begin, usage_end;
  int peak_threads = 0;
  parallel::HierStepReport last;
  std::vector<double> exchange_ms;  ///< traced: step minus node cover
};

}  // namespace

Report run_train_dp(const Options& options) {
  Report report;

  // --- set-up: build + compile (plan warm-up, autotune) nine times.
  // setup_s is its process CPU time, like every end-to-end cost.
  std::vector<double> setup_s, setup_ms;
  std::unique_ptr<parallel::HierarchicalTrainer> trainer;
  for (int rep = 0; rep < 9; ++rep) {
    trainer.reset();
    const double cpu0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    trainer = make_trainer();
    setup_ms.push_back(ms_since(t0));
    setup_s.push_back((process_cpu_ms() - cpu0) * 1e-3);
  }
  report.set("setup_s", median(setup_s));
  report.set("perf.warmup_ms", median(setup_ms));
  dnn::BackendContext& ctx = *trainer->shared_context();

  dnn::SyntheticBars data(kImage, kClasses, 0.05, options.seed);
  const parallel::HierStepOptions step_options;  // hierarchical, overlap
  sim::EventTracer tracer;

  const auto run_phase = [&](double seconds, bool traced) {
    Phase ph;
    ph.usage_begin = cpu_usage();
    const std::uint64_t alloc0 = tensor::allocation_count();
    double measured_s = 0;
    const Clock::time_point start = Clock::now();
    while (ph.step_ms.size() < 10 || ms_since(start) < seconds * 1e3) {
      const std::vector<dnn::Batch> shards = next_shards(data);
      ++report.attempted;
      const double cpu0 = process_cpu_ms();
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t t0_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              t0.time_since_epoch()).count());
      ph.last = trainer->train_step(shards, step_options);
      const double ms = ms_since(t0);
      ph.step_cpu_ms.push_back(process_cpu_ms() - cpu0);
      measured_s += ms * 1e-3;
      ph.step_ms.push_back(ms);
      ph.loss.push_back(ph.last.loss);
      if (traced) {  // digest and drop the step's events: bounded memory
        std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
        for (const sim::TraceEvent& e : tracer.events()) {
          if (e.category == "layer" && e.begin_cycle >= t0_ns) {
            spans.emplace_back(e.begin_cycle, e.end_cycle);
          }
        }
        ph.exchange_ms.push_back(ms - covered_ms(std::move(spans)));
        tracer.clear();
      }
      ph.peak_threads = std::max(ph.peak_threads, live_threads());
    }
    ph.wall_s = measured_s;
    ph.allocations = tensor::allocation_count() - alloc0;
    ph.usage_end = cpu_usage();
    return ph;
  };

  // One untimed step: first-touch of the arena and lazy executors.
  ++report.attempted;
  const double first_loss = trainer->train_step(next_shards(data), step_options).loss;

  const Phase main = run_phase(options.trace ? options.seconds / 2 : options.seconds, false);
  const double steps = static_cast<double>(main.step_ms.size());
  const double samples_per_step = static_cast<double>(kReplicas * kShardBatch);
  // Cost: process CPU of the median step (all replicas).
  report.set("cpu_ms_per_op", median(main.step_cpu_ms));
  report.set("gflop_per_cpu_s",
             kReplicas * step_flops_per_replica() / (median(main.step_cpu_ms) * 1e-3) / 1e9);
  report.set("wall.throughput_per_s", samples_per_step / (median(main.step_ms) * 1e-3));
  report.set("wall.latency_p50_ms", median(main.step_ms));
  // Tail: median over 30-step windows of each window's p90, so a burst
  // of host noise inside one window does not set the figure.
  report.set("wall.latency_p90_ms",
             median_of_window_quantiles(consecutive_windows(main.step_ms, 30), 0.9));
  report.set("wall.gflop_per_host_s",
             kReplicas * step_flops_per_replica() / (median(main.step_ms) * 1e-3) / 1e9);
  report.note("measured %zu steps in %.2f s (median %.2f ms wall, %.2f ms cpu); "
              "loss %.4f (first) -> %.4f (last)",
              main.step_ms.size(), main.wall_s, median(main.step_ms),
              median(main.step_cpu_ms), first_loss, main.loss.back());

  set_model_gflops(report, ctx.handle(), {kConv1, kConv2, fc_shapes()[0], fc_shapes()[1]});

  // --- output checks -----------------------------------------------------
  report.check(trainer->max_replica_divergence() == 0.0,
               "replicas stay in lockstep (max divergence 0)");
  const std::size_t k = std::min<std::size_t>(5, main.loss.size() / 2);
  const std::vector<double> head(main.loss.begin(), main.loss.begin() + k);
  const std::vector<double> tail(main.loss.end() - k, main.loss.end());
  report.check(mean(tail) < std::max(first_loss, mean(head)),
               "training loss falls");

  if (options.trace) {
    set_runtime_metrics(report, main.usage_begin, main.usage_end, main.wall_s,
                        steps, main.peak_threads);
    report.set("tensor.allocs_per_step", static_cast<double>(main.allocations) / steps);
    report.set("tensor.arena_peak_bytes",
               static_cast<double>(trainer->replica(0).compiled_stats().arena_peak_bytes));
    report.set("parallel.model_step_ms", main.last.step_overlapped_seconds * 1e3);
    report.set("parallel.model_exchange_hier_ms", main.last.exchange_hier.total() * 1e3);
    report.set("parallel.model_overlap_speedup", main.last.overlap_speedup());

    // Traced run: recompile every replica with the tracer attached
    // (same shared context, so plans stay warm) and step again.
    for (int r = 0; r < kReplicas; ++r) {
      dnn::CompileOptions co;
      co.context = &ctx;
      co.tracer = &tracer;
      trainer->replica(r).compile(kShardDims, co);
    }
    const Phase traced = run_phase(options.seconds / 2, true);
    report.set("trace.overhead_ratio", median(traced.step_ms) / median(main.step_ms));
    report.set("parallel.exchange_host_ms", median(traced.exchange_ms));
    report.check(trainer->max_replica_divergence() == 0.0,
                 "replicas stay in lockstep under tracing");

    // Profile steps: replica 0 alone, forward + loss + backward timed
    // from outside (gradients only; no optimizer step follows, and the
    // trainer is not stepped again). Its node spans must add back up to
    // the measured step.
    dnn::Network& net = trainer->replica(0);
    std::vector<double> step_ms, fwd_ms, bwd_ms, span_sum_ms;
    std::vector<sim::TraceEvent> events;
    for (int i = 0; i < 7; ++i) {
      const dnn::Batch batch = data.sample(kShardBatch);
      tracer.clear();
      const Clock::time_point t0 = Clock::now();
      const tensor::Tensor logits = net.forward(batch.images);
      const Clock::time_point t1 = Clock::now();
      const dnn::LossResult loss = dnn::softmax_cross_entropy(logits, batch.labels);
      const Clock::time_point t2 = Clock::now();
      net.backward(loss.d_logits);
      const Clock::time_point t3 = Clock::now();
      step_ms.push_back(ms_between(t0, t3));
      fwd_ms.push_back(ms_between(t0, t1));
      bwd_ms.push_back(ms_between(t2, t3));
      const std::vector<sim::TraceEvent> step_events = tracer.events();
      span_sum_ms.push_back(profile_nodes(step_events).total_ms);
      events.insert(events.end(), step_events.begin(), step_events.end());
    }
    const NodeProfile profile = profile_nodes(events);
    tracer.clear();
    set_node_metrics(report, profile);
    report.set("dnn.forward_ms", median(fwd_ms));
    report.set("dnn.backward_ms", median(bwd_ms));
    std::vector<double> ratio;
    for (std::size_t i = 0; i < step_ms.size(); ++i) ratio.push_back(span_sum_ms[i] / step_ms[i]);
    const double node_sum = median(ratio);
    report.set("dnn.node_sum_over_step", node_sum);
    report.check(node_sum >= 0.9 && node_sum <= 1.0,
                 "GraphIR node self times add up to the step (0.9..1.0)");
    for (const auto& [node, mesh] : profile.on_mesh) {
      report.note("  node %-14s fwd %8.3f ms  bwd %8.3f ms  %s", node.c_str(),
                  median(profile.fwd_ms.at(node)), median(profile.bwd_ms.at(node)),
                  mesh ? "mesh" : "host");
    }

    // Eager per-layer times of the same replica, grouped by compiled
    // node, so a node that loses to eager is named.
    std::vector<double> eager_layer_ms(net.num_layers(), 0);
    for (int i = 0; i < 5; ++i) {
      const dnn::Batch batch = data.sample(kShardBatch);
      std::vector<tensor::Tensor> acts{batch.images};
      for (std::size_t l = 0; l < net.num_layers(); ++l) {
        const Clock::time_point t0 = Clock::now();
        acts.push_back(net.layer(l).forward(acts.back()));
        eager_layer_ms[l] += ms_since(t0) / 5;
      }
      tensor::Tensor grad = dnn::softmax_cross_entropy(acts.back(), batch.labels).d_logits;
      for (std::size_t l = net.num_layers(); l-- > 0;) {
        const Clock::time_point t0 = Clock::now();
        grad = net.layer(l).backward(grad);
        eager_layer_ms[l] += ms_since(t0) / 5;
      }
    }
    double eager_total = 0, compiled_total = 0, worst_loss = 0;
    std::string worst_node = "none";
    for (const dnn::GraphNode& node : net.graph().nodes()) {
      double eager = 0;
      for (std::size_t l = node.first_layer; l <= node.last_layer; ++l) eager += eager_layer_ms[l];
      const std::string name = node_metric_name(node.name);
      const double compiled =
          median(profile.fwd_ms.at(name)) + median(profile.bwd_ms.at(name));
      eager_total += eager;
      compiled_total += compiled;
      if (compiled - eager > worst_loss) {
        worst_loss = compiled - eager;
        worst_node = name;
      }
    }
    report.set("dnn.compiled_over_eager", compiled_total / eager_total);
    report.note("compiled/eager node total %.3f; node losing most to eager: %s (+%.3f ms)",
                compiled_total / eager_total, worst_node.c_str(), worst_loss);

    set_handle_counters(report, ctx.handle());

    probe_host_conv(report, {kConv1, kConv2}, 7, /*backward=*/true, options.seed);
    probe_rank(report, {kConv1, kConv2, fc_shapes()[0], fc_shapes()[1]});
    probe_mesh(report, ctx.handle(), fc_shapes(), 7, options.seed);
  }
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

}  // namespace perfbench
