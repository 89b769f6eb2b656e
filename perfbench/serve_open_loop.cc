// serve_open_loop: an open loop against an InferenceServer with two
// compiled replicas sharing one handle and mesh executor. One generator
// thread submits single samples on a fixed schedule, round-robin over
// four tenants, in two phases, each against a server of its own:
//   * steady: kSteadyRps, 10-20% of the capacity of a quiet 4-core
//     host, with a deep queue and a long deadline, so that no request is
//     refused even when other tenants of the host cut the simulator's
//     capacity several-fold; yields latency timed from each request's
//     due time;
//   * overload: kOverloadRps, about twice the capacity of a quiet 4-core
//     host (2 replicas x max_batch 8 over one mesh executor), with a
//     64-deep queue; yields goodput and the shed / reject / deadline
//     counts.
// The rates are fixed, not derived from a measured capacity, so two
// commits are always offered the same load. Between the two, on the
// steady server, a closed loop submits bursts of one full batch per
// replica and yields the serving cost: process CPU per request. Its
// batches are always full and nothing is refused, so the figure does
// not depend on how the batcher grouped a light load or on how much
// admission work an overload caused.

#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/relu.h"
#include "src/dnn/softmax.h"
#include "src/serve/server.h"
#include "src/util/rng.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace swdnn;
using namespace std::chrono_literals;
using conv::ConvShape;

constexpr int kTenants = 4;
constexpr int kReplicas = 2;
constexpr std::int64_t kMaxBatch = 8;
constexpr double kSteadyRps = 250;
constexpr double kOverloadRps = 6000;
constexpr auto kSteadyDeadline = 10s;
constexpr auto kOverloadDeadline = 50ms;
constexpr std::size_t kSteadyQueue = 4096;
constexpr std::size_t kOverloadQueue = 64;
// A 5 ms batcher budget fills steady-phase batches to about 2
// requests, which keeps the shared mesh executor under half busy at
// the steady rate (each FC launch costs about 3 ms of host time).
constexpr auto kBatchBudget = 5ms;
// Phase figures are medians over windows of due time, so one short
// host stall moves one window, not the run's figure.
constexpr double kSteadyWindowS = 2.0;
constexpr double kOverloadWindowS = 1.0;
constexpr int kDistinctSamples = 256;
const std::vector<std::int64_t> kSampleDims = {8, 8, 3};

ConvShape conv_shape(std::int64_t batch) {
  return ConvShape::from_output(batch, 3, 5, 6, 6, 3, 3);
}
constexpr std::int64_t kFcIn = 6 * 6 * 5, kFcOut = 10;

/// Fixed weights per call: every replica and the eager reference agree.
std::unique_ptr<dnn::Network> make_model(std::int64_t batch) {
  auto net = std::make_unique<dnn::Network>();
  util::Rng rng(777);
  net->emplace<dnn::Convolution>(conv_shape(batch), rng,
                                 dnn::ConvBackend::kHostIm2col,
                                 /*with_bias=*/true);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(kFcIn, kFcOut, rng);
  net->emplace<dnn::Softmax>();
  return net;
}

double forward_flops_per_sample() {
  return static_cast<double>(conv_shape(1).flops() +
                             dnn::BackendContext::fc_shape(kFcIn, kFcOut, 1).flops());
}

serve::ServerConfig server_config(std::size_t max_queue, sim::EventTracer* tracer) {
  serve::ServerConfig config;
  config.max_batch = static_cast<int>(kMaxBatch);
  config.num_replicas = kReplicas;
  config.batch_budget = kBatchBudget;
  config.max_queue = max_queue;
  config.max_queue_per_tenant = max_queue / 2;
  config.tracer = tracer;
  return config;
}

struct Request {
  std::size_t sample = 0;
  OpenLoopTiming timing;
  std::future<serve::ServeResult> future;
  serve::ServeResult result;
  bool resolved = false;
};

struct Phase {
  std::vector<Request> requests;
  double wall_s = 0;  ///< phase start -> last resolution
  serve::ServingCounters counters;  ///< delta over the phase
  CpuUsage usage_begin, usage_end;
  int peak_threads = 0;
};

/// a - b over the counters this benchmark reads.
serve::ServingCounters minus(serve::ServingCounters a, const serve::ServingCounters& b) {
  a.submitted -= b.submitted;
  a.completed -= b.completed;
  a.shed -= b.shed;
  a.deadline_missed -= b.deadline_missed;
  a.failed -= b.failed;
  a.batches -= b.batches;
  a.batched_requests -= b.batched_requests;
  a.rejected_queue_full -= b.rejected_queue_full;
  a.rejected_tenant_quota -= b.rejected_tenant_quota;
  a.rejected_breaker -= b.rejected_breaker;
  a.rejected_invalid -= b.rejected_invalid;
  a.rejected_shutdown -= b.rejected_shutdown;
  return a;
}

/// Drives one phase: submits request i at start + i / rate, then
/// collects every answer. `on_tick` runs between submissions at most
/// every 50 ms (the traced run digests its events there).
template <typename Tick>
Phase run_phase(serve::InferenceServer& server,
                const std::vector<tensor::Tensor>& samples, double rate,
                double seconds, Clock::duration deadline, std::uint64_t seed,
                Tick&& on_tick) {
  Phase ph;
  const auto n = static_cast<std::size_t>(rate * seconds);
  ph.requests.resize(n);
  util::Rng pick(seed);
  for (Request& r : ph.requests) {
    r.sample = static_cast<std::size_t>(pick.uniform(0, kDistinctSamples)) % kDistinctSamples;
  }
  const serve::ServingCounters before = server.counters();
  ph.usage_begin = cpu_usage();
  const Clock::time_point start = Clock::now();
  Clock::time_point next_tick = start;
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = ph.requests[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    r.timing.due_s = ms_between(start, due) * 1e-3;
    r.timing.sent_s = ms_between(start, sent) * 1e-3;
    r.future = server.submit(static_cast<int>(i % kTenants), samples[r.sample], due + deadline);
    if (sent >= next_tick) {
      on_tick();
      ph.peak_threads = std::max(ph.peak_threads, live_threads());
      next_tick = sent + 50ms;
    }
  }
  // Every future must resolve; one that does not within 10 s hangs.
  const Clock::time_point give_up = Clock::now() + 10s;
  for (Request& r : ph.requests) {
    if (r.future.wait_until(give_up) != std::future_status::ready) continue;
    r.result = r.future.get();
    r.resolved = true;
    // latency_ms is the server's own submit -> resolution stamp.
    r.timing.done_s = r.timing.sent_s + r.result.latency_ms * 1e-3;
    ph.wall_s = std::max(ph.wall_s, r.timing.done_s);
  }
  ph.usage_end = cpu_usage();
  ph.counters = minus(server.counters(), before);
  on_tick();
  return ph;
}

void warm_up(serve::InferenceServer& server, const tensor::Tensor& sample) {
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < kReplicas * kMaxBatch; ++i) {
    futures.push_back(server.submit(i % kTenants, sample));
  }
  for (auto& f : futures) f.get();
  server.drain();
}

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(double) * static_cast<std::size_t>(a.size())) == 0;
}

/// Closed loop of full bursts (one max_batch per replica), each waited
/// for before the next, for `seconds`; returns process CPU ms per
/// request of each burst. Every answer must be kOk and bitwise-equal to
/// `expected` of its sample, within 10 s.
std::vector<double> run_bursts(serve::InferenceServer& server,
                               const std::vector<tensor::Tensor>& samples,
                               const std::vector<tensor::Tensor>& expected,
                               double seconds, std::uint64_t seed, Report& report) {
  constexpr std::size_t kBurst = kReplicas * kMaxBatch;
  util::Rng pick(seed);
  std::vector<double> cpu_ms_per_request;
  std::size_t wrong = 0;
  const Clock::time_point start = Clock::now();
  while (cpu_ms_per_request.size() < 10 || ms_since(start) < seconds * 1e3) {
    std::vector<std::size_t> picked(kBurst);
    std::vector<std::future<serve::ServeResult>> futures;
    const double cpu0 = process_cpu_ms();
    for (std::size_t i = 0; i < kBurst; ++i) {
      picked[i] = static_cast<std::size_t>(pick.uniform(0, kDistinctSamples)) % kDistinctSamples;
      futures.push_back(server.submit(static_cast<int>(i % kTenants), samples[picked[i]],
                                      Clock::now() + kSteadyDeadline));
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      ++report.attempted;
      if (futures[i].wait_for(10s) != std::future_status::ready) {  // hangs
        ++wrong;
        continue;
      }
      const serve::ServeResult r = futures[i].get();
      if (r.status != serve::ServeStatus::kOk ||
          !bitwise_equal(r.output, expected[picked[i]])) {
        ++wrong;
      }
    }
    cpu_ms_per_request.push_back((process_cpu_ms() - cpu0) / static_cast<double>(kBurst));
  }
  report.failed += wrong;
  if (wrong > 0) {
    report.correct = false;
    report.note("CHECK FAILED: %zu burst answers not kOk or not equal to the eager "
                "batch-1 forward", wrong);
  }
  return cpu_ms_per_request;
}

}  // namespace

Report run_serve_open_loop(const Options& options) {
  Report report;

  util::Rng rng(options.seed);
  std::vector<tensor::Tensor> samples;
  std::vector<tensor::Tensor> expected;  // eager batch-1 forward
  {
    auto eager = make_model(1);
    eager->set_training(false);
    std::vector<std::int64_t> dims = kSampleDims;
    dims.push_back(1);
    for (int i = 0; i < kDistinctSamples; ++i) {
      tensor::Tensor s(kSampleDims);
      rng.fill_uniform(s.data(), -1.0, 1.0);
      tensor::Tensor input(dims);
      std::copy(s.data().begin(), s.data().end(), input.data().begin());
      expected.push_back(eager->forward(input));
      samples.push_back(std::move(s));
    }
  }

  // --- set-up, nine times: server start (compile, plan warm-up,
  // threads) and one full batch per replica, which creates the lazy
  // mesh executor and first-touches the lanes. setup_s is its process
  // CPU time, like every end-to-end cost.
  const auto start_server = [&](std::size_t max_queue) {
    auto started = std::make_unique<serve::InferenceServer>(
        make_model, kSampleDims, server_config(max_queue, nullptr));
    warm_up(*started, samples.front());
    return started;
  };
  std::vector<double> setup_s;
  std::unique_ptr<serve::InferenceServer> server;
  for (int rep = 0; rep < 9; ++rep) {
    server.reset();
    const double cpu0 = process_cpu_ms();
    server = start_server(kSteadyQueue);
    setup_s.push_back((process_cpu_ms() - cpu0) * 1e-3);
  }
  report.set("setup_s", median(setup_s));

  // Outcome checks shared by the phases. A wrong output, a future that
  // never resolves, kFailed or kShutdown is a wrong answer: it fails the
  // run. In the steady phase a refusal, shed or missed deadline is a
  // failed operation (it counts in fail_ratio, and as infinitely late)
  // but not a wrong answer; under overload those outcomes are the
  // admission-control contract and count as neither.
  const auto check_phase = [&](const Phase& ph, bool steady) {
    std::size_t mismatched = 0, unresolved = 0, errors = 0;
    for (const Request& r : ph.requests) {
      ++report.attempted;
      if (!r.resolved) {
        ++unresolved;
      } else if (r.result.status == serve::ServeStatus::kOk) {
        if (!bitwise_equal(r.result.output, expected[r.sample])) ++mismatched;
      } else if (r.result.status == serve::ServeStatus::kFailed ||
                 r.result.status == serve::ServeStatus::kShutdown) {
        ++errors;
      } else if (steady) {
        ++report.failed;
      }
    }
    report.failed += mismatched + unresolved + errors;
    if (mismatched + unresolved + errors > 0) {
      report.correct = false;
      report.note("CHECK FAILED: %zu kOk outputs differ from the eager batch-1 "
                  "forward, %zu futures unresolved after 10 s, %zu kFailed/kShutdown",
                  mismatched, unresolved, errors);
    }
  };
  // Due-time latency per window; a request that is not kOk counts as
  // missing any latency limit.
  const auto latency_windows = [](const Phase& ph) {
    std::vector<std::vector<double>> windows;
    for (const Request& r : ph.requests) {
      const auto w = static_cast<std::size_t>(r.timing.due_s / kSteadyWindowS);
      if (windows.size() <= w) windows.resize(w + 1);
      const bool ok = r.resolved && r.result.status == serve::ServeStatus::kOk;
      windows[w].push_back(ok ? due_latency_ms(r.timing) : 1e300);
    }
    return windows;
  };

  const double share = options.trace ? 0.5 : 1.0;
  const double steady_s = 0.45 * share * options.seconds;
  const double bursts_s = 0.25 * share * options.seconds;
  const double overload_s = 0.3 * share * options.seconds;
  const Phase steady = run_phase(*server, samples, kSteadyRps, steady_s,
                                 kSteadyDeadline, options.seed + 1, [] {});
  server->drain();
  const std::vector<double> burst_cpu_ms =
      run_bursts(*server, samples, expected, bursts_s, options.seed + 3, report);
  server->drain();
  server.reset();
  server = start_server(kOverloadQueue);
  const Phase overload = run_phase(*server, samples, kOverloadRps, overload_s,
                                   kOverloadDeadline, options.seed + 2, [] {});
  server->drain();
  check_phase(steady, true);
  check_phase(overload, false);

  const std::vector<std::vector<double>> lat_windows = latency_windows(steady);
  std::vector<double> lat;
  for (const auto& w : lat_windows) lat.insert(lat.end(), w.begin(), w.end());
  report.set("wall.latency_p50_ms", median_of_window_quantiles(lat_windows, 0.5));
  report.set("wall.latency_p90_ms", median_of_window_quantiles(lat_windows, 0.9));
  // Goodput: kOk answers to the requests due in each whole window.
  std::vector<double> window_ok(static_cast<std::size_t>(overload_s / kOverloadWindowS), 0);
  for (const Request& r : overload.requests) {
    const auto w = static_cast<std::size_t>(r.timing.due_s / kOverloadWindowS);
    if (w < window_ok.size() && r.resolved && r.result.status == serve::ServeStatus::kOk) {
      ++window_ok[w];
    }
  }
  const double goodput = median(window_ok) / kOverloadWindowS;
  report.set("wall.throughput_per_s", goodput);
  report.set("wall.gflop_per_host_s", goodput * forward_flops_per_sample() / 1e9);
  // Cost: process CPU per request, median over the full bursts.
  const double cpu_ms_per_request = median(burst_cpu_ms);
  report.set("cpu_ms_per_op", cpu_ms_per_request);
  report.set("gflop_per_cpu_s", forward_flops_per_sample() / (cpu_ms_per_request * 1e-3) / 1e9);
  set_model_gflops(report, server->context().handle(),
                   {conv_shape(kMaxBatch),
                    dnn::BackendContext::fc_shape(kFcIn, kFcOut, kMaxBatch)});
  std::vector<OpenLoopTiming> timings;
  for (const Request& r : steady.requests) timings.push_back(r.timing);
  const double tail = supported_tail_level(lat.size());
  report.note("steady: %zu requests at %.0f rps, p50 %.3f ms, p90 %.3f ms, "
              "p%.1f %.3f ms, generator lag max %.3f ms",
              steady.requests.size(), kSteadyRps, median(lat), quantile(lat, 0.9),
              100 * tail, quantile(lat, tail), max_generator_lag_ms(timings));
  report.note("bursts: %zu of %lld requests, median %.3f cpu ms per request",
              burst_cpu_ms.size(), static_cast<long long>(kReplicas * kMaxBatch),
              cpu_ms_per_request);
  report.note("overload: %zu requests at %.0f rps, goodput %.1f rps, completed %llu, "
              "shed %llu, rejected %llu, deadline missed %llu",
              overload.requests.size(), kOverloadRps, goodput,
              static_cast<unsigned long long>(overload.counters.completed),
              static_cast<unsigned long long>(overload.counters.shed),
              static_cast<unsigned long long>(overload.counters.rejected()),
              static_cast<unsigned long long>(overload.counters.deadline_missed));

  if (options.trace) {
    set_runtime_metrics(report, steady.usage_begin, steady.usage_end, steady.wall_s,
                        static_cast<double>(steady.requests.size()), steady.peak_threads);
    report.set("serve.latency_p99_ms", quantile(lat, 0.99));
    report.set("serve.generator_lag_ms_max", max_generator_lag_ms(timings));
    report.set("serve.batch_occupancy",
               steady.counters.batches > 0
                   ? static_cast<double>(steady.counters.batched_requests) /
                         static_cast<double>(steady.counters.batches)
                   : 0);
    report.set("serve.shed", static_cast<double>(overload.counters.shed));
    report.set("serve.rejected", static_cast<double>(overload.counters.rejected()));
    report.set("serve.deadline_missed", static_cast<double>(overload.counters.deadline_missed));
    set_handle_counters(report, server->context().handle());
    report.set("tensor.arena_peak_bytes",
               static_cast<double>(server->compiled_stats().arena_peak_bytes));

    // Traced run: a second server with the tracer attached, offered the
    // steady load again. Node spans are digested every 50 ms and the
    // tracer cleared, which bounds its memory.
    sim::EventTracer tracer;
    std::vector<sim::TraceEvent> spans;
    const auto digest = [&] {
      for (sim::TraceEvent& e : tracer.events()) {
        if (e.category == "layer") spans.push_back(std::move(e));
      }
      tracer.clear();
    };
    server.reset();
    serve::InferenceServer traced_server(make_model, kSampleDims,
                                         server_config(kSteadyQueue, &tracer));
    warm_up(traced_server, samples.front());
    digest();
    spans.clear();
    const Phase traced = run_phase(traced_server, samples, kSteadyRps, steady_s,
                                   kSteadyDeadline, options.seed + 1, digest);
    traced_server.drain();
    check_phase(traced, true);
    report.set("trace.overhead_ratio",
               median_of_window_quantiles(latency_windows(traced), 0.5) / median_of_window_quantiles(lat_windows, 0.5));
    const NodeProfile served = profile_nodes(spans);
    double batch_exec = 0;
    for (const auto& [node, ms] : served.fwd_ms) batch_exec += median(ms);
    report.set("serve.batch_exec_ms_p50", batch_exec);
    std::vector<double> server_ms;
    for (const Request& r : traced.requests) {
      if (r.resolved && r.result.status == serve::ServeStatus::kOk) {
        server_ms.push_back(r.result.latency_ms);
      }
    }
    report.set("serve.queue_wait_ms_p50", median(server_ms) - batch_exec);
    traced_server.stop();

    // Profile: one compiled replica alone, forward only, traced; its
    // node spans must add back up to the measured forward.
    sim::EventTracer profile_tracer;
    auto net = make_model(kMaxBatch);
    dnn::CompileOptions co;
    co.tracer = &profile_tracer;
    std::vector<std::int64_t> dims = kSampleDims;
    dims.push_back(kMaxBatch);
    const Clock::time_point compile_t0 = Clock::now();
    net->compile(dims, co);  // shape inference, plan warm-up, autotune
    report.set("perf.warmup_ms", ms_since(compile_t0));
    net->set_training(false);
    tensor::Tensor batch(dims);
    for (int s = 0; s < kMaxBatch; ++s) serve::pack_sample(batch, s, samples[static_cast<std::size_t>(s)].data());
    net->forward(batch);  // first touch
    const std::uint64_t alloc0 = tensor::allocation_count();
    std::vector<double> fwd_ms, ratio;
    std::vector<sim::TraceEvent> events;
    for (int i = 0; i < 15; ++i) {
      profile_tracer.clear();
      const Clock::time_point t0 = Clock::now();
      net->forward(batch);
      fwd_ms.push_back(ms_since(t0));
      const std::vector<sim::TraceEvent> ev = profile_tracer.events();
      ratio.push_back(profile_nodes(ev).total_ms / fwd_ms.back());
      events.insert(events.end(), ev.begin(), ev.end());
    }
    report.set("tensor.allocs_per_step",
               static_cast<double>(tensor::allocation_count() - alloc0) / 15.0);
    const NodeProfile profile = profile_nodes(events);
    set_node_metrics(report, profile);
    report.set("dnn.forward_ms", median(fwd_ms));
    report.set("dnn.node_sum_over_step", median(ratio));
    for (const auto& [node, mesh] : profile.on_mesh) {
      report.note("  node %-14s fwd %8.3f ms  %s", node.c_str(),
                  median(profile.fwd_ms.at(node)), mesh ? "mesh" : "host");
    }

    const std::vector<ConvShape> fc = {dnn::BackendContext::fc_shape(kFcIn, kFcOut, kMaxBatch)};
    probe_host_conv(report, {conv_shape(kMaxBatch)}, 15, /*backward=*/false, options.seed);
    probe_rank(report, {conv_shape(kMaxBatch), fc.front()});
    probe_mesh(report, net->context()->handle(), fc, 15, options.seed);
  }
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

}  // namespace perfbench
