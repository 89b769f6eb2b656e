#pragma once
// The mesh launches pinned by the golden fixtures in this directory.
//
// Each case runs one mesh kernel family (mesh GEMM on the bulk and the
// Vec4 bus, the image-size-aware and batch-size-aware algorithms, the
// filter-grained and pixel-grained mappings, backward-filter) on a
// 2x2, 4x4 or 8x8 mesh, once unfaulted and once under a seeded fault
// campaign (DMA faults absorbed by retries, forced misalignment, bus
// stalls, LDM bit flips). It renders everything the simulator reports
// about the run into a text block:
//
//   * every LaunchStats field (doubles in hex-float, so exact);
//   * an FNV-1a hash of the output bytes;
//   * per CPE, the number and an FNV-1a hash of its trace events
//     (category, name, begin, end) in recording order;
//   * per fault site, the number of injected events, plus a hash of the
//     sorted FaultInjector::events() list (site, unit, sequence,
//     detail).
//
// `capture_golden` writes these blocks to fiber_golden.txt;
// sim_fiber_golden_test recomputes them and requires every line to be
// equal. The helpers use only the simulator's public interface, so the
// same header builds against any executor implementation.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/conv/backward.h"
#include "src/conv/ldm_blocked.h"
#include "src/conv/mesh_gemm_driver.h"
#include "src/conv/multigrain.h"
#include "src/conv/reference.h"
#include "src/sim/executor.h"
#include "src/util/rng.h"

namespace swdnn::golden {

inline arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

/// FNV-1a, 64 bit.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    bytes("|", 1);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
};

/// Output bytes, with every NaN folded to one pattern: a poisoned LDM
/// word propagates as NaN, and its payload bits are not an observable
/// the simulator promises.
inline std::uint64_t hash_output(std::span<const double> out) {
  Fnv f;
  for (double v : out) {
    if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    f.bytes(&v, sizeof(v));
  }
  return f.h;
}

/// The seeded campaign of the faulted runs.
inline sim::FaultPlan golden_fault_plan() {
  sim::FaultPlan plan;
  plan.seed = 2024;
  plan.dma_fault_rate = 0.05;
  plan.dma_misalign_rate = 0.1;
  plan.regcomm_stall_rate = 0.05;
  plan.regcomm_stall_cycles = 96;
  plan.ldm_bitflip_rate = 0.03;
  return plan;
}

inline const sim::RetryPolicy kGoldenRetry{/*max_attempts=*/4,
                                           /*backoff_cycles=*/8};

enum class Family {
  kGemmBulk,
  kGemmVec4,
  kImageSizeAware,
  kBatchSizeAware,
  kFilterGrained,
  kPixelGrained,
  kBackwardFilter,
};

inline const char* family_name(Family f) {
  switch (f) {
    case Family::kGemmBulk: return "gemm_bulk";
    case Family::kGemmVec4: return "gemm_vec4";
    case Family::kImageSizeAware: return "image_size_aware";
    case Family::kBatchSizeAware: return "batch_size_aware";
    case Family::kFilterGrained: return "filter_grained";
    case Family::kPixelGrained: return "pixel_grained";
    case Family::kBackwardFilter: return "backward_filter";
  }
  return "?";
}

inline constexpr Family kFamilies[] = {
    Family::kGemmBulk,       Family::kGemmVec4,      Family::kImageSizeAware,
    Family::kBatchSizeAware, Family::kFilterGrained, Family::kPixelGrained,
    Family::kBackwardFilter};
inline constexpr int kMeshDims[] = {2, 4, 8};

/// Shapes and plans the Algorithm 1/2 kernels accept on each mesh
/// (channels and batch tiles divide the mesh dimension).
inline conv::ConvShape blocked_shape(Family f, int mesh) {
  const bool image = f == Family::kImageSizeAware;
  switch (mesh) {
    case 2:
      return image ? conv::ConvShape::from_output(4, 4, 2, 4, 4, 3, 3)
                   : conv::ConvShape::from_output(6, 4, 2, 4, 4, 3, 3);
    case 4:
      return image ? conv::ConvShape::from_output(8, 4, 4, 3, 4, 2, 2)
                   : conv::ConvShape::from_output(8, 4, 8, 3, 4, 2, 2);
    default:
      return conv::ConvShape::from_output(8, 8, 8, 2, 2, 2, 2);
  }
}

inline perf::ConvPlan blocked_plan(Family f, int mesh) {
  perf::ConvPlan plan;
  if (f == Family::kImageSizeAware) {
    plan.kind = perf::PlanKind::kImageSizeAware;
    plan.block_b = mesh == 2 ? 4 : mesh;
    plan.block_co = mesh == 2 ? 4 : 2;
  } else {
    plan.kind = perf::PlanKind::kBatchSizeAware;
    plan.block_b = 0;
    plan.block_co = mesh == 2 ? 4 : 2;
  }
  return plan;
}

/// The ragged shape of the filter-grained and backward-filter cases
/// (no dimension divides a mesh).
inline conv::ConvShape ragged_shape() {
  return conv::ConvShape::from_output(3, 5, 7, 4, 6, 3, 3);
}

struct CaseResult {
  sim::LaunchStats stats;
  std::uint64_t output_hash = 0;
};

/// Runs one case's launches on `exec` (tracer and injector already
/// attached by the caller).
inline CaseResult run_family(sim::MeshExecutor& exec, Family f, int mesh) {
  CaseResult r;
  util::Rng rng(1000 + static_cast<unsigned>(f) * 10 +
                static_cast<unsigned>(mesh));
  switch (f) {
    case Family::kGemmBulk:
    case Family::kGemmVec4: {
      const std::int64_t m = 13, k = 29, n = 11;
      std::vector<double> a(static_cast<std::size_t>(k * m));
      std::vector<double> b(static_cast<std::size_t>(k * n));
      std::vector<double> out(static_cast<std::size_t>(m * n));
      rng.fill_normal(a, 0.0, 1.0);
      rng.fill_normal(b, 0.0, 1.0);
      conv::MeshGemmOptions options;
      options.bus_mode = f == Family::kGemmBulk
                             ? conv::BusPathMode::kBulkSpan
                             : conv::BusPathMode::kVec4Reference;
      r.stats = conv::mesh_gemm(exec, a, b, out, m, k, n, options);
      r.output_hash = hash_output(out);
      return r;
    }
    case Family::kImageSizeAware:
    case Family::kBatchSizeAware: {
      const conv::ConvShape shape = blocked_shape(f, mesh);
      const perf::ConvPlan plan = blocked_plan(f, mesh);
      tensor::Tensor in = conv::make_input(shape);
      tensor::Tensor w = conv::make_filter(shape);
      tensor::Tensor out = conv::make_output(shape);
      rng.fill_uniform(in.data(), -1, 1);
      rng.fill_uniform(w.data(), -1, 1);
      r.stats = f == Family::kImageSizeAware
                    ? conv::run_image_size_aware(exec, in, w, out, shape, plan)
                    : conv::run_batch_size_aware(exec, in, w, out, shape, plan);
      r.output_hash = hash_output(out.data());
      return r;
    }
    case Family::kFilterGrained:
    case Family::kPixelGrained: {
      const conv::ConvShape shape =
          f == Family::kFilterGrained
              ? ragged_shape()
              : conv::ConvShape::from_output(2, 3, 8, 5, 5, 2, 2);
      perf::ConvPlan plan;
      plan.kind = f == Family::kFilterGrained ? perf::PlanKind::kFilterGrained
                                              : perf::PlanKind::kPixelGrained;
      tensor::Tensor in = conv::make_input(shape);
      tensor::Tensor w = conv::make_filter(shape);
      tensor::Tensor out = conv::make_output(shape);
      rng.fill_uniform(in.data(), -1, 1);
      rng.fill_uniform(w.data(), -1, 1);
      r.stats = f == Family::kFilterGrained
                    ? conv::run_filter_grained(exec, in, w, out, shape, plan)
                    : conv::run_pixel_grained(exec, in, w, out, shape, plan);
      r.output_hash = hash_output(out.data());
      return r;
    }
    case Family::kBackwardFilter: {
      const conv::ConvShape shape = ragged_shape();
      tensor::Tensor in = conv::make_input(shape);
      tensor::Tensor d_out = conv::make_output(shape);
      tensor::Tensor d_w = conv::make_filter(shape);
      rng.fill_uniform(in.data(), -1, 1);
      rng.fill_uniform(d_out.data(), -1, 1);
      r.stats = conv::mesh_backward_filter(exec, in, d_out, d_w, shape);
      r.output_hash = hash_output(d_w.data());
      return r;
    }
  }
  return r;
}

inline std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

inline std::string case_name(Family f, int mesh, bool faulted) {
  return std::string(family_name(f)) + "/mesh" + std::to_string(mesh) +
         (faulted ? "/faulted" : "/clean");
}

/// Runs one case on a fresh executor and renders its observables, one
/// "key value..." line each. `failure_override` (capture only) replaces
/// the rendered LaunchStats::failure.
inline std::vector<std::string> render_case(
    Family f, int mesh, bool faulted, const std::string* failure_override,
    sim::LaunchStats* stats_out = nullptr,
    std::vector<sim::FaultEvent>* events_out = nullptr) {
  sim::MeshExecutor exec(mesh_spec(mesh));
  sim::EventTracer tracer;
  sim::FaultInjector injector(golden_fault_plan());
  exec.set_tracer(&tracer);
  if (faulted) {
    exec.set_fault_injector(&injector);
    exec.set_retry_policy(kGoldenRetry);
  }
  const CaseResult r = run_family(exec, f, mesh);
  const sim::LaunchStats& s = r.stats;
  if (stats_out != nullptr) *stats_out = s;

  std::vector<std::string> lines;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "stats max_compute_cycles=%" PRIu64 " total_flops=%" PRIu64
                " regcomm_messages=%" PRIu64,
                s.max_compute_cycles, s.total_flops, s.regcomm_messages);
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof(buf),
                "dma get_bytes=%" PRIu64 " put_bytes=%" PRIu64
                " requests=%" PRIu64 " misaligned=%" PRIu64,
                s.dma.get_bytes, s.dma.put_bytes, s.dma.requests,
                s.dma.misaligned_requests);
  lines.emplace_back(buf);
  lines.push_back("seconds dma=" + hex_double(s.dma_seconds) +
                  " compute=" + hex_double(s.compute_seconds));
  std::snprintf(buf, sizeof(buf),
                "fault failed=%d persistent=%d fault_events=%" PRIu64
                " dma_retries=%" PRIu64,
                s.failed ? 1 : 0, s.persistent_fault ? 1 : 0, s.fault_events,
                s.dma_retries);
  lines.emplace_back(buf);
  const std::string& failure =
      failure_override != nullptr ? *failure_override : s.failure;
  lines.push_back("failure " + (failure.empty() ? std::string("-") : failure));
  std::snprintf(buf, sizeof(buf), "output %016" PRIx64, r.output_hash);
  lines.emplace_back(buf);

  const std::vector<sim::TraceEvent> trace = tracer.events();
  const int cpes = mesh * mesh;
  std::vector<Fnv> per_cpe(static_cast<std::size_t>(cpes));
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(cpes), 0);
  for (const sim::TraceEvent& e : trace) {
    if (e.cpe < 0 || e.cpe >= cpes) continue;
    Fnv& h = per_cpe[static_cast<std::size_t>(e.cpe)];
    h.str(e.category);
    h.str(e.name);
    h.u64(e.begin_cycle);
    h.u64(e.end_cycle);
    ++counts[static_cast<std::size_t>(e.cpe)];
  }
  for (int id = 0; id < cpes; ++id) {
    std::snprintf(buf, sizeof(buf), "trace cpe=%d events=%" PRIu64
                  " hash=%016" PRIx64,
                  id, counts[static_cast<std::size_t>(id)],
                  per_cpe[static_cast<std::size_t>(id)].h);
    lines.emplace_back(buf);
  }

  const std::vector<sim::FaultEvent> events = injector.events();
  if (events_out != nullptr) *events_out = events;
  std::map<std::string, std::uint64_t> per_site;
  Fnv fh;
  for (const sim::FaultEvent& e : events) {
    ++per_site[sim::fault_site_name(e.site)];
    fh.u64(static_cast<std::uint64_t>(e.site));
    fh.u64(static_cast<std::uint64_t>(e.unit));
    fh.u64(e.sequence);
    fh.str(e.detail);
  }
  std::string site_line = "faults events=" + std::to_string(events.size());
  for (const auto& [site, n] : per_site) {
    site_line += " " + site + "=" + std::to_string(n);
  }
  std::snprintf(buf, sizeof(buf), " hash=%016" PRIx64, fh.h);
  lines.push_back(site_line + buf);
  return lines;
}

}  // namespace swdnn::golden
