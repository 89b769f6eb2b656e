#pragma once
// SPMD kernel launcher for the simulated CPE mesh.
//
// A "kernel" is a callable executed once per CPE — the same
// single-program-multiple-data shape as real athread kernels on
// SW26010. The CpeContext a kernel receives exposes exactly the machine
// resources the paper's kernels use:
//
//   * its mesh coordinates,
//   * its private LDM (capacity-enforced),
//   * DMA get/put between "global memory" (host spans) and LDM,
//   * register communication over the row/column buses,
//   * a mesh-wide barrier (the athread sync),
//   * cycle-accounting hooks for compute work.
//
// Functional correctness never depends on the accounting; timing
// counters only feed the statistics block returned by run().
//
// Host execution strategy: a fiber scheduler. run() executes the
// launch's CPE kernels as stackful fibers on the calling thread, in a
// fixed round-robin over CPE ids. The athread model's only blocking
// points are the bus Get/Put and the sync, so a fiber runs until it
// reaches one that cannot proceed — a Get on an empty transfer buffer,
// a Vec4 Put into a buffer at its slot capacity, or a sync() its peers
// have not reached — and then yields to the scheduler, which resumes
// the next CPE whose wait is satisfied. There are no host threads, locks
// or condition variables per launch. Modeled observables (cycles,
// flops, message counts, DMA totals, traces, fault decisions) are
// charged per CPE exactly as before: cycle accounting is decoupled from
// how the host schedules the simulation. When no unfinished CPE can
// proceed, run() unwinds every fiber and throws MeshDeadlock, naming
// each blocked CPE and what it waits on. Host parallelism lives one
// level up: concurrent launches run on separate executors.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "src/arch/spec.h"
#include "src/sim/dma.h"
#include "src/sim/fault.h"
#include "src/sim/mesh.h"
#include "src/sim/trace.h"

namespace swdnn::sim {

class MeshExecutor;

/// A mesh-protocol bug caught by the fiber scheduler: every CPE that has
/// not finished is blocked on a bus buffer or the barrier, so the launch
/// can never complete (a Get with no sender, a CPE that skipped a
/// sync()). what() names each blocked CPE and what it waits on. The
/// executor stays usable: the next launch starts from a clean mesh.
class MeshDeadlock : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CpeContext {
 public:
  CpeContext(MeshExecutor& exec, CpeMesh& mesh, DmaEngine& dma, int row,
             int col);

  // --- Identity ------------------------------------------------------
  int row() const { return row_; }
  int col() const { return col_; }
  int id() const { return row_ * mesh_.cols() + col_; }
  int mesh_rows() const { return mesh_.rows(); }
  int mesh_cols() const { return mesh_.cols(); }
  const arch::Sw26010Spec& spec() const { return mesh_.spec(); }

  // --- LDM -------------------------------------------------------------
  LdmAllocator& ldm() { return cell().ldm; }

  // --- DMA (functional copy + Table II cost accounting) ----------------
  /// Contiguous MEM -> LDM transfer. dst.size() must equal src.size().
  void dma_get(std::span<const double> src, std::span<double> dst);

  /// Contiguous LDM -> MEM transfer.
  void dma_put(std::span<const double> src, std::span<double> dst);

  /// Strided gather: copies `nblocks` runs of `block_elems` doubles,
  /// source runs separated by `stride_elems`, packed densely into dst.
  /// The DMA cost uses `block_elems` as the per-block size — exactly why
  /// the paper's layouts fight for large leading dimensions.
  void dma_get_strided(const double* src_base, std::int64_t nblocks,
                       std::int64_t block_elems, std::int64_t stride_elems,
                       std::span<double> dst);

  /// Strided scatter (inverse of dma_get_strided).
  void dma_put_strided(std::span<const double> src, double* dst_base,
                       std::int64_t nblocks, std::int64_t block_elems,
                       std::int64_t stride_elems);

  // --- Register communication ------------------------------------------
  /// Sends one 256-bit register to CPE(row(), dst_col) over the row bus.
  void put_row(int dst_col, const Vec4& value);

  /// Sends one 256-bit register to CPE(dst_row, col()) over the column
  /// bus.
  void put_col(int dst_row, const Vec4& value);

  /// Broadcasts to every other CPE on this row / column (the hardware
  /// multicast the vldr/vldc-based kernels rely on).
  void bcast_row(const Vec4& value);
  void bcast_col(const Vec4& value);

  /// Receives the next message from this CPE's row/column transfer
  /// buffer (yields to the scheduler while it is empty). A Put yields
  /// while the destination buffer is at its slot capacity.
  Vec4 get_row();
  Vec4 get_col();

  // --- Bulk register communication -------------------------------------
  /// Span-level bus primitives: broadcast/receive a whole tile of
  /// doubles as ceil(n/4) 256-bit messages. Per-message accounting
  /// (stall-fault polls, trace events, one issue cycle per broadcast,
  /// get latency per receive, regcomm message counts) is charged
  /// identically to a loop over the Vec4 primitives; only the host-side
  /// transfer-buffer traffic is batched (a bulk broadcast never waits on
  /// the slot capacity).
  void bcast_row_span(std::span<const double> data);
  void bcast_col_span(std::span<const double> data);
  void recv_row_span(std::span<double> out);
  void recv_col_span(std::span<double> out);

  // --- Synchronization ---------------------------------------------------
  /// Mesh-wide barrier: yields until every CPE of the mesh arrived.
  void sync();

  // --- Timing hooks -------------------------------------------------------
  /// Charges `flops` of fully-vectorized FMA work (8 flop/cycle).
  void charge_flops(std::uint64_t flops);

  /// Charges raw cycles (for non-vector or bookkeeping work).
  /// Saturates at UINT64_MAX instead of wrapping.
  void charge_cycles(std::uint64_t cycles);

  std::uint64_t compute_cycles() const { return cell().compute_cycles; }

  // --- Fault handling -----------------------------------------------------
  /// Marks the whole launch failed (kernels keep running to drain
  /// barriers; the driver inspects LaunchStats afterwards). The reported
  /// message is the first failure of the lowest-numbered failing CPE,
  /// independent of the order the host ran the CPEs in.
  void fail_launch(const std::string& message, bool persistent);

 private:
  CpeCell& cell() { return mesh_.cell(row_, col_); }
  const CpeCell& cell() const { return mesh_.cell(row_, col_); }
  bool block_aligned(std::int64_t bytes) const {
    return bytes % static_cast<std::int64_t>(spec().dma_alignment_bytes) == 0;
  }
  bool dma_attempt(std::uint64_t bytes, std::int64_t block_bytes,
                   perf::DmaDirection dir, bool aligned);
  bool dma_aligned(std::int64_t bytes);
  void maybe_stall_bus();
  void charge_broadcast(std::uint64_t messages, std::uint64_t fanout,
                        const char* trace_name);
  std::uint64_t record_dma(std::uint64_t bytes, std::int64_t block_bytes,
                           perf::DmaDirection dir, bool aligned);

  MeshExecutor& exec_;
  CpeMesh& mesh_;
  DmaEngine& dma_;
  int row_;
  int col_;
};

/// Aggregate results of one kernel launch.
struct LaunchStats {
  std::uint64_t max_compute_cycles = 0;  ///< slowest CPE's compute cycles
  std::uint64_t total_flops = 0;
  std::uint64_t regcomm_messages = 0;    ///< 256-bit bus messages
  DmaTotals dma;
  double dma_seconds = 0;      ///< Table II-costed DMA engine occupancy
  double compute_seconds = 0;  ///< max_compute_cycles / clock

  // Fault outcome of the launch (only set when an injector is attached).
  bool failed = false;           ///< a fault site exhausted its recovery
  bool persistent_fault = false; ///< retries exhausted / dead resource
  std::string failure;           ///< lowest failing CPE's first failure
  std::uint64_t fault_events = 0;  ///< injector events during this launch
  std::uint64_t dma_retries = 0;   ///< tile transfers re-issued after faults

  /// End-to-end model. With double buffering DMA overlaps compute, so
  /// the launch takes max(compute, dma); without, they serialize.
  double modeled_seconds(bool overlap = true) const {
    return overlap ? std::max(compute_seconds, dma_seconds)
                   : compute_seconds + dma_seconds;
  }

  /// Modeled throughput in Gflop/s for this launch.
  double modeled_gflops(bool overlap = true) const {
    const double s = modeled_seconds(overlap);
    return s > 0 ? static_cast<double>(total_flops) / s / 1e9 : 0.0;
  }

  /// Bytes that travelled over register-communication buses instead of
  /// memory (the §V-A "order of magnitude" saving shows up here).
  std::uint64_t regcomm_bytes() const { return regcomm_messages * 32; }

  /// Folds in a launch that ran after this one on the same mesh (one
  /// logical operation issued as several launches): every counter and
  /// modeled time adds up, and the first failure stays the reported one.
  void merge(const LaunchStats& later);
};

class MeshExecutor {
 public:
  using Kernel = std::function<void(CpeContext&)>;

  explicit MeshExecutor(const arch::Sw26010Spec& spec = arch::default_spec());
  ~MeshExecutor();

  MeshExecutor(const MeshExecutor&) = delete;
  MeshExecutor& operator=(const MeshExecutor&) = delete;

  /// Runs `kernel` once per CPE as fibers on the calling thread and
  /// returns the aggregated statistics. Each fiber starts with the
  /// calling thread's floating-point control state (rounding mode); a
  /// kernel that changes it changes only its own fiber's, never the
  /// caller's or another CPE's. Fibers switch only at the blocking
  /// points, by saving and restoring the callee-saved registers and the
  /// control state (no system call; see DESIGN.md §12). With neither a
  /// tracer nor a fault injector attached, nothing observes individual
  /// bus messages, so span broadcasts charge their per-message cycles
  /// and counts in one step; the statistics are identical either way.
  /// Throws MeshDeadlock when the CPEs block each other for good. Any
  /// other exception escaping a kernel aborts the process with a
  /// diagnostic: a throwing kernel is a programming error. Not
  /// reentrant: one launch at a time per executor (callers that share
  /// an executor across threads serialize externally).
  LaunchStats run(const Kernel& kernel);

  const arch::Sw26010Spec& spec() const { return spec_; }

  /// Attaches an event tracer; every subsequent launch records its DMA,
  /// bus, and barrier events into it. Pass nullptr to detach. The
  /// tracer must outlive the launches it observes.
  void set_tracer(EventTracer* tracer) { tracer_ = tracer; }
  EventTracer* tracer() const { return tracer_; }

  /// Attaches a fault campaign; every subsequent launch polls it at the
  /// DMA, LDM, and register-communication sites. Pass nullptr to
  /// detach. The injector must outlive the launches it disturbs.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Bounded retry-with-backoff applied to faulting DMA tile
  /// transfers during launches on this executor.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

 private:
  friend class CpeContext;
  struct Fibers;  // fiber stacks, contexts and wait states (executor.cc)

  /// Resets mesh/DMA/barrier/failure state in place and re-attaches the
  /// fault campaign for the next launch.
  void prepare_launch();

  /// Runs one CPE's kernel with the abort-on-throw contract.
  void execute_cell(const Kernel& kernel, int row, int col);

  /// Round-robin scheduler: resumes every CPE fiber whose wait is
  /// satisfied until all finished; throws MeshDeadlock otherwise.
  void schedule(const Kernel& kernel);

  // Blocking points, called from CPE fibers: each yields to the
  // scheduler until its condition holds.
  void wait_readable(int cpe, const TransferBuffer& buffer, bool row_bus);
  void wait_writable(int cpe, int dst_cpe, const TransferBuffer& buffer,
                     bool row_bus);
  void arrive_and_wait(int cpe);

  /// Records a launch failure (LDM fault callback, fail_launch).
  void latch_failure(int cpe, const std::string& message, bool persistent);

  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
  CpeMesh mesh_;            // persistent, reset in place per launch
  DmaEngine dma_;           // persistent, reset per launch
  EventTracer* tracer_ = nullptr;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  std::unique_ptr<Fibers> fibers_;  // created on the first launch

  // Mesh barrier: arrivals in the current phase, phases completed.
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Per-launch failure latch (reset by prepare_launch()).
  bool failed_ = false;
  bool persistent_ = false;
  int failure_cpe_ = -1;
  std::uint64_t dma_retries_ = 0;
  std::string failure_;
};

}  // namespace swdnn::sim
