#include "src/sim/executor.h"

#include "src/arch/isa.h"

#include <sys/mman.h>
#include <unistd.h>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <type_traits>
#include <vector>

// Fiber-switch annotations, so the sanitizers follow the CPE fibers'
// stacks (g++ defines these macros under -fsanitize=address / thread).
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#define SWDNN_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define SWDNN_TSAN_FIBERS 1
#endif

namespace swdnn::sim {

void LaunchStats::merge(const LaunchStats& later) {
  max_compute_cycles += later.max_compute_cycles;
  total_flops += later.total_flops;
  regcomm_messages += later.regcomm_messages;
  dma.get_bytes += later.dma.get_bytes;
  dma.put_bytes += later.dma.put_bytes;
  dma.requests += later.dma.requests;
  dma.misaligned_requests += later.dma.misaligned_requests;
  dma_seconds += later.dma_seconds;
  compute_seconds += later.compute_seconds;
  fault_events += later.fault_events;
  dma_retries += later.dma_retries;
  if (later.failed && !failed) {
    failed = true;
    persistent_fault = later.persistent_fault;
    failure = later.failure;
  }
}

CpeContext::CpeContext(MeshExecutor& exec, CpeMesh& mesh, DmaEngine& dma,
                       int row, int col)
    : exec_(exec), mesh_(mesh), dma_(dma), row_(row), col_(col) {}

namespace {
// Trace helper: logical timeline = the CPE's compute-cycle counter.
// `name` is a string or a callable returning one; a callable runs only
// when a tracer is attached, so an untraced launch formats no names.
template <typename Name>
void trace_event(MeshExecutor& exec, CpeCell& cell, int cpe,
                 const char* category, Name&& name,
                 std::uint64_t duration_cycles) {
  if (EventTracer* tracer = exec.tracer()) {
    const std::uint64_t now = cell.compute_cycles;
    if constexpr (std::is_invocable_v<Name>) {
      tracer->record(cpe, category, name(), now, now + duration_cycles);
    } else {
      tracer->record(cpe, category, std::string(name), now,
                     now + duration_cycles);
    }
  }
}
}  // namespace

void CpeContext::fail_launch(const std::string& message, bool persistent) {
  exec_.latch_failure(id(), message, persistent);
  trace_event(exec_, cell(), id(), "fault", message, 1);
}

// Computes the Table II cost of one request and accounts it into this
// CPE's private shard; the executor folds the shards into the shared
// engine once per launch.
std::uint64_t CpeContext::record_dma(std::uint64_t bytes,
                                     std::int64_t block_bytes,
                                     perf::DmaDirection dir, bool aligned) {
  const std::uint64_t cost = dma_.cost(bytes, block_bytes, dir, aligned);
  cell().dma.add(bytes, dir, aligned, cost);
  return cost;
}

// Polls the attached fault campaign for one DMA tile transfer and
// applies the executor's RetryPolicy in place: a faulting attempt is
// re-issued (re-charged against the DMA engine, with exponential
// backoff cycles) until it lands or attempts run out. Returns true when
// the payload may be copied — on exhaustion the launch is marked failed
// and the copy is skipped, exactly like a real engine reporting a
// completion error. Never throws: peers may be blocked on barriers.
bool CpeContext::dma_attempt(std::uint64_t bytes, std::int64_t block_bytes,
                             perf::DmaDirection dir, bool aligned) {
  FaultInjector* fi = exec_.fault_injector();
  if (fi == nullptr) return true;
  const RetryPolicy& rp = exec_.retry_policy();
  const int max_attempts = rp.max_attempts < 1 ? 1 : rp.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (!fi->poll_dma_fault(id())) return true;
    trace_event(exec_, cell(), id(), "fault", [attempt] {
      return "dma fault (attempt " + std::to_string(attempt) + ")";
    }, 1);
    if (attempt == max_attempts) break;
    // Retry the tile: back off, then re-occupy the engine for the
    // repeated transfer.
    charge_cycles(retry_backoff_cycles(rp, attempt));
    record_dma(bytes, block_bytes, dir, aligned);
    ++exec_.dma_retries_;
  }
  fail_launch("persistent DMA fault on CPE " + std::to_string(id()) +
                  " after " + std::to_string(max_attempts) + " attempts",
              /*persistent=*/max_attempts > 1);
  return false;
}

// Whether this request is forced onto the misaligned bandwidth curve by
// an injected alignment fault.
bool CpeContext::dma_aligned(std::int64_t bytes) {
  bool aligned = block_aligned(bytes);
  FaultInjector* fi = exec_.fault_injector();
  if (aligned && fi != nullptr && fi->poll_dma_misalign(id())) {
    aligned = false;
  }
  return aligned;
}

void CpeContext::dma_get(std::span<const double> src, std::span<double> dst) {
  const std::int64_t bytes = static_cast<std::int64_t>(src.size_bytes());
  const bool aligned = dma_aligned(bytes);
  const std::uint64_t cost =
      record_dma(src.size_bytes(), bytes, perf::DmaDirection::kGet, aligned);
  trace_event(exec_, cell(), id(), "dma",
              [bytes] { return "get " + std::to_string(bytes) + "B"; }, cost);
  if (!dma_attempt(src.size_bytes(), bytes, perf::DmaDirection::kGet,
                   aligned)) {
    return;
  }
  std::copy(src.begin(), src.end(), dst.begin());
}

void CpeContext::dma_put(std::span<const double> src, std::span<double> dst) {
  const std::int64_t bytes = static_cast<std::int64_t>(src.size_bytes());
  const bool aligned = dma_aligned(bytes);
  const std::uint64_t cost =
      record_dma(src.size_bytes(), bytes, perf::DmaDirection::kPut, aligned);
  trace_event(exec_, cell(), id(), "dma",
              [bytes] { return "put " + std::to_string(bytes) + "B"; }, cost);
  if (!dma_attempt(src.size_bytes(), bytes, perf::DmaDirection::kPut,
                   aligned)) {
    return;
  }
  std::copy(src.begin(), src.end(), dst.begin());
}

void CpeContext::dma_get_strided(const double* src_base, std::int64_t nblocks,
                                 std::int64_t block_elems,
                                 std::int64_t stride_elems,
                                 std::span<double> dst) {
  const std::int64_t block_bytes = block_elems * 8;
  const bool aligned = dma_aligned(block_bytes);
  const std::uint64_t cost = record_dma(
      static_cast<std::uint64_t>(nblocks * block_bytes), block_bytes,
      perf::DmaDirection::kGet, aligned);
  trace_event(exec_, cell(), id(), "dma", [nblocks, block_bytes] {
    return "get-strided " + std::to_string(nblocks) + "x" +
           std::to_string(block_bytes) + "B";
  }, cost);
  if (!dma_attempt(static_cast<std::uint64_t>(nblocks * block_bytes),
                   block_bytes, perf::DmaDirection::kGet, aligned)) {
    return;
  }
  for (std::int64_t b = 0; b < nblocks; ++b) {
    const double* src = src_base + b * stride_elems;
    std::copy(src, src + block_elems, dst.begin() + b * block_elems);
  }
}

void CpeContext::dma_put_strided(std::span<const double> src, double* dst_base,
                                 std::int64_t nblocks,
                                 std::int64_t block_elems,
                                 std::int64_t stride_elems) {
  const std::int64_t block_bytes = block_elems * 8;
  const bool aligned = dma_aligned(block_bytes);
  const std::uint64_t cost = record_dma(
      static_cast<std::uint64_t>(nblocks * block_bytes), block_bytes,
      perf::DmaDirection::kPut, aligned);
  trace_event(exec_, cell(), id(), "dma", [nblocks, block_bytes] {
    return "put-strided " + std::to_string(nblocks) + "x" +
           std::to_string(block_bytes) + "B";
  }, cost);
  if (!dma_attempt(static_cast<std::uint64_t>(nblocks * block_bytes),
                   block_bytes, perf::DmaDirection::kPut, aligned)) {
    return;
  }
  for (std::int64_t b = 0; b < nblocks; ++b) {
    std::copy(src.begin() + b * block_elems,
              src.begin() + (b + 1) * block_elems, dst_base + b * stride_elems);
  }
}

// Injected bus stall: the operation still completes, later.
void CpeContext::maybe_stall_bus() {
  if (FaultInjector* fi = exec_.fault_injector()) {
    if (const std::uint64_t stall = fi->poll_regcomm_stall(id())) {
      trace_event(exec_, cell(), id(), "fault", [stall] {
        return "bus stall " + std::to_string(stall) + " cycles";
      }, stall);
      charge_cycles(stall);
    }
  }
}

void CpeContext::put_row(int dst_col, const Vec4& value) {
  maybe_stall_bus();
  TransferBuffer& dst = mesh_.cell(row_, dst_col).row_buffer;
  if (dst.full()) {
    exec_.wait_writable(id(), row_ * mesh_.cols() + dst_col, dst, true);
  }
  dst.put(value);
  cell().regcomm_messages += 1;
  charge_cycles(1);  // a put issues in one cycle on P1
}

void CpeContext::put_col(int dst_row, const Vec4& value) {
  maybe_stall_bus();
  TransferBuffer& dst = mesh_.cell(dst_row, col_).col_buffer;
  if (dst.full()) {
    exec_.wait_writable(id(), dst_row * mesh_.cols() + col_, dst, false);
  }
  dst.put(value);
  cell().regcomm_messages += 1;
  charge_cycles(1);
}

void CpeContext::bcast_row(const Vec4& value) {
  maybe_stall_bus();
  trace_event(exec_, cell(), id(), "bus", "bcast-row", 1);
  for (int c = 0; c < mesh_.cols(); ++c) {
    if (c == col_) continue;
    TransferBuffer& dst = mesh_.cell(row_, c).row_buffer;
    if (dst.full()) {
      exec_.wait_writable(id(), row_ * mesh_.cols() + c, dst, true);
    }
    dst.put(value);
  }
  // Hardware multicast: one bus transaction regardless of fan-out.
  cell().regcomm_messages += static_cast<std::uint64_t>(mesh_.cols() - 1);
  charge_cycles(1);
}

void CpeContext::bcast_col(const Vec4& value) {
  maybe_stall_bus();
  trace_event(exec_, cell(), id(), "bus", "bcast-col", 1);
  for (int r = 0; r < mesh_.rows(); ++r) {
    if (r == row_) continue;
    TransferBuffer& dst = mesh_.cell(r, col_).col_buffer;
    if (dst.full()) {
      exec_.wait_writable(id(), r * mesh_.cols() + col_, dst, false);
    }
    dst.put(value);
  }
  cell().regcomm_messages += static_cast<std::uint64_t>(mesh_.rows() - 1);
  charge_cycles(1);
}

Vec4 CpeContext::get_row() {
  charge_cycles(static_cast<std::uint64_t>(
      arch::op_info(arch::Opcode::kGetr).latency_cycles));
  TransferBuffer& buf = cell().row_buffer;
  if (buf.empty()) exec_.wait_readable(id(), buf, true);
  return buf.get();
}

Vec4 CpeContext::get_col() {
  charge_cycles(static_cast<std::uint64_t>(
      arch::op_info(arch::Opcode::kGetc).latency_cycles));
  TransferBuffer& buf = cell().col_buffer;
  if (buf.empty()) exec_.wait_readable(id(), buf, false);
  return buf.get();
}

// The bulk primitives charge per-message accounting in exactly the
// order the Vec4 loop does — one stall poll, one trace event, one
// message count, one issue cycle per 256-bit message — so fault
// placement, traces, and LaunchStats are bitwise what the reference
// path produces. Only the transfer-buffer traffic is batched. With no
// tracer and no injector nothing observes the individual messages, so
// the loop folds into one step: `messages` saturating issue cycles and
// fanout*messages bus messages (the same modular sum as the loop's).
void CpeContext::charge_broadcast(std::uint64_t messages, std::uint64_t fanout,
                                  const char* trace_name) {
  if (exec_.tracer() == nullptr && exec_.fault_injector() == nullptr) {
    cell().regcomm_messages += fanout * messages;
    charge_cycles(messages);
    return;
  }
  for (std::uint64_t m = 0; m < messages; ++m) {
    maybe_stall_bus();
    trace_event(exec_, cell(), id(), "bus", trace_name, 1);
    cell().regcomm_messages += fanout;
    charge_cycles(1);
  }
}

void CpeContext::bcast_row_span(std::span<const double> data) {
  charge_broadcast((data.size() + 3) / 4,
                   static_cast<std::uint64_t>(mesh_.cols() - 1), "bcast-row");
  for (int c = 0; c < mesh_.cols(); ++c) {
    if (c == col_) continue;
    mesh_.cell(row_, c).row_buffer.put_packed(data);
  }
}

void CpeContext::bcast_col_span(std::span<const double> data) {
  charge_broadcast((data.size() + 3) / 4,
                   static_cast<std::uint64_t>(mesh_.rows() - 1), "bcast-col");
  for (int r = 0; r < mesh_.rows(); ++r) {
    if (r == row_) continue;
    mesh_.cell(r, col_).col_buffer.put_packed(data);
  }
}

void CpeContext::recv_row_span(std::span<double> out) {
  if (out.empty()) return;
  const std::uint64_t messages = (out.size() + 3) / 4;
  charge_cycles(messages *
                static_cast<std::uint64_t>(
                    arch::op_info(arch::Opcode::kGetr).latency_cycles));
  TransferBuffer& buf = cell().row_buffer;
  for (std::size_t off = 0; off < out.size();) {
    if (buf.empty()) exec_.wait_readable(id(), buf, true);
    off += buf.get_unpacked(out.subspan(off));
  }
}

void CpeContext::recv_col_span(std::span<double> out) {
  if (out.empty()) return;
  const std::uint64_t messages = (out.size() + 3) / 4;
  charge_cycles(messages *
                static_cast<std::uint64_t>(
                    arch::op_info(arch::Opcode::kGetc).latency_cycles));
  TransferBuffer& buf = cell().col_buffer;
  for (std::size_t off = 0; off < out.size();) {
    if (buf.empty()) exec_.wait_readable(id(), buf, false);
    off += buf.get_unpacked(out.subspan(off));
  }
}

void CpeContext::sync() {
  trace_event(exec_, cell(), id(), "sync", "barrier", 1);
  exec_.arrive_and_wait(id());
}

void CpeContext::charge_flops(std::uint64_t flops) {
  cell().flops += flops;
  const auto per_cycle =
      static_cast<std::uint64_t>(spec().flops_per_cycle_per_cpe());
  charge_cycles((flops + per_cycle - 1) / per_cycle);
}

void CpeContext::charge_cycles(std::uint64_t cycles) {
  std::uint64_t& cc = cell().compute_cycles;
  cc = cycles > UINT64_MAX - cc ? UINT64_MAX : cc + cycles;
}


// --- Fiber scheduler ---------------------------------------------------------

namespace {

/// Usable stack per CPE fiber. The kernels keep their tiles in LDM
/// (heap-backed), so frames stay shallow; the sanitizers' redzones are
/// the largest consumer. Pages are committed only when a fiber touches
/// them.
constexpr std::size_t kFiberStackBytes = 256 * 1024;

/// Thrown inside a blocked fiber to unwind it after a deadlock. Not a
/// std::exception, so execute_cell's abort-on-throw handler lets it
/// pass to the fiber's entry function.
struct FiberCancelled {};

// --- Fiber switch ------------------------------------------------------------
//
// Two operations behind one interface: make_fiber() lays out a fresh
// fiber so that the first switch into it calls entry(arg) on its own
// stack, and switch_fiber() saves the running context into `from` and
// resumes `to`. No launch changes the signal mask, so a switch carries
// only what the ABI says a call preserves.

#if defined(__x86_64__)

// x86-64 System V. A switch pushes the callee-saved registers (rbp, rbx,
// r12-r15) and then MXCSR and the x87 control word (the rounding modes)
// onto the outgoing stack, stores rsp, loads the incoming rsp and pops
// the same frame: no system call (glibc's swapcontext makes an
// rt_sigprocmask call on every switch). A fresh fiber's frame returns
// into swdnn_fiber_start, which calls r12(r13).
extern "C" void swdnn_fiber_switch(void** save_sp, void* load_sp);
extern "C" void swdnn_fiber_start();

asm(R"(
  .text
  .p2align 4
  .globl swdnn_fiber_switch
  .hidden swdnn_fiber_switch
  .type swdnn_fiber_switch, @function
swdnn_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size swdnn_fiber_switch, .-swdnn_fiber_switch

  .p2align 4
  .globl swdnn_fiber_start
  .hidden swdnn_fiber_start
  .type swdnn_fiber_start, @function
swdnn_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r13, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size swdnn_fiber_start, .-swdnn_fiber_start
)");

struct FiberContext {
  void* sp = nullptr;  ///< saved stack pointer (top of the switch frame)
};

// The frame swdnn_fiber_switch pops, from the lowest address: MXCSR and
// x87 control word, r15, r14, r13 (arg), r12 (entry), rbx, rbp, the
// return address (swdnn_fiber_start), then 16 bytes of zeros. After the
// return rsp sits 16-byte aligned, as the ABI requires at a call. The
// rounding modes are the calling thread's: a kernel starts with the
// launching thread's floating-point control state.
void make_fiber(FiberContext& ctx, char* stack, std::size_t bytes,
                void (*entry)(void*), void* arg) {
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack) + bytes) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 10;
  frame[0] = mxcsr | static_cast<std::uint64_t>(fpucw) << 32;
  frame[1] = 0;
  frame[2] = 0;
  frame[3] = reinterpret_cast<std::uintptr_t>(arg);
  frame[4] = reinterpret_cast<std::uintptr_t>(entry);
  frame[5] = 0;
  frame[6] = 0;
  frame[7] = reinterpret_cast<std::uintptr_t>(&swdnn_fiber_start);
  frame[8] = 0;
  frame[9] = 0;
  ctx.sp = frame;
}

inline void switch_fiber(FiberContext& from, FiberContext& to) {
  swdnn_fiber_switch(&from.sp, to.sp);
}

#else

// Other targets: the same two operations over ucontext.
struct FiberContext {
  ucontext_t uc{};
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
};

// makecontext passes int arguments only, so the context pointer travels
// in two halves.
void ucontext_start(unsigned hi, unsigned lo) {
  auto* ctx = reinterpret_cast<FiberContext*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo));
  ctx->entry(ctx->arg);
}

void make_fiber(FiberContext& ctx, char* stack, std::size_t bytes,
                void (*entry)(void*), void* arg) {
  ctx.entry = entry;
  ctx.arg = arg;
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = bytes;
  ctx.uc.uc_link = nullptr;
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&ctx));
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&ucontext_start), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

inline void switch_fiber(FiberContext& from, FiberContext& to) {
  swapcontext(&from.uc, &to.uc);
}

#endif

enum class Wait : std::uint8_t {
  kNone,      ///< runnable (not started yet)
  kRowData,   ///< Get on its own empty row buffer
  kColData,   ///< Get on its own empty column buffer
  kRowSpace,  ///< Vec4 Put into a full row buffer of `peer`
  kColSpace,  ///< Vec4 Put into a full column buffer of `peer`
  kBarrier,   ///< sync() until the barrier generation moves on
  kDone,
};

}  // namespace

struct MeshExecutor::Fibers {
  struct Fiber {
    FiberContext context;
    char* stack = nullptr;  ///< lowest usable byte (a guard page below)
    Wait wait = Wait::kNone;
    const TransferBuffer* buffer = nullptr;  ///< for data/space waits
    int peer = -1;                           ///< destination of a Put
    std::uint64_t generation = 0;            ///< barrier phase waited on
#ifdef SWDNN_ASAN_FIBERS
    void* fake_stack = nullptr;
#endif
#ifdef SWDNN_TSAN_FIBERS
    void* tsan = nullptr;
#endif
  };

  /// Maps every fiber stack once, each above a PROT_NONE guard page so
  /// an overflow faults instead of running into the neighbour's stack.
  Fibers(MeshExecutor* owner, int n)
      : exec(owner), fibers(static_cast<std::size_t>(n)) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t slot_bytes = page + kFiberStackBytes;
    region_bytes_ = slot_bytes * static_cast<std::size_t>(n);
    void* region = mmap(nullptr, region_bytes_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (region == MAP_FAILED) throw std::bad_alloc();
    region_ = static_cast<char*>(region);
    for (int i = 0; i < n; ++i) {
      char* slot = region_ + slot_bytes * static_cast<std::size_t>(i);
      if (mprotect(slot, page, PROT_NONE) != 0) {
        munmap(region_, region_bytes_);
        throw std::bad_alloc();
      }
      fibers[static_cast<std::size_t>(i)].stack = slot + page;
#ifdef SWDNN_TSAN_FIBERS
      fibers[static_cast<std::size_t>(i)].tsan = __tsan_create_fiber(0);
#endif
    }
  }

  ~Fibers() {
#ifdef SWDNN_TSAN_FIBERS
    for (Fiber& f : fibers) __tsan_destroy_fiber(f.tsan);
#endif
    munmap(region_, region_bytes_);
  }

  Fibers(const Fibers&) = delete;
  Fibers& operator=(const Fibers&) = delete;

  /// Host -> fiber `id`; returns when the fiber yields or finishes.
  void resume(int id) {
    Fiber& f = fibers[static_cast<std::size_t>(id)];
    current = id;
#ifdef SWDNN_ASAN_FIBERS
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, f.stack, kFiberStackBytes);
#endif
#ifdef SWDNN_TSAN_FIBERS
    __tsan_switch_to_fiber(f.tsan, 0);
#endif
    switch_fiber(host, f.context);
#ifdef SWDNN_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    current = -1;
  }

  /// Running fiber -> host. Returns when the scheduler resumes it.
  void yield() {
    Fiber& f = fibers[static_cast<std::size_t>(current)];
    before_host_switch(&f);
    switch_fiber(f.context, host);
    after_switch_in(&f);
  }

  /// Sanitizer bookkeeping around a switch to the host context; a null
  /// `f` means the fiber is finishing and its fake stack can go.
  void before_host_switch(Fiber* f) {
#ifdef SWDNN_ASAN_FIBERS
    __sanitizer_start_switch_fiber(f != nullptr ? &f->fake_stack : nullptr,
                                   host_stack_bottom, host_stack_size);
#endif
#ifdef SWDNN_TSAN_FIBERS
    __tsan_switch_to_fiber(host_tsan, 0);
#endif
    (void)f;
  }

  void after_switch_in(Fiber* f) {
#ifdef SWDNN_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(f != nullptr ? f->fake_stack : nullptr,
                                    &host_stack_bottom, &host_stack_size);
#endif
    (void)f;
  }

  /// Entry point of every CPE fiber; the fiber's id is `current`, set
  /// by the resume that starts it.
  static void entry(void* arg) {
    auto* set = static_cast<Fibers*>(arg);
    set->after_switch_in(nullptr);
    const int id = set->current;
    const int cols = set->exec->mesh_.cols();
    try {
      if (!set->cancel) {
        set->exec->execute_cell(*set->kernel, id / cols, id % cols);
      }
    } catch (const FiberCancelled&) {
      // Unwound after a deadlock; the scheduler throws MeshDeadlock.
    }
    Fiber& f = set->fibers[static_cast<std::size_t>(id)];
    f.wait = Wait::kDone;
    set->before_host_switch(nullptr);
    switch_fiber(f.context, set->host);  // never resumed until re-armed
  }

  /// Points every fiber at the start of `entry` for a new launch.
  void arm(const Kernel& k) {
    kernel = &k;
    cancel = false;
    for (Fiber& f : fibers) {
      f.wait = Wait::kNone;
      make_fiber(f.context, f.stack, kFiberStackBytes, &Fibers::entry, this);
    }
#ifdef SWDNN_TSAN_FIBERS
    host_tsan = __tsan_get_current_fiber();
#endif
  }

  /// Whether the scheduler may resume `f` now (its wait is satisfied).
  bool ready(const Fiber& f) const;

  MeshExecutor* const exec;
  std::vector<Fiber> fibers;
  FiberContext host;
  int current = -1;      ///< fiber running now, -1 on the host
  bool cancel = false;   ///< unwinding after a deadlock
  const Kernel* kernel = nullptr;
#ifdef SWDNN_ASAN_FIBERS
  const void* host_stack_bottom = nullptr;
  std::size_t host_stack_size = 0;
#endif
#ifdef SWDNN_TSAN_FIBERS
  void* host_tsan = nullptr;
#endif

 private:
  char* region_ = nullptr;
  std::size_t region_bytes_ = 0;
};

MeshExecutor::MeshExecutor(const arch::Sw26010Spec& spec)
    : spec_(spec), mesh_(spec_), dma_(spec_) {}

MeshExecutor::~MeshExecutor() = default;

void MeshExecutor::prepare_launch() {
  mesh_.reset_for_launch();
  dma_.reset();
  barrier_arrived_ = 0;
  failed_ = false;
  persistent_ = false;
  failure_cpe_ = -1;
  dma_retries_ = 0;
  failure_.clear();
  // (Re-)attach or detach the fault campaign on every launch: the mesh
  // persists across launches and across injector changes.
  for (int r = 0; r < mesh_.rows(); ++r) {
    for (int c = 0; c < mesh_.cols(); ++c) {
      const int cpe = r * mesh_.cols() + c;
      if (injector_ == nullptr) {
        mesh_.cell(r, c).ldm.attach_faults(nullptr, cpe, nullptr);
        continue;
      }
      // LDM faults are always persistent for the launch: the arena
      // stays degraded for its whole lifetime.
      mesh_.cell(r, c).ldm.attach_faults(
          injector_, cpe, [this, cpe](const std::string& msg) {
            latch_failure(cpe, msg, /*persistent=*/true);
          });
    }
  }
}

void MeshExecutor::latch_failure(int cpe, const std::string& message,
                                 bool persistent) {
  if (persistent) persistent_ = true;
  if (!failed_ || cpe < failure_cpe_) {
    failed_ = true;
    failure_cpe_ = cpe;
    failure_ = message;
  }
}

void MeshExecutor::execute_cell(const Kernel& kernel, int row, int col) {
  CpeContext ctx(*this, mesh_, dma_, row, col);
  try {
    kernel(ctx);
  } catch (const std::exception& e) {
    // A throwing CPE kernel is a programming error; its peers may be
    // blocked on the barrier or on transfer buffers this CPE feeds.
    std::fprintf(stderr, "fatal: CPE(%d,%d) kernel threw: %s\n", row, col,
                 e.what());
    std::abort();
  }
}

bool MeshExecutor::Fibers::ready(const Fiber& f) const {
  switch (f.wait) {
    case Wait::kNone:
      return true;
    case Wait::kRowData:
    case Wait::kColData:
      return !f.buffer->empty();
    case Wait::kRowSpace:
    case Wait::kColSpace:
      return !f.buffer->full();
    case Wait::kBarrier:
      return exec->barrier_generation_ != f.generation;
    case Wait::kDone:
      return false;
  }
  return false;
}

void MeshExecutor::wait_readable(int cpe, const TransferBuffer& buffer,
                                 bool row_bus) {
  Fibers::Fiber& f = fibers_->fibers[static_cast<std::size_t>(cpe)];
  while (buffer.empty()) {
    f.wait = row_bus ? Wait::kRowData : Wait::kColData;
    f.buffer = &buffer;
    fibers_->yield();
    if (fibers_->cancel) throw FiberCancelled{};
  }
}

void MeshExecutor::wait_writable(int cpe, int dst_cpe,
                                 const TransferBuffer& buffer, bool row_bus) {
  Fibers::Fiber& f = fibers_->fibers[static_cast<std::size_t>(cpe)];
  while (buffer.full()) {
    f.wait = row_bus ? Wait::kRowSpace : Wait::kColSpace;
    f.buffer = &buffer;
    f.peer = dst_cpe;
    fibers_->yield();
    if (fibers_->cancel) throw FiberCancelled{};
  }
}

void MeshExecutor::arrive_and_wait(int cpe) {
  if (++barrier_arrived_ == mesh_.num_cpes()) {
    // Last arrival opens the next phase and keeps running.
    barrier_arrived_ = 0;
    ++barrier_generation_;
    return;
  }
  Fibers::Fiber& f = fibers_->fibers[static_cast<std::size_t>(cpe)];
  f.generation = barrier_generation_;
  while (barrier_generation_ == f.generation) {
    f.wait = Wait::kBarrier;
    fibers_->yield();
    if (fibers_->cancel) throw FiberCancelled{};
  }
}

namespace {

std::string describe_wait(Wait wait, int peer) {
  switch (wait) {
    case Wait::kRowData:
      return "a message on its row buffer";
    case Wait::kColData:
      return "a message on its column buffer";
    case Wait::kRowSpace:
      return "a free slot in the row buffer of CPE " + std::to_string(peer);
    case Wait::kColSpace:
      return "a free slot in the column buffer of CPE " +
             std::to_string(peer);
    case Wait::kBarrier:
      return "the barrier";
    case Wait::kNone:
    case Wait::kDone:
      break;
  }
  return "nothing";
}

}  // namespace

void MeshExecutor::schedule(const Kernel& kernel) {
  if (!fibers_) fibers_ = std::make_unique<Fibers>(this, mesh_.num_cpes());
  Fibers& set = *fibers_;
  set.arm(kernel);
  const int n = mesh_.num_cpes();
  int live = n;
  while (live > 0) {
    bool progressed = false;
    for (int id = 0; id < n; ++id) {
      const Fibers::Fiber& f = set.fibers[static_cast<std::size_t>(id)];
      if (!set.ready(f)) continue;
      set.resume(id);
      progressed = true;
      if (f.wait == Wait::kDone) --live;
    }
    if (progressed) continue;

    // Every unfinished CPE waits on a condition no runnable CPE can
    // satisfy. Name them, unwind their stacks, and report.
    std::string message = "mesh deadlock: no CPE can make progress;";
    for (int id = 0; id < n; ++id) {
      const Fibers::Fiber& f = set.fibers[static_cast<std::size_t>(id)];
      if (f.wait == Wait::kDone) continue;
      message += " CPE " + std::to_string(id) + " (" +
                 std::to_string(id / mesh_.cols()) + "," +
                 std::to_string(id % mesh_.cols()) + ") waits on " +
                 describe_wait(f.wait, f.peer) + ";";
    }
    message += " " + std::to_string(barrier_arrived_) + " of " +
               std::to_string(n) + " CPEs at the barrier";
    set.cancel = true;
    for (int id = 0; id < n; ++id) {
      if (set.fibers[static_cast<std::size_t>(id)].wait != Wait::kDone) {
        set.resume(id);
      }
    }
    throw MeshDeadlock(message);
  }
}

LaunchStats MeshExecutor::run(const Kernel& kernel) {
  prepare_launch();
  const std::uint64_t faults_before =
      injector_ != nullptr ? injector_->total_events() : 0;

  schedule(kernel);

  // Fold the per-CPE DMA shards into the shared engine.
  for (int id = 0; id < mesh_.num_cpes(); ++id) {
    dma_.add_shard(mesh_.cell_by_id(id).dma);
  }

  LaunchStats stats;
  stats.max_compute_cycles = mesh_.max_compute_cycles();
  stats.total_flops = mesh_.total_flops();
  stats.regcomm_messages = mesh_.total_regcomm_messages();
  stats.dma = dma_.totals();
  stats.dma_seconds = dma_.modeled_seconds();
  stats.compute_seconds = static_cast<double>(stats.max_compute_cycles) /
                          (spec_.cpe_clock_ghz * 1e9);
  stats.failed = failed_;
  stats.persistent_fault = persistent_;
  stats.dma_retries = dma_retries_;
  stats.failure = failure_;
  if (injector_ != nullptr) {
    stats.fault_events = injector_->total_events() - faults_before;
  }
  return stats;
}

}  // namespace swdnn::sim
