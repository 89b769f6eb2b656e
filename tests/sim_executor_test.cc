// SPMD launches on the simulated mesh: identity, DMA, register
// communication, barriers, and statistics aggregation.

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <vector>

#include "src/sim/executor.h"

namespace swdnn::sim {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

TEST(Executor, LaunchesOneKernelPerCpe) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::vector<std::atomic<int>> hits(16);
  exec.run([&](CpeContext& ctx) {
    hits[static_cast<std::size_t>(ctx.id())].fetch_add(1);
    EXPECT_EQ(ctx.id(), ctx.row() * 4 + ctx.col());
    EXPECT_EQ(ctx.mesh_rows(), 4);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, FullMeshHas64Cpes) {
  MeshExecutor exec;
  std::atomic<int> count{0};
  exec.run([&](CpeContext& ctx) {
    (void)ctx;
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(Executor, DmaRoundTripThroughLdm) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::vector<double> global(4 * 16);
  for (std::size_t i = 0; i < global.size(); ++i) {
    global[i] = static_cast<double>(i);
  }
  std::vector<double> result(global.size());
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(16);
    const std::size_t off = static_cast<std::size_t>(ctx.id()) * 16;
    ctx.dma_get({global.data() + off, 16}, buf);
    for (double& v : buf) v += 1.0;
    ctx.charge_flops(16);
    ctx.dma_put(buf, {result.data() + off, 16});
  });
  for (std::size_t i = 0; i < global.size(); ++i) {
    EXPECT_EQ(result[i], global[i] + 1.0);
  }
  EXPECT_EQ(stats.dma.get_bytes, global.size() * 8);
  EXPECT_EQ(stats.dma.put_bytes, global.size() * 8);
  EXPECT_EQ(stats.total_flops, 4u * 16u);
  EXPECT_GT(stats.max_compute_cycles, 0u);
  EXPECT_GT(stats.dma_seconds, 0.0);
}

TEST(Executor, StridedGatherAndScatter) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  // 4 rows of 8; each CPE gathers column-block ctx.id()*2 of width 2.
  std::vector<double> matrix(4 * 8);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    matrix[i] = static_cast<double>(i);
  }
  std::vector<double> out(matrix.size());
  exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(8);  // 4 rows x 2 cols
    const std::int64_t col0 = ctx.id() * 2;
    ctx.dma_get_strided(matrix.data() + col0, 4, 2, 8, buf);
    ctx.dma_put_strided(buf, out.data() + col0, 4, 2, 8);
  });
  EXPECT_EQ(out, matrix);
}

TEST(Executor, BarrierSeparatesPhases) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  exec.run([&](CpeContext& ctx) {
    phase1.fetch_add(1);
    ctx.sync();
    if (phase1.load() != 16) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(Executor, RowPutGetDeliversInOrder) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::vector<double> received(4, -1);
  exec.run([&](CpeContext& ctx) {
    if (ctx.col() == 0) {
      ctx.put_row(1, Vec4::splat(static_cast<double>(ctx.row() + 10)));
    } else {
      received[static_cast<std::size_t>(ctx.row())] = ctx.get_row().lane[0];
    }
  });
  EXPECT_EQ(received[0], 10.0);
  EXPECT_EQ(received[1], 11.0);
}

TEST(Executor, ColPutGetDelivers) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::vector<double> received(2, -1);
  exec.run([&](CpeContext& ctx) {
    if (ctx.row() == 0) {
      ctx.put_col(1, Vec4::splat(static_cast<double>(ctx.col() + 20)));
    } else {
      received[static_cast<std::size_t>(ctx.col())] = ctx.get_col().lane[0];
    }
  });
  EXPECT_EQ(received[0], 20.0);
  EXPECT_EQ(received[1], 21.0);
}

TEST(Executor, RowBroadcastReachesWholeRow) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::vector<double> received(16, -1);
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    if (ctx.col() == 2) {
      ctx.bcast_row(Vec4::splat(static_cast<double>(100 + ctx.row())));
      received[static_cast<std::size_t>(ctx.id())] =
          static_cast<double>(100 + ctx.row());
    } else {
      received[static_cast<std::size_t>(ctx.id())] = ctx.get_row().lane[0];
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(received[static_cast<std::size_t>(r * 4 + c)], 100.0 + r);
    }
  }
  // 4 broadcasts x 3 receivers each.
  EXPECT_EQ(stats.regcomm_messages, 12u);
  EXPECT_EQ(stats.regcomm_bytes(), 12u * 32u);
}

TEST(Executor, ColBroadcastReachesWholeColumn) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::vector<double> received(16, -1);
  exec.run([&](CpeContext& ctx) {
    if (ctx.row() == 0) {
      ctx.bcast_col(Vec4::splat(static_cast<double>(ctx.col())));
      received[static_cast<std::size_t>(ctx.id())] =
          static_cast<double>(ctx.col());
    } else {
      received[static_cast<std::size_t>(ctx.id())] = ctx.get_col().lane[0];
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(received[static_cast<std::size_t>(r * 4 + c)],
                static_cast<double>(c));
    }
  }
}

TEST(Executor, LdmIsPerCpe) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::atomic<bool> overlap{false};
  std::vector<double*> bases(4, nullptr);
  exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(64);
    bases[static_cast<std::size_t>(ctx.id())] = buf.data();
    ctx.sync();
    for (int other = 0; other < 4; ++other) {
      if (other != ctx.id() && bases[static_cast<std::size_t>(other)] ==
                                   buf.data()) {
        overlap.store(true);
      }
    }
  });
  EXPECT_FALSE(overlap.load());
}

TEST(LaunchStats, OverlapModel) {
  LaunchStats s;
  s.compute_seconds = 2.0;
  s.dma_seconds = 3.0;
  s.total_flops = 12'000'000'000ull;
  EXPECT_DOUBLE_EQ(s.modeled_seconds(true), 3.0);
  EXPECT_DOUBLE_EQ(s.modeled_seconds(false), 5.0);
  EXPECT_DOUBLE_EQ(s.modeled_gflops(true), 4.0);
}

TEST(Executor, ChargeFlopsRoundsUpCycles) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) ctx.charge_flops(9);  // 9/8 -> 2 cycles
  });
  EXPECT_EQ(stats.max_compute_cycles, 2u);
}

// --- Mesh-protocol deadlocks -------------------------------------------------
//
// A launch whose CPEs block each other for good must end in a named
// MeshDeadlock, immediately, and leave the executor usable.

/// A clean launch on `exec` (a 2x2 mesh) that exercises the bus and the
/// barrier: row put/get, then a sync.
void expect_clean_launch(MeshExecutor& exec) {
  std::vector<double> received(2, -1);
  int after_sync = 0;
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    if (ctx.col() == 0) {
      ctx.put_row(1, Vec4::splat(static_cast<double>(ctx.row() + 30)));
    } else {
      received[static_cast<std::size_t>(ctx.row())] = ctx.get_row().lane[0];
    }
    ctx.sync();
    ++after_sync;
  });
  EXPECT_EQ(received[0], 30.0);
  EXPECT_EQ(received[1], 31.0);
  EXPECT_EQ(after_sync, 4);
  EXPECT_EQ(stats.regcomm_messages, 2u);
  EXPECT_FALSE(stats.failed);
}

std::string deadlock_message(MeshExecutor& exec,
                             const MeshExecutor::Kernel& kernel) {
  try {
    exec.run(kernel);
  } catch (const MeshDeadlock& e) {
    return e.what();
  }
  ADD_FAILURE() << "launch completed instead of deadlocking";
  return "";
}

TEST(MeshDeadlock, GetWithNoSenderIsNamed) {
  MeshExecutor exec(mesh_spec(2));
  const std::string what = deadlock_message(exec, [](CpeContext& ctx) {
    // Heap state live on the blocked fiber's stack must be released
    // when the scheduler unwinds it.
    std::vector<double> scratch(1024, 1.0);
    if (ctx.id() == 1) scratch[0] = ctx.get_row().lane[0];  // no sender
  });
  EXPECT_NE(what.find("CPE 1 (0,1) waits on a message on its row buffer"),
            std::string::npos)
      << what;
  for (const char* idle : {"CPE 0 ", "CPE 2 ", "CPE 3 "}) {
    EXPECT_EQ(what.find(idle), std::string::npos) << what;
  }
  expect_clean_launch(exec);
}

TEST(MeshDeadlock, SkippedSyncIsNamed) {
  MeshExecutor exec(mesh_spec(2));
  const std::string what = deadlock_message(exec, [](CpeContext& ctx) {
    if (ctx.id() != 3) ctx.sync();  // CPE 3 never arrives
  });
  for (const char* blocked : {"CPE 0 (0,0) waits on the barrier",
                              "CPE 1 (0,1) waits on the barrier",
                              "CPE 2 (1,0) waits on the barrier"}) {
    EXPECT_NE(what.find(blocked), std::string::npos) << what;
  }
  EXPECT_EQ(what.find("CPE 3 "), std::string::npos) << what;
  EXPECT_NE(what.find("3 of 4 CPEs at the barrier"), std::string::npos)
      << what;
  expect_clean_launch(exec);
}

TEST(MeshDeadlock, ColumnGetAndFullBufferAreNamed) {
  arch::Sw26010Spec spec = mesh_spec(2);
  spec.transfer_buffer_slots = 2;
  MeshExecutor exec(spec);
  const std::string what = deadlock_message(exec, [](CpeContext& ctx) {
    if (ctx.id() == 0) {
      // Three Puts into a two-slot buffer nobody drains.
      for (int i = 0; i < 3; ++i) ctx.put_row(1, Vec4::splat(1.0));
    } else if (ctx.id() == 3) {
      ctx.get_col();  // CPE 1 never sends down column 1
    }
  });
  EXPECT_NE(what.find("CPE 0 (0,0) waits on a free slot in the row buffer "
                      "of CPE 1"),
            std::string::npos)
      << what;
  EXPECT_NE(
      what.find("CPE 3 (1,1) waits on a message on its column buffer"),
      std::string::npos)
      << what;
  expect_clean_launch(exec);
}

// --- The fiber switch contract ----------------------------------------------
//
// A switch between CPE fibers carries the callee-saved registers and the
// floating-point control state (rounding mode), and a fresh fiber
// starts on an ABI-aligned stack with the launching thread's control
// state.

/// a/b in the current rounding mode (volatile: no constant folding).
/// 1/10 rounds down and 1/3 rounds up under FE_TONEAREST, so FE_DOWNWARD
/// changes the first and FE_UPWARD the second.
double divide(double a, double b) {
  volatile double x = a;
  volatile double y = b;
  return x / y;
}

/// Restores the host's rounding mode however the test ends.
struct RoundingGuard {
  int saved = std::fegetround();
  ~RoundingGuard() { std::fesetround(saved); }
};

TEST(FiberSwitch, KernelSeesTheLaunchingThreadsRoundingMode) {
  RoundingGuard guard;
  MeshExecutor exec(mesh_spec(2));
  std::vector<int> mode(4, -1);
  std::vector<double> tenth(4, 0);
  ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
  const double want = divide(1, 10);
  exec.run([&](CpeContext& ctx) {
    const auto id = static_cast<std::size_t>(ctx.id());
    ctx.sync();  // resumed at least once after the first switch in
    mode[id] = std::fegetround();
    tenth[id] = divide(1, 10);
  });
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  std::fesetround(FE_TONEAREST);
  EXPECT_NE(want, divide(1, 10));
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(mode[id], FE_DOWNWARD) << id;
    EXPECT_EQ(tenth[id], want) << id;
  }
}

TEST(FiberSwitch, RoundingModeChangesStayInTheirFiber) {
  RoundingGuard guard;
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  const double nearest = divide(1, 3);
  MeshExecutor exec(mesh_spec(2));
  std::vector<int> mode(4, -1);
  std::vector<double> third(4, 0);
  std::vector<int> peer_mode;
  exec.run([&](CpeContext& ctx) {
    const auto id = static_cast<std::size_t>(ctx.id());
    ctx.sync();
    if (id == 0) {
      std::fesetround(FE_UPWARD);
      // Block on a Get so CPE 1 runs while CPE 0 holds FE_UPWARD.
      ctx.get_row();
    } else if (id == 1) {
      peer_mode.push_back(std::fegetround());
      ctx.put_row(0, Vec4::splat(1.0));
    }
    ctx.sync();
    mode[id] = std::fegetround();
    third[id] = divide(1, 3);
  });
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(divide(1, 3), nearest);
  ASSERT_EQ(peer_mode.size(), 1u);
  EXPECT_EQ(peer_mode[0], FE_TONEAREST);
  EXPECT_EQ(mode[0], FE_UPWARD);
  EXPECT_GT(third[0], nearest);
  for (std::size_t id = 1; id < 4; ++id) {
    EXPECT_EQ(mode[id], FE_TONEAREST) << id;
    EXPECT_EQ(third[id], nearest) << id;
  }
}

/// Address remainders of over-aligned locals in a fresh frame.
[[gnu::noinline]] std::uintptr_t misalignment() {
  alignas(16) volatile double pair[2] = {0, 0};
  alignas(32) volatile double quad[4] = {0, 0, 0, 0};
  return (reinterpret_cast<std::uintptr_t>(pair) % 16) |
         (reinterpret_cast<std::uintptr_t>(quad) % 32);
}

TEST(FiberSwitch, FiberStacksKeepLocalsAligned) {
  MeshExecutor exec(mesh_spec(2));
  std::vector<std::uintptr_t> before(4, 1), after(4, 1);
  exec.run([&](CpeContext& ctx) {
    const auto id = static_cast<std::size_t>(ctx.id());
    before[id] = misalignment();
    ctx.sync();
    after[id] = misalignment();
  });
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(before[id], 0u) << id;
    EXPECT_EQ(after[id], 0u) << id;
  }
}

TEST(FiberSwitch, LocalsSurviveManyYields) {
  // Every CPE keeps running sums in locals across hundreds of Gets and
  // barriers; each Get on an empty buffer and each sync switches fibers.
  MeshExecutor exec(mesh_spec(4));
  constexpr int kRounds = 300;
  std::vector<double> sums(16, 0);
  std::vector<std::uint64_t> mixes(16, 0);
  exec.run([&](CpeContext& ctx) {
    const int right = (ctx.col() + 1) % 4;
    const int below = (ctx.row() + 1) % 4;
    double sum = 0;
    std::uint64_t mix = static_cast<std::uint64_t>(ctx.id()) + 1;
    int yields = 0;
    for (int round = 0; round < kRounds; ++round) {
      ctx.put_row(right, Vec4::splat(ctx.id() + round));
      ctx.put_col(below, Vec4::splat(-round));
      sum += ctx.get_row().lane[0] + ctx.get_col().lane[3];
      mix = mix * 6364136223846793005ULL + static_cast<std::uint64_t>(round);
      if (round % 7 == 0) {
        ctx.sync();
        ++yields;
      }
    }
    sums[static_cast<std::size_t>(ctx.id())] = sum + yields;
    mixes[static_cast<std::size_t>(ctx.id())] = mix;
  });
  for (int id = 0; id < 16; ++id) {
    // From the left neighbour: its id + round; from above: -round.
    const int left = (id / 4) * 4 + (id % 4 + 3) % 4;
    double sum = 0;
    std::uint64_t mix = static_cast<std::uint64_t>(id) + 1;
    for (int round = 0; round < kRounds; ++round) {
      sum += (left + round) + (-round);
      mix = mix * 6364136223846793005ULL + static_cast<std::uint64_t>(round);
    }
    EXPECT_EQ(sums[static_cast<std::size_t>(id)], sum + (kRounds + 6) / 7)
        << id;
    EXPECT_EQ(mixes[static_cast<std::size_t>(id)], mix) << id;
  }
}

}  // namespace
}  // namespace swdnn::sim
