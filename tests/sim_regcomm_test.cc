#include <gtest/gtest.h>

#include <vector>

#include "src/sim/executor.h"
#include "src/sim/regcomm.h"

namespace swdnn::sim {
namespace {

// A 2x2 mesh whose transfer buffers hold `slots` messages.
arch::Sw26010Spec small_mesh(int slots) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = 2;
  spec.mesh_cols = 2;
  spec.transfer_buffer_slots = slots;
  return spec;
}

TEST(Vec4, Splat) {
  const Vec4 v = Vec4::splat(2.5);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v.lane[i], 2.5);
}

TEST(Vec4, Fma) {
  Vec4 acc = Vec4::splat(1.0);
  acc.fma(Vec4{{1, 2, 3, 4}}, Vec4{{2, 2, 2, 2}});
  EXPECT_EQ(acc.lane[0], 3.0);
  EXPECT_EQ(acc.lane[3], 9.0);
}

TEST(Vec4, AddAndMul) {
  const Vec4 a{{1, 2, 3, 4}};
  const Vec4 b{{10, 20, 30, 40}};
  const Vec4 sum = a + b;
  const Vec4 prod = a * b;
  EXPECT_EQ(sum.lane[2], 33.0);
  EXPECT_EQ(prod.lane[3], 160.0);
}

TEST(TransferBuffer, FifoOrder) {
  TransferBuffer buf(4);
  buf.put(Vec4::splat(1.0));
  buf.put(Vec4::splat(2.0));
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.get().lane[0], 1.0);
  EXPECT_EQ(buf.get().lane[0], 2.0);
  EXPECT_EQ(buf.size(), 0u);
}

// The blocking tests run at launch level: CPE fibers run in CPE-id
// order and switch only when a Put finds the destination buffer full, a
// Get finds its buffer empty, or at sync(), so what each CPE observes
// when it first runs is fixed.

TEST(TransferBuffer, PutBlocksWhenFullUntilGet) {
  // CPE 0 sends slots + 3 messages to CPE 1 over the row bus before
  // CPE 1 has received any: the sender must stop at the slot capacity
  // and resume only once the receiver drains the buffer.
  constexpr int kSlots = 2;
  constexpr int kMessages = kSlots + 3;
  MeshExecutor exec(small_mesh(kSlots));
  int sent = 0;
  int sent_when_receiver_started = -1;
  std::vector<double> received;
  exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        ctx.put_row(1, Vec4::splat(static_cast<double>(i + 1)));
        ++sent;
      }
    } else if (ctx.id() == 1) {
      sent_when_receiver_started = sent;
      for (int i = 0; i < kMessages; ++i) {
        received.push_back(ctx.get_row().lane[0]);
      }
    }
  });
  EXPECT_EQ(sent_when_receiver_started, kSlots);
  EXPECT_EQ(sent, kMessages);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)],
              static_cast<double>(i + 1));
  }
}

TEST(TransferBuffer, GetBlocksUntilPut) {
  // CPE 0 reaches its Get before its sender, CPE 1, has put anything:
  // the Get must wait for the message instead of reading garbage.
  MeshExecutor exec(small_mesh(4));
  bool put_done = false;
  bool put_done_before_get = true;
  double got = 0;
  exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) {
      put_done_before_get = put_done;
      got = ctx.get_row().lane[1];
      EXPECT_TRUE(put_done);
    } else if (ctx.id() == 1) {
      ctx.put_row(0, Vec4{{0, 7, 0, 0}});
      put_done = true;
    }
  });
  EXPECT_FALSE(put_done_before_get);
  EXPECT_EQ(got, 7.0);
}

TEST(TransferBuffer, ManyMessagesThroughSmallBuffer) {
  // Producer-consumer across a capacity-4 column buffer, 1000 messages:
  // the paper's multi-Put/multi-Get discipline.
  constexpr int kN = 1000;
  MeshExecutor exec(small_mesh(4));
  std::vector<double> received;
  exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < kN; ++i) {
        ctx.put_col(1, Vec4::splat(static_cast<double>(i)));
      }
    } else if (ctx.id() == 2) {
      for (int i = 0; i < kN; ++i) received.push_back(ctx.get_col().lane[0]);
    }
  });
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], static_cast<double>(i));
  }
}

}  // namespace
}  // namespace swdnn::sim
