#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <span>
#include <stdexcept>
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

// --- TransferBuffer against a deque-of-Vec4 reference model ------------------
//
// The buffer stores packed doubles with a read head that rewinds when
// drained and compacts when it passes half the storage. Every read must
// equal what a plain std::deque<Vec4> FIFO with the same packing and
// partial-message rules returns.

/// The reference FIFO: one Vec4 per message, zero-padded on put, the
/// padding of a final partial message dropped on read.
struct ReferenceBuffer {
  std::size_t capacity;
  std::deque<Vec4> queue;

  void put_packed(std::span<const double> data) {
    for (std::size_t off = 0; off < data.size(); off += 4) {
      Vec4 v;
      for (std::size_t l = 0; l < 4; ++l) {
        v.lane[l] = off + l < data.size() ? data[off + l] : 0.0;
      }
      queue.push_back(v);
    }
  }

  std::size_t get_unpacked(std::span<double> out) {
    std::size_t off = 0;
    while (off < out.size() && !queue.empty()) {
      for (std::size_t l = 0; l < 4 && off + l < out.size(); ++l) {
        out[off + l] = queue.front().lane[l];
      }
      queue.pop_front();
      off += 4;
    }
    return off < out.size() ? off : out.size();
  }

  bool full() const { return queue.size() >= capacity; }
};

void expect_same_state(const TransferBuffer& buf, const ReferenceBuffer& ref,
                       int step) {
  ASSERT_EQ(buf.size(), ref.queue.size()) << "step " << step;
  ASSERT_EQ(buf.empty(), ref.queue.empty()) << "step " << step;
  ASSERT_EQ(buf.full(), ref.full()) << "step " << step;
}

TEST(TransferBufferDifferential, RandomInterleavingsMatchTheDequeModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 gen(seed);
    TransferBuffer buf(4);
    ReferenceBuffer ref{4, {}};
    double next = 1;  // every value put is distinct
    auto ragged = [&gen] { return static_cast<std::size_t>(gen() % 23); };
    for (int step = 0; step < 4000; ++step) {
      switch (gen() % 16) {
        case 0:
        case 1:
        case 2: {  // Vec4 put
          const Vec4 v{{next, next + 1, next + 2, next + 3}};
          next += 4;
          buf.put(v);
          ref.queue.push_back(v);
          break;
        }
        case 3:
        case 4:
        case 5: {  // Vec4 get
          if (ref.queue.empty()) break;
          const Vec4 want = ref.queue.front();
          ref.queue.pop_front();
          const Vec4 got = buf.get();
          for (int l = 0; l < 4; ++l) {
            ASSERT_EQ(got.lane[l], want.lane[l]) << "step " << step;
          }
          break;
        }
        case 6:
        case 7:
        case 8:
        case 9: {  // bulk put of a ragged tile (zero-padded tail)
          std::vector<double> tile(ragged());
          for (double& v : tile) v = next++;
          buf.put_packed(tile);
          ref.put_packed(tile);
          break;
        }
        case 15: {  // launch-boundary reset
          if (gen() % 8 != 0) break;
          buf.clear();
          ref.queue.clear();
          break;
        }
        default: {  // bulk get, possibly spanning several puts
          const std::size_t n = ragged() * (1 + gen() % 3);
          std::vector<double> got(n + 1, -1.0), want(n + 1, -1.0);
          const std::size_t got_n =
              buf.get_unpacked(std::span<double>(got).first(n));
          const std::size_t want_n =
              ref.get_unpacked(std::span<double>(want).first(n));
          ASSERT_EQ(got_n, want_n) << "step " << step;
          ASSERT_EQ(got, want) << "step " << step;  // incl. the guard slot
          break;
        }
      }
      expect_same_state(buf, ref, step);
    }
    // Drain what is left.
    while (!ref.queue.empty()) {
      ASSERT_EQ(buf.get().lane[0], ref.queue.front().lane[0]);
      ref.queue.pop_front();
    }
    EXPECT_TRUE(buf.empty());
  }
}

TEST(TransferBufferDifferential, CompactionKeepsTheUnreadMessages) {
  // Ten messages in, six out: the read head passes half the storage
  // and the unread four move to the front. The padded tail survives.
  TransferBuffer buf(4);
  std::vector<double> tile(38);
  for (std::size_t i = 0; i < tile.size(); ++i) tile[i] = 100.0 + i;
  buf.put_packed(tile);
  EXPECT_EQ(buf.size(), 10u);
  std::vector<double> head(24);
  EXPECT_EQ(buf.get_unpacked(head), 24u);
  EXPECT_EQ(head.back(), 123.0);
  EXPECT_EQ(buf.size(), 4u);
  buf.put(Vec4::splat(7.0));  // appended after the compacted rest
  std::vector<double> rest(20, -1.0);
  EXPECT_EQ(buf.get_unpacked(rest), 20u);
  for (std::size_t i = 0; i < 14; ++i) EXPECT_EQ(rest[i], 124.0 + i) << i;
  EXPECT_EQ(rest[14], 0.0);  // zero padding of the partial message
  EXPECT_EQ(rest[15], 0.0);
  for (std::size_t i = 16; i < 20; ++i) EXPECT_EQ(rest[i], 7.0) << i;
  EXPECT_TRUE(buf.empty());
}

TEST(TransferBufferDifferential, PartialReadDropsTheRestOfItsLastMessage) {
  TransferBuffer buf(4);
  const std::vector<double> tile{1, 2, 3, 4, 5, 6, 7, 8};
  buf.put_packed(tile);
  std::vector<double> out(5, -1.0);
  // Two messages consumed; lanes 6..8 of the second are discarded.
  EXPECT_EQ(buf.get_unpacked(out), 5u);
  EXPECT_EQ(out, (std::vector<double>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(buf.empty());
  // A read larger than what is buffered returns what there was.
  buf.put_packed(std::vector<double>{9, 10});
  std::vector<double> big(12, -1.0);
  EXPECT_EQ(buf.get_unpacked(big), 4u);
  EXPECT_EQ(big[0], 9.0);
  EXPECT_EQ(big[1], 10.0);
  EXPECT_EQ(big[2], 0.0);
  EXPECT_EQ(big[3], 0.0);
  EXPECT_EQ(big[4], -1.0);
}

TEST(TransferBufferDifferential, ClearEmptiesAndTheBufferStaysUsable) {
  TransferBuffer buf(2);
  buf.put_packed(std::vector<double>(64, 3.0));
  EXPECT_TRUE(buf.full());
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.full());
  EXPECT_EQ(buf.size(), 0u);
  buf.put(Vec4{{1, 2, 3, 4}});
  EXPECT_EQ(buf.get().lane[3], 4.0);
  EXPECT_THROW(buf.get(), std::logic_error);
}

}  // namespace
}  // namespace swdnn::sim
