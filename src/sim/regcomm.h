#pragma once
// Register communication: 256-bit messages over row/column buses.
//
// SW26010's CPE mesh has 8 row buses and 8 column buses. A sender Puts a
// 256-bit register into the Transfer Buffer of a receiver on its own
// row/column; the receiver Gets it into its register file. Put blocks
// when the receiver's buffer is full, Get blocks when it is empty —
// exactly the producer-consumer discipline the paper describes. The
// hardware also offers row/column broadcast, which the vldr/vldc-based
// kernels use (Section V-C).
//
// The simulator implements a TransferBuffer as a flat FIFO: one reused
// std::vector<double> of packed 4-double messages with a read head. A
// CPE owns two receive buffers: one fed by its row bus, one by its
// column bus. Message order on one bus is FIFO per sender and, because
// a bus serializes, FIFO globally per buffer.
//
// The buffer itself never blocks: all CPEs of a launch run as fibers on
// one host thread (executor.h), and the blocking discipline lives in
// CpeContext, which yields to the scheduler before a Get on an empty
// buffer and before a Vec4 Put into a buffer at its slot capacity. The
// storage keeps its capacity across clear() and across launches; it
// rewinds when drained and compacts when the read head passes half of
// it, so a steady stream of puts and gets allocates nothing. Two
// access disciplines share the storage:
//   * the Vec4 reference path (put/get) — one message at a time,
//     back-pressured at the hardware buffer depth; and
//   * the bulk span path (put_packed/get_unpacked) — a whole tile's
//     worth of messages at once. Bulk puts deliberately ignore the slot
//     capacity: waiting on a full buffer is host-scheduling behaviour
//     only (no cycles are ever charged for it), so batching past the
//     depth changes no modeled observable while eliminating most
//     scheduler switches. Cycle and message accounting stay per-Vec4
//     in the caller.

#include <cstddef>
#include <span>
#include <vector>

namespace swdnn::sim {

/// One 256-bit vector register: 4 doubles.
struct Vec4 {
  double lane[4] = {0, 0, 0, 0};

  static Vec4 splat(double v) { return Vec4{{v, v, v, v}}; }

  Vec4& fma(const Vec4& a, const Vec4& b) {
    for (int i = 0; i < 4; ++i) lane[i] += a.lane[i] * b.lane[i];
    return *this;
  }
  Vec4 operator+(const Vec4& o) const {
    Vec4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = lane[i] + o.lane[i];
    return r;
  }
  Vec4 operator*(const Vec4& o) const {
    Vec4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = lane[i] * o.lane[i];
    return r;
  }
};

class TransferBuffer {
 public:
  explicit TransferBuffer(std::size_t capacity) : capacity_(capacity) {}

  /// Enqueues one message (sender side of a bus Put). Does not check
  /// the capacity: the sender waits for a free slot before calling.
  void put(const Vec4& value) {
    data_.insert(data_.end(), value.lane, value.lane + 4);
  }

  /// Dequeues the oldest message (receiver's Get into its register
  /// file). Requires !empty().
  Vec4 get();

  /// Bulk sender: packs `data` into ceil(n/4) Vec4 messages (trailing
  /// lanes zero, matching the reference path's packing) and enqueues
  /// them all, regardless of capacity — see the header comment for why
  /// that is observationally safe.
  void put_packed(std::span<const double> data);

  /// Bulk receiver: dequeues up to ceil(n/4) of the buffered messages
  /// and unpacks them into the front of `out`, discarding the zero
  /// padding of a final partial message. Returns the number of doubles
  /// written (out.size() once enough messages were buffered).
  std::size_t get_unpacked(std::span<double> out);

  /// Drops any buffered messages (launch-boundary reset); the storage
  /// keeps its capacity.
  void clear() {
    data_.clear();
    head_ = 0;
  }

  /// Buffered messages.
  std::size_t size() const { return (data_.size() - head_) / 4; }
  bool empty() const { return head_ == data_.size(); }
  /// At or past the slot capacity (bulk puts may overfill).
  bool full() const { return size() >= capacity_; }
  std::size_t capacity() const { return capacity_; }

 private:
  /// Advances the read head past `doubles` consumed values; rewinds a
  /// drained buffer and compacts once the head passes half the data.
  void consume(std::size_t doubles);

  const std::size_t capacity_;
  std::vector<double> data_;  ///< messages, 4 doubles each, oldest first
  std::size_t head_ = 0;      ///< index of the oldest buffered double
};

}  // namespace swdnn::sim
