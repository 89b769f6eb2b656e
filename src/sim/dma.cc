#include "src/sim/dma.h"

#include <cmath>

namespace swdnn::sim {

std::uint64_t DmaEngine::cost_cycles(std::uint64_t bytes, double bw_gbs,
                                     double clock_ghz) {
  // bytes / (GB/s) = ns; cycles = ns * GHz. The Table II bandwidth is a
  // per-core-group aggregate, so the cycles computed here represent the
  // engine-occupancy share of this request.
  if (!(bw_gbs > 0.0)) return kSaturatedCycles;  // also catches NaN
  const double cycles = std::ceil(static_cast<double>(bytes) / bw_gbs *
                                  clock_ghz);
  // Doubles at or above 2^64 (including +inf from clock/bytes extremes)
  // cannot be cast to uint64_t without UB.
  if (!(cycles < 18446744073709551616.0)) return kSaturatedCycles;
  return cycles < 0.0 ? 0 : static_cast<std::uint64_t>(cycles);
}

double DmaEngine::bandwidth_gbs(std::int64_t block_bytes,
                                perf::DmaDirection dir, bool aligned) {
  const auto kind = static_cast<std::uint8_t>(
      (dir == perf::DmaDirection::kGet ? 0 : 2) + (aligned ? 1 : 0));
  // Fibonacci hash of the block size (top 6 bits), mixed with the kind.
  const std::size_t slot =
      ((static_cast<std::uint64_t>(block_bytes) * 0x9E3779B97F4A7C15ULL) >>
       58) ^ kind;
  BandwidthMemo& m = memo_[slot];
  if (m.kind != kind || m.block_bytes != block_bytes) {
    m.block_bytes = block_bytes;
    m.kind = kind;
    m.gbs = perf::dma_table().bandwidth_gbs(block_bytes, dir, aligned);
  }
  return m.gbs;
}

std::uint64_t DmaEngine::cost(std::uint64_t bytes, std::int64_t block_bytes,
                              perf::DmaDirection dir, bool aligned) {
  return cost_cycles(bytes, bandwidth_gbs(block_bytes, dir, aligned),
                     spec_.cpe_clock_ghz);
}

void DmaEngine::add_shard(const DmaShard& shard) {
  total_.get_bytes += shard.get_bytes;
  total_.put_bytes += shard.put_bytes;
  total_.requests += shard.requests;
  total_.misaligned_requests += shard.misaligned_requests;
  total_.cycles += shard.cycles;
}

void DmaEngine::reset() { total_.reset(); }

std::uint64_t DmaEngine::record(std::uint64_t bytes, std::int64_t block_bytes,
                                perf::DmaDirection dir, bool aligned) {
  const std::uint64_t cycles = cost(bytes, block_bytes, dir, aligned);
  total_.add(bytes, dir, aligned, cycles);
  return cycles;
}

DmaTotals DmaEngine::totals() const {
  DmaTotals t;
  t.get_bytes = total_.get_bytes;
  t.put_bytes = total_.put_bytes;
  t.requests = total_.requests;
  t.misaligned_requests = total_.misaligned_requests;
  return t;
}

double DmaEngine::modeled_seconds() const {
  return static_cast<double>(total_.cycles) / (spec_.cpe_clock_ghz * 1e9);
}

}  // namespace swdnn::sim
