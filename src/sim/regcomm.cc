#include "src/sim/regcomm.h"

#include <stdexcept>

namespace swdnn::sim {

Vec4 TransferBuffer::get() {
  if (queue_.empty()) {
    throw std::logic_error("TransferBuffer::get on an empty buffer");
  }
  const Vec4 value = queue_.front();
  queue_.pop_front();
  return value;
}

void TransferBuffer::put_packed(std::span<const double> data) {
  for (std::size_t off = 0; off < data.size(); off += 4) {
    Vec4 v;
    for (int l = 0; l < 4; ++l) {
      const std::size_t idx = off + static_cast<std::size_t>(l);
      v.lane[l] = idx < data.size() ? data[idx] : 0.0;
    }
    queue_.push_back(v);
  }
}

std::size_t TransferBuffer::get_unpacked(std::span<double> out) {
  std::size_t off = 0;
  while (off < out.size() && !queue_.empty()) {
    const Vec4& v = queue_.front();
    for (int l = 0; l < 4; ++l) {
      const std::size_t idx = off + static_cast<std::size_t>(l);
      if (idx < out.size()) out[idx] = v.lane[l];
    }
    queue_.pop_front();
    off += 4;
  }
  return off < out.size() ? off : out.size();
}

}  // namespace swdnn::sim
