#include "src/sim/regcomm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace swdnn::sim {

void TransferBuffer::consume(std::size_t doubles) {
  head_ += doubles;
  if (head_ == data_.size()) {
    clear();
  } else if (head_ > data_.size() / 2) {
    data_.erase(data_.begin(),
                data_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

Vec4 TransferBuffer::get() {
  if (empty()) {
    throw std::logic_error("TransferBuffer::get on an empty buffer");
  }
  Vec4 value;
  std::memcpy(value.lane, data_.data() + head_, sizeof(value.lane));
  consume(4);
  return value;
}

void TransferBuffer::put_packed(std::span<const double> data) {
  data_.insert(data_.end(), data.begin(), data.end());
  // Zero the trailing lanes of a final partial message.
  data_.resize(data_.size() + (4 - data.size() % 4) % 4, 0.0);
}

std::size_t TransferBuffer::get_unpacked(std::span<double> out) {
  // Whole messages: a final partial message's padding is discarded.
  const std::size_t messages = std::min(size(), (out.size() + 3) / 4);
  const std::size_t doubles = std::min(messages * 4, out.size());
  if (doubles > 0) {
    std::memcpy(out.data(), data_.data() + head_, doubles * sizeof(double));
  }
  consume(messages * 4);
  return doubles;
}

}  // namespace swdnn::sim
