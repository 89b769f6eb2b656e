#include "src/sim/ldm.h"

#include <limits>
#include <string>

#include "src/sim/fault.h"

namespace swdnn::sim {

LdmOverflow::LdmOverflow(std::size_t requested, std::size_t used,
                         std::size_t capacity)
    : std::runtime_error("LDM overflow: request of " +
                         std::to_string(requested) + " bytes with " +
                         std::to_string(used) + "/" +
                         std::to_string(capacity) + " bytes in use") {}

LdmAllocator::LdmAllocator(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      arena_(new double[capacity_bytes / sizeof(double) + 1]) {}

std::span<double> LdmAllocator::alloc_doubles(std::size_t count) {
  // Compared in doubles against the free space, so neither the byte
  // count nor the new total can wrap.
  if (count > (capacity_bytes_ - used_bytes_) / sizeof(double)) {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    throw LdmOverflow(
        count > kMax / sizeof(double) ? kMax : count * sizeof(double),
        used_bytes_, capacity_bytes_);
  }
  const std::size_t bytes = count * sizeof(double);
  if (injector_ != nullptr) {
    const std::size_t loss = injector_->ldm_capacity_loss();
    const std::size_t usable =
        loss < capacity_bytes_ ? capacity_bytes_ - loss : 0;
    if (used_bytes_ + bytes > usable) {
      injector_->report_ldm_capacity_fault(cpe_, bytes);
      if (on_fault_) {
        on_fault_("LDM capacity fault on CPE " + std::to_string(cpe_));
      }
    }
  }
  double* base = arena_.get() + used_bytes_ / sizeof(double);
  used_bytes_ += bytes;
  std::span<double> out{base, count};
  if (injector_ != nullptr && count > 0 && injector_->poll_ldm_bitflip(cpe_)) {
    // Simulated single-event upset caught by the (modeled) LDM parity
    // check: poison one word so silent reuse is impossible, and mark
    // the launch suspect so the driver re-executes or falls back.
    out[count / 2] = std::numeric_limits<double>::quiet_NaN();
    if (on_fault_) {
      on_fault_("LDM bit flip on CPE " + std::to_string(cpe_));
    }
  }
  return out;
}

void LdmAllocator::reset() { used_bytes_ = 0; }

void LdmAllocator::attach_faults(
    FaultInjector* injector, int cpe,
    std::function<void(const std::string&)> on_fault) {
  injector_ = injector;
  cpe_ = cpe;
  on_fault_ = std::move(on_fault);
}

}  // namespace swdnn::sim
