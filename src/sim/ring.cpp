#include "sim/ring.hpp"

namespace albatross {

PushResult PacketRing::push(PacketPtr pkt) {
  if (size_ + held_ >= capacity_) {
    ++stats_.drops;
    return PushResult::kFull;
  }
  slots_[wrap(head_ + size_)] = std::move(pkt);
  ++size_;
  ++stats_.enqueued;
  if (size_ + held_ > stats_.high_watermark) {
    stats_.high_watermark = size_ + held_;
  }
  return PushResult::kOk;
}

std::size_t PacketRing::push_burst(std::span<PacketPtr> pkts) {
  std::size_t n = 0;
  // Checking full() first keeps rejected packets with the caller.
  while (n < pkts.size() && !full()) (void)push(std::move(pkts[n++]));
  stats_.drops += pkts.size() - n;
  return n;
}

std::size_t PacketRing::pop_burst(std::span<PacketPtr> out) {
  const std::size_t n = out.size() < size_ ? out.size() : size_;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
  }
  size_ -= n;
  stats_.dequeued += n;
  return n;
}

}  // namespace albatross
