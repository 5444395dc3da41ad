#include "nic/plb_dispatch.hpp"

namespace albatross {

PlbEngine::PlbEngine(PlbEngineConfig cfg) : cfg_(cfg) {
  if (cfg_.num_reorder_queues == 0) cfg_.num_reorder_queues = 1;
  if (cfg_.num_rx_queues == 0) cfg_.num_rx_queues = 1;
  queues_.reserve(cfg_.num_reorder_queues);
  for (std::uint16_t i = 0; i < cfg_.num_reorder_queues; ++i) {
    queues_.push_back(std::make_unique<ReorderQueue>(cfg_.reorder_entries,
                                                     cfg_.reorder_timeout));
  }
}

std::uint16_t PlbEngine::ordq_index(const FiveTuple& tuple) const {
  // get_ordq_idx (Fig. 3): 5-tuple hash so one flow maps to one
  // order-preserving queue; reordering is per flow-group, not per flow.
  return static_cast<std::uint16_t>(crc32c(tuple) %
                                    cfg_.num_reorder_queues);
}

std::optional<PlbDispatchResult> PlbEngine::dispatch(Packet& pkt,
                                                     NanoTime now) {
  const std::uint16_t ordq = ordq_index(pkt.tuple);
  const auto psn = queues_[ordq]->reserve(now);
  if (!psn) {
    ++ingress_drops_;
    return std::nullopt;
  }
  PlbMeta meta;
  meta.psn = *psn;
  meta.ordq_idx = static_cast<std::uint8_t>(ordq);
  pkt.attach_plb_meta(meta);

  PlbDispatchResult r;
  r.ordq = static_cast<std::uint8_t>(ordq);
  r.psn = *psn;
  // Pure round-robin spray across the pod's RX data queues — this is
  // the packet-level load balancing itself.
  r.rx_queue = static_cast<std::uint16_t>(rx_rr_++ % cfg_.num_rx_queues);
  pkt.rx_queue = r.rx_queue;
  return r;
}

void PlbEngine::writeback(PacketPtr pkt, NanoTime now,
                          std::vector<ReorderEgress>& out) {
  PlbMeta meta;
  if (pkt == nullptr || !pkt->strip_plb_meta(meta)) {
    // A PLB packet without a trailer cannot be order-checked; emit it
    // best-effort rather than wedging the FIFO.
    if (pkt != nullptr) {
      out.push_back(ReorderEgress{std::move(pkt), false, PlbMeta{}});
    }
    return;
  }
  const std::size_t q = meta.ordq_idx % queues_.size();
  queues_[q]->writeback(std::move(pkt), meta, now, out);
  queues_[q]->drain(now, out);
}

void PlbEngine::drain_all(NanoTime now, std::vector<ReorderEgress>& out) {
  for (auto& q : queues_) q->drain(now, out);
}

std::optional<NanoTime> PlbEngine::next_deadline() const {
  std::optional<NanoTime> best;
  for (const auto& q : queues_) {
    const auto d = q->head_deadline();
    if (d && (!best || *d < *best)) best = d;
  }
  return best;
}

ReorderQueueStats PlbEngine::total_stats() const {
  ReorderQueueStats t;
  for (const auto& q : queues_) {
    const auto& s = q->stats();
    t.reserved += s.reserved;
    t.fifo_full_drops += s.fifo_full_drops;
    t.in_order_tx += s.in_order_tx;
    t.best_effort_tx += s.best_effort_tx;
    t.timeout_releases += s.timeout_releases;
    t.drop_releases += s.drop_releases;
    t.header_only_payload_lost += s.header_only_payload_lost;
    t.legal_check_fail += s.legal_check_fail;
    t.legal_check_alias += s.legal_check_alias;
  }
  return t;
}

}  // namespace albatross
