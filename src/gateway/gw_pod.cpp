#include "gateway/gw_pod.hpp"

#include <algorithm>
#include <span>

#include "nic/nic_pipeline.hpp"  // kPriorityQueue

namespace albatross {

GwPod::GwPod(const GwPodConfig& cfg, EventLoop& loop, ServiceTables& tables,
             CacheModel& cache)
    : cfg_(cfg), loop_(loop), rng_(cfg.seed) {
  service_ = make_service(cfg_.service, tables, cache, cfg_.numa_node,
                          cfg_.faults);
  cores_.reserve(cfg_.data_cores);
  for (std::uint16_t c = 0; c < cfg_.data_cores; ++c) {
    cores_.push_back(std::make_unique<Core>(cfg_.rx_ring_capacity));
  }
  NumaBalancer::Config bal;
  bal.enabled = cfg_.numa_balancing;
  bal.scan_period = cfg_.numa_balancing_scan_period;
  balancer_ = NumaBalancer(bal);
}

void GwPod::deliver(PacketPtr pkt, std::uint16_t rx_queue, NanoTime now) {
  if (rx_queue == kPriorityQueue) {
    ++stats_.protocol_packets;
    if (protocol_) protocol_(std::move(pkt), now);
    return;
  }
  Core& core = *cores_[rx_queue % cores_.size()];
  const auto core_id =
      CoreId{static_cast<std::uint16_t>(rx_queue % cores_.size())};
  if (probe_ != nullptr) probe_->on_data_rx(cfg_.id, core_id, now);
  // Flow identity survives the push: on kFull the ring consumes (and
  // frees) the packet, but the drop hook still needs to know whose
  // packet died.
  const FiveTuple drop_tuple = pkt->tuple;
  const PktClass drop_class = pkt->pkt_class;
  if (core.ring.push(std::move(pkt)) != PushResult::kOk) {
    // RX descriptor overflow: one of the CPU-side loss sources that
    // strands reorder-FIFO entries (the packet never comes back).
    ++stats_.dropped_ring;
    if (probe_ != nullptr) {
      probe_->on_drop(cfg_.id, core_id, PodDropKind::kRing, now);
    }
    if (drop_hook_) drop_hook_(drop_tuple, drop_class, now);
    return;
  }
  if (!core.busy) start_core(core_id, now);
}

std::uint64_t GwPod::packet_rng_seed(const Packet& pkt) const {
  // splitmix64 over (pod seed, flow, sequence, arrival): distinct
  // packets get decorrelated service-rng streams, and re-deriving the
  // seed for the same packet always lands on the same stream.
  std::uint64_t h = cfg_.seed;
  const auto mix = [&h](std::uint64_t v) {
    h += 0x9e3779b97f4a7c15ull + v;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
  };
  mix(pkt.flow_id);
  mix(pkt.seq_in_flow);
  mix(static_cast<std::uint64_t>(pkt.rx_time.count()));
  return h != 0 ? h : 1;  // 0 means "use the shared rng" in the lane protocol
}

void GwPod::start_core(CoreId core_id, NanoTime now) {
  Core& core = *cores_[core_id.index()];
  const std::size_t want = std::clamp<std::size_t>(
      cfg_.rx_burst, 1, PacketBurst::kMaxBurst);
  const std::size_t n =
      core.ring.pop_burst(std::span(core.burst.pkts.data(), want));
  if (n == 0) {
    core.busy = false;
    return;
  }
  core.busy = true;
  // Packets past the first stay charged against the ring as held
  // descriptor credits until their service slot starts, so producers
  // see the same occupancy timeline a one-at-a-time drain produces.
  core.ring.hold(n - 1);
  core.burst.count = n;
  for (std::size_t i = 0; i < n; ++i) {
    // A packet carrying a PLB meta trailer was sprayed; one without it
    // (RSS mode or a pinned class) is flow-affine on this core, which
    // is what earns the small private-cache bonus in the cache model.
    core.burst.flow_affine[i] = !core.burst.pkts[i]->has_plb_meta();
    core.burst.rng_seed[i] = packet_rng_seed(*core.burst.pkts[i]);
  }
  service_->process_burst(core.burst, core_id, /*flow_affine=*/false, now,
                          rng_);
  core.burst_next = 0;
  dispatch_next(core_id, now);
}

void GwPod::dispatch_next(CoreId core_id, NanoTime now) {
  Core& core = *cores_[core_id.index()];
  // Smoothed load estimate (drives the numa_balancing stall model):
  // queue depth — including burst-held descriptors — is the congestion
  // signal a run loop actually sees.
  recent_load_ =
      0.95 * recent_load_ +
      0.05 * std::min(1.0, static_cast<double>(core.ring.size() +
                                               core.ring.held()) /
                               4.0);
  ServiceOutcome& outcome = core.burst.outcomes[core.burst_next];
  outcome.cpu_ns += balancer_.maybe_stall(now, recent_load_);
  if (now < core.stall_until) outcome.cpu_ns += core.stall_until - now;

  const NanoTime done = now + outcome.cpu_ns;
  core.busy_ns += outcome.cpu_ns;
  service_hist_.record(outcome.cpu_ns);
  core.next_done = done;
  loop_.schedule_at(done, [this, core_id] { emit_next(core_id); });
}

void GwPod::emit_next(CoreId core_id) {
  Core& core = *cores_[core_id.index()];
  const NanoTime done = core.next_done;
  const std::size_t i = core.burst_next;
  emit_packet(core_id, std::move(core.burst.pkts[i]),
              core.burst.outcomes[i], done);
  ++core.burst_next;
  if (core.burst_next < core.burst.count) {
    // The next packet's descriptor is recycled exactly when its service
    // slot begins — the same instant a scalar drain would pop it.
    core.ring.release_hold(1);
    dispatch_next(core_id, done);
    return;
  }
  core.burst.count = 0;
  if (!core.ring.empty()) {
    start_core(core_id, done);
  } else {
    core.busy = false;
  }
}

void GwPod::emit_packet(CoreId core_id, PacketPtr pkt,
                        ServiceOutcome outcome, NanoTime done) {
  Core& core = *cores_[core_id.index()];
  ++core.processed;
  ++stats_.processed;

  // Protocol packets that arrived via the DATA path (priority queues
  // disabled — the §4.3 ablation) are consumed locally after surviving
  // the run loop: hand them to the ctrl plane and release their reorder
  // resources with a drop notification so the FIFO doesn't stall.
  const bool local_protocol =
      (pkt->tuple.proto == IpProto::kUdp &&
       pkt->tuple.dst_port == kBfdPort) ||
      (pkt->tuple.proto == IpProto::kTcp &&
       (pkt->tuple.dst_port == kBgpPort || pkt->tuple.src_port == kBgpPort));
  if (outcome.action == ServiceAction::kForward && local_protocol) {
    ++stats_.protocol_packets;
    if (probe_ != nullptr) {
      probe_->on_drop(cfg_.id, core_id, PodDropKind::kProtocol, done);
    }
    PlbMeta rel_meta;
    if (pkt->strip_plb_meta(rel_meta) && cfg_.drop_flag_enabled && egress_) {
      auto release = Packet::make_synthetic(pkt->tuple, pkt->vni, 64);
      rel_meta.drop = true;
      release->attach_plb_meta(rel_meta);
      ++stats_.drop_flags_sent;
      egress_(std::move(release), done);
    }
    if (protocol_) protocol_(std::move(pkt), done);
    return;
  }

  if (outcome.action == ServiceAction::kDrop) {
    ++stats_.dropped_service;
    if (probe_ != nullptr) {
      probe_->on_drop(cfg_.id, core_id, PodDropKind::kService, done);
    }
    if (drop_hook_) drop_hook_(pkt->tuple, pkt->pkt_class, done);
    PlbMeta meta;
    if (cfg_.drop_flag_enabled && pkt->has_plb_meta() &&
        pkt->peek_plb_meta(meta)) {
      // Active drop flag (Fig. 12): notify the NIC so it releases the
      // reorder resources instead of waiting out the 100us timeout.
      meta.drop = true;
      pkt->update_plb_meta(meta);
      ++stats_.drop_flags_sent;
      if (egress_) egress_(std::move(pkt), done);
    }
    // Without the flag (or for RSS packets) the drop is silent.
  } else {
    ++stats_.forwarded;
    if (probe_ != nullptr) probe_->on_forward(cfg_.id, core_id, done);
    if (egress_) egress_(std::move(pkt), done);
  }
}

NanoTime GwPod::core_busy_ns(CoreId core) const {
  return cores_[core.index() % cores_.size()]->busy_ns;
}

std::uint64_t GwPod::core_processed(CoreId core) const {
  return cores_[core.index() % cores_.size()]->processed;
}

void GwPod::inject_core_stall(CoreId core, NanoTime duration, NanoTime now) {
  Core& c = *cores_[core.index() % cores_.size()];
  const NanoTime until = now + duration;
  if (until > c.stall_until) c.stall_until = until;
  ++core_stalls_;
}

}  // namespace albatross
