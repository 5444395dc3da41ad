#include "nic/pkt_dir.hpp"

#include <algorithm>

#include "packet/headers.hpp"

namespace albatross {

void PktDir::configure_pod(PodId pod, PktDirConfig cfg) {
  if (pod_cfgs_.size() <= pod) pod_cfgs_.resize(pod + 1);
  pod_cfgs_[pod] = std::move(cfg);
}

const PktDirConfig& PktDir::pod_config(PodId pod) const {
  if (pod < pod_cfgs_.size()) return pod_cfgs_[pod];
  return default_cfg_;
}

PktDirDecision PktDir::decide(const PktDirConfig& cfg, bool is_protocol,
                              const FiveTuple& tuple, std::size_t frame_len) {
  PktDirDecision d;
  if (is_protocol && cfg.priority_queues_enabled) {
    ++stats_.priority;
    d.cls = PktClass::kPriority;
    d.delivery = DeliveryMode::kWholePacket;  // protocol pkts never split
    return d;
  }
  const bool pinned =
      std::find(cfg.rss_pinned_dst_ports.begin(),
                cfg.rss_pinned_dst_ports.end(),
                tuple.dst_port) != cfg.rss_pinned_dst_ports.end();
  d.cls = pinned ? PktClass::kRss : cfg.default_class;
  d.cls == PktClass::kRss ? ++stats_.rss : ++stats_.plb;
  d.delivery = (cfg.data_delivery == DeliveryMode::kHeaderOnly &&
                frame_len > cfg.header_split_threshold)
                   ? DeliveryMode::kHeaderOnly
                   : DeliveryMode::kWholePacket;
  return d;
}

PktDirDecision PktDir::classify_annotated(PodId pod, const Packet& pkt) {
  const bool is_protocol =
      (pkt.tuple.proto == IpProto::kTcp &&
       (pkt.tuple.src_port == kBgpPort || pkt.tuple.dst_port == kBgpPort)) ||
      (pkt.tuple.proto == IpProto::kUdp && pkt.tuple.dst_port == kBfdPort);
  return decide(pod_config(pod), is_protocol, pkt.tuple, pkt.size());
}

}  // namespace albatross
