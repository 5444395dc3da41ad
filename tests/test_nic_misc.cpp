// pkt_dir classification, DMA model, payload buffer / header-split,
// SR-IOV partitioning, FPGA resource ledger and NicPipeline integration.
#include <gtest/gtest.h>

#include "common/endian.hpp"
#include "nic/basic_pipeline.hpp"
#include "nic/dma.hpp"
#include "nic/nic_pipeline.hpp"
#include "nic/pkt_dir.hpp"
#include "nic/resources.hpp"
#include "nic/sriov.hpp"
#include "packet/parser.hpp"

namespace albatross {
namespace {

FiveTuple udp_tuple(std::uint16_t dport) {
  return FiveTuple{Ipv4Address::from_octets(10, 0, 0, 1),
                   Ipv4Address::from_octets(8, 0, 0, 1), 40000, dport,
                   IpProto::kUdp};
}

TEST(PktDir, ClassifiesProtocolVsData) {
  PktDir dir;
  dir.configure_pod(0, PktDirConfig{});

  auto bfd = Packet::make_synthetic(udp_tuple(kBfdPort), 0, 80);
  EXPECT_EQ(dir.classify_annotated(0, *bfd).cls, PktClass::kPriority);

  FiveTuple bgp_t = udp_tuple(kBgpPort);
  bgp_t.proto = IpProto::kTcp;
  auto bgp = Packet::make_synthetic(bgp_t, 0, 80);
  EXPECT_EQ(dir.classify_annotated(0, *bgp).cls, PktClass::kPriority);

  auto data = Packet::make_synthetic(udp_tuple(5000), 3, 256);
  EXPECT_EQ(dir.classify_annotated(0, *data).cls, PktClass::kPlb);
  EXPECT_EQ(dir.stats().priority, 2u);
  EXPECT_EQ(dir.stats().plb, 1u);
}

TEST(PktDir, RssPinnedPortsStayFlowAffine) {
  // Zoonet probes / health checks are pinned to RSS (§3.2).
  PktDirConfig cfg;
  cfg.rss_pinned_dst_ports = {7777};
  PktDir dir;
  dir.configure_pod(0, cfg);
  auto probe = Packet::make_synthetic(udp_tuple(7777), 1, 128);
  EXPECT_EQ(dir.classify_annotated(0, *probe).cls, PktClass::kRss);
}

TEST(PktDir, HeaderOnlyAboveThreshold) {
  PktDirConfig cfg;
  cfg.data_delivery = DeliveryMode::kHeaderOnly;
  cfg.header_split_threshold = 512;
  PktDir dir;
  dir.configure_pod(2, cfg);
  auto jumbo = Packet::make_synthetic(udp_tuple(5000), 1, 8500);
  auto tiny = Packet::make_synthetic(udp_tuple(5000), 1, 128);
  EXPECT_EQ(dir.classify_annotated(2, *jumbo).delivery,
            DeliveryMode::kHeaderOnly);
  EXPECT_EQ(dir.classify_annotated(2, *tiny).delivery,
            DeliveryMode::kWholePacket);
}

TEST(Dma, BaseLatencyAndSerialization) {
  DmaChannel ch(DmaConfig{.base_latency = Nanos{3000}, .bandwidth_gbps = 100.0,
                          .descriptors = 4});
  // 1250 bytes at 100 Gbps = 100ns of wire time.
  const auto t1 = ch.transfer(Nanos{0}, 1250);
  EXPECT_EQ(t1, NanoTime{100 + 3000});
  // A back-to-back transfer queues behind the first.
  const auto t2 = ch.transfer(Nanos{0}, 1250);
  EXPECT_EQ(t2, NanoTime{200 + 3000});
  EXPECT_EQ(ch.stats().transfers, 2u);
  EXPECT_EQ(ch.stats().bytes, 2500u);
}

TEST(Dma, DescriptorPressureCounted) {
  DmaChannel ch(DmaConfig{.base_latency = Nanos{0}, .bandwidth_gbps = 1.0,
                          .descriptors = 2});
  for (int i = 0; i < 16; ++i) ch.transfer(Nanos{0}, 10000);
  EXPECT_GT(ch.stats().descriptor_stalls, 0u);
}

TEST(PayloadBuffer, StoreFetchRelease) {
  PayloadBuffer buf(4);
  const auto id = buf.store({1, 2, 3, 4});
  EXPECT_EQ(buf.in_use(), 1u);
  EXPECT_EQ(buf.bytes_in_use(), 4u);
  const auto payload = buf.fetch_release(id);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->size(), 4u);
  EXPECT_EQ(buf.in_use(), 0u);
  EXPECT_FALSE(buf.fetch_release(id).has_value());  // single-shot
}

TEST(PayloadBuffer, EvictsOldestWhenFull) {
  PayloadBuffer buf(2);
  const auto a = buf.store({1});
  const auto b = buf.store({2});
  const auto c = buf.store({3});  // evicts a
  EXPECT_EQ(buf.evictions(), 1u);
  EXPECT_FALSE(buf.fetch_release(a).has_value());
  EXPECT_TRUE(buf.fetch_release(b).has_value());
  EXPECT_TRUE(buf.fetch_release(c).has_value());
}

TEST(BasicPipeline, VlanDecapEncapRoundTrip) {
  BasicPipeline bp;
  // Build a VLAN-tagged UDP frame by hand: eth + tag + ip + udp.
  UdpFlowSpec spec;
  spec.tuple = udp_tuple(5000);
  auto pkt = build_udp_packet(spec);
  // Insert a VLAN tag the way the uplink switch does.
  std::uint8_t macs[12];
  std::memcpy(macs, pkt->data(), 12);
  pkt->prepend(VlanTag::kSize);
  std::memcpy(pkt->data(), macs, 12);
  store_be16(pkt->data() + 12,
             static_cast<std::uint16_t>(EtherType::kVlan));
  VlanTag tag;
  tag.vlan_id = 123;
  tag.inner_ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  tag.write(pkt->data() + 14);

  std::optional<std::uint16_t> vlan;
  EXPECT_TRUE(bp.rx_process(*pkt, vlan));
  ASSERT_TRUE(vlan.has_value());
  EXPECT_EQ(*vlan, 123);
  // After decap the frame parses as plain IPv4.
  auto parsed = parse_packet(pkt->bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->vlan.has_value());
  EXPECT_EQ(parsed->l4_dst, 5000);

  // Re-encap on TX.
  PlbMeta none;
  EXPECT_TRUE(bp.tx_process(*pkt, none, vlan));
  parsed = parse_packet(pkt->bytes());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->vlan.has_value());
  EXPECT_EQ(parsed->vlan->vlan_id, 123);
}

TEST(BasicPipeline, HeaderSplitAndReassembly) {
  BasicPipeline bp;
  auto pkt = Packet::make_synthetic(udp_tuple(5000), 1, 4096);
  pkt->mutable_bytes()[4000] = 0xAB;  // payload marker
  const auto slot = bp.split(*pkt);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(pkt->size(), kHeaderSplitBytes);

  PlbMeta meta;
  meta.header_only = true;
  meta.payload_id = *slot;
  EXPECT_TRUE(bp.tx_process(*pkt, meta, std::nullopt));
  EXPECT_EQ(pkt->size(), 4096u);
  EXPECT_EQ(pkt->data()[4000], 0xAB);
  EXPECT_EQ(bp.stats().reassembled, 1u);
}

TEST(BasicPipeline, HeaderDroppedWhenPayloadEvicted) {
  BasicPipeline bp(/*payload_slots=*/1);
  auto p1 = Packet::make_synthetic(udp_tuple(1), 1, 2048);
  auto p2 = Packet::make_synthetic(udp_tuple(2), 1, 2048);
  const auto s1 = bp.split(*p1);
  const auto s2 = bp.split(*p2);  // evicts s1's payload
  ASSERT_TRUE(s1 && s2);
  PlbMeta m1;
  m1.header_only = true;
  m1.payload_id = *s1;
  EXPECT_FALSE(bp.tx_process(*p1, m1, std::nullopt));
  EXPECT_EQ(bp.stats().headers_dropped_payload_gone, 1u);
}

TEST(Sriov, FourVfsAcrossIndependentPorts) {
  SriovManager mgr;
  const auto set = mgr.allocate(0, NumaNodeId{0}, 16);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->vfs.size(), 4u);
  // The robustness wiring (Fig. B.2): 4 distinct (nic, port) paths.
  std::set<std::pair<std::uint16_t, std::uint16_t>> paths;
  for (const auto& vf : set->vfs) {
    paths.insert({vf.nic, vf.port});
    EXPECT_EQ(vf.queue_pairs, 16);
    EXPECT_LT(vf.nic, 2);  // NUMA 0 -> NICs 0,1
  }
  EXPECT_EQ(paths.size(), 4u);

  // NUMA 1 pods land on NICs 2,3.
  const auto set2 = mgr.allocate(1, NumaNodeId{1}, 8);
  ASSERT_TRUE(set2.has_value());
  for (const auto& vf : set2->vfs) EXPECT_GE(vf.nic, 2);

  // VLAN steering resolves back to the pod.
  EXPECT_EQ(mgr.pod_for_vlan(set->vfs[0].vlan_id), 0);
  EXPECT_EQ(mgr.pod_for_vlan(set2->vfs[3].vlan_id), 1);
  EXPECT_FALSE(mgr.pod_for_vlan(9999).has_value());
  EXPECT_EQ(mgr.vfs_in_use(), 8);
  mgr.release(0);
  EXPECT_EQ(mgr.vfs_in_use(), 4);
}

TEST(Sriov, QueueBudgetEnforced) {
  SriovConfig cfg;
  cfg.max_queue_pairs_per_port = 64;
  SriovManager mgr(cfg);
  EXPECT_TRUE(mgr.allocate(0, NumaNodeId{0}, 40).has_value());
  EXPECT_TRUE(mgr.allocate(1, NumaNodeId{0}, 20).has_value());
  EXPECT_FALSE(mgr.allocate(2, NumaNodeId{0}, 20).has_value());  // 40+20+20 > 64
}

TEST(Resources, LedgerMatchesTab5Shape) {
  FpgaResourceModel model;
  PlbEngineConfig plb;
  plb.num_reorder_queues = 8;
  PlbEngine e1(plb), e2(plb);
  TenantRateLimiter limiter;
  const auto rows =
      model.ledger({&e1, &e2}, limiter, /*payload_buffer_bytes=*/2 << 20);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].name, "Basic Pipeline");
  EXPECT_EQ(rows[4].name, "Sum");
  // Tab. 5 shape: basic pipeline dominates, PLB ~12.6% LUT, overload
  // detection small, total below the chip budget.
  EXPECT_GT(rows[0].lut_fraction, rows[2].lut_fraction);
  EXPECT_NEAR(rows[2].lut_fraction, 0.126, 1e-9);
  EXPECT_LT(rows[4].lut_fraction, 1.0);
  EXPECT_LT(rows[4].bram_fraction, 1.0);
  // PLB BRAM is structural: 16 queues x 4K entries x 23B x 8 bits.
  EXPECT_EQ(rows[2].bram_bits_structural, 16ull * 4096 * 23 * 8);
  // GOP SRAM ~2MB, held in LUTRAM/URAM (0% block RAM, Tab. 5).
  EXPECT_NEAR(static_cast<double>(rows[1].bram_bits_structural) / 8e6, 1.75,
              0.5);
  EXPECT_DOUBLE_EQ(rows[1].bram_fraction, 0.0);
}

TEST(NicPipeline, IngressDeliversPlbWithMeta) {
  NicPipeline nic;
  nic.register_pod(0, PlbEngineConfig{.num_reorder_queues = 2,
                                      .num_rx_queues = 4,
                                      .reorder_entries = 4096,
                                      .reorder_timeout = kReorderTimeout},
                   PktDirConfig{}, LbMode::kPlb);
  auto pkt = Packet::make_synthetic(udp_tuple(5000), 3, 256);
  pkt->rx_time = NanoTime{0};
  auto r = nic.ingress(std::move(pkt), 0, Nanos{0});
  EXPECT_EQ(r.outcome, IngressOutcome::kDelivered);
  EXPECT_EQ(r.cls, PktClass::kPlb);
  EXPECT_LT(r.rx_queue, 4);
  // Tab. 4: RX pipeline + DMA ~= 3.9us.
  EXPECT_NEAR(static_cast<double>(r.deliver_time.count()), 3900.0, 300.0);
  PlbMeta m;
  EXPECT_TRUE(r.pkt->peek_plb_meta(m));
}

TEST(NicPipeline, RssModeUsesToeplitzQueue) {
  NicPipeline nic;
  nic.register_pod(0, PlbEngineConfig{.num_reorder_queues = 1,
                                      .num_rx_queues = 8,
                                      .reorder_entries = 4096,
                                      .reorder_timeout = kReorderTimeout},
                   PktDirConfig{}, LbMode::kRss);
  // Same flow -> same queue, always; no meta attached.
  std::uint16_t queue = 0xffff;
  for (int i = 0; i < 20; ++i) {
    auto pkt = Packet::make_synthetic(udp_tuple(5000), 3, 256);
    auto r = nic.ingress(std::move(pkt), 0, i * NanoTime{1000});
    ASSERT_EQ(r.outcome, IngressOutcome::kDelivered);
    if (queue == 0xffff) queue = r.rx_queue;
    EXPECT_EQ(r.rx_queue, queue);
    PlbMeta m;
    EXPECT_FALSE(r.pkt->peek_plb_meta(m));
  }
}

TEST(NicPipeline, PriorityPacketsBypassGopAndPlb) {
  NicPipelineConfig cfg;
  cfg.gop.stage1_rate_pps = 1;  // GOP would drop any data packet
  cfg.gop.stage2_rate_pps = 1;
  cfg.gop.burst_seconds = 1e-6;
  NicPipeline nic(cfg);
  nic.register_pod(0, PlbEngineConfig{}, PktDirConfig{}, LbMode::kPlb);
  auto bfd = Packet::make_synthetic(udp_tuple(kBfdPort), 1, 80);
  auto r = nic.ingress(std::move(bfd), 0, Nanos{0});
  EXPECT_EQ(r.outcome, IngressOutcome::kDelivered);
  EXPECT_EQ(r.rx_queue, kPriorityQueue);
}

TEST(NicPipeline, EgressRoundTripInOrder) {
  NicPipeline nic;
  nic.register_pod(0, PlbEngineConfig{.num_reorder_queues = 1,
                                      .num_rx_queues = 1,
                                      .reorder_entries = 4096,
                                      .reorder_timeout = kReorderTimeout},
                   PktDirConfig{}, LbMode::kPlb);
  auto pkt = Packet::make_synthetic(udp_tuple(5000), 3, 256);
  auto r = nic.ingress(std::move(pkt), 0, Nanos{0});
  ASSERT_EQ(r.outcome, IngressOutcome::kDelivered);
  const NanoTime at_fpga = nic.tx_submit(0, r.deliver_time + NanoTime{700},
                                         r.pkt->size());
  std::vector<EgressEmission> emissions;
  nic.egress_into(std::move(r.pkt), 0, at_fpga, emissions);
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_TRUE(emissions[0].in_order);
  EXPECT_GT(emissions[0].wire_time, at_fpga);
  // Trailer stripped before the wire.
  PlbMeta m;
  EXPECT_FALSE(emissions[0].pkt->peek_plb_meta(m));
}

TEST(NicPipeline, UnregisteredPodThrows) {
  NicPipeline nic;
  auto pkt = Packet::make_synthetic(udp_tuple(1), 1, 64);
  EXPECT_THROW(
      { auto r = nic.ingress(std::move(pkt), 3, Nanos{0}); (void)r; },
      std::out_of_range);
}

}  // namespace
}  // namespace albatross
