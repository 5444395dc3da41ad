#include "layers.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "container/pod_spec.hpp"
#include "dpu/dpu_tier.hpp"
#include "gateway/service.hpp"
#include "nic/dma.hpp"
#include "nic/nic_pipeline.hpp"
#include "nic/plb_dispatch.hpp"
#include "nic/rate_limiter.hpp"
#include "sim/cache_model.hpp"
#include "sim/event_loop.hpp"
#include "sim/ring.hpp"

namespace simbench {

using namespace albatross;
using Clock = std::chrono::steady_clock;

namespace {

/// Stand-in for the CPU between RX DMA completion and TX submission.
constexpr Nanos kServiceGap{2000};
/// Packets drawn per untimed refill in the chunked replays.
constexpr std::size_t kChunk = 256;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double per_op(double total_ns, std::uint64_t ops) {
  return ops ? total_ns / static_cast<double>(ops) : 0.0;
}

/// Results of timed calls land here so the calls cannot be elided.
volatile std::uint64_t g_sink = 0;

/// Pulls arrivals from the workload's own source.
struct Arrivals {
  explicit Arrivals(const PodWorkload& pw) : src(pw.traffic) {}
  /// Draws up to `n` packets into pkts/at (cleared first).
  std::size_t draw(std::size_t n) {
    pkts.clear();
    at.clear();
    while (pkts.size() < n) {
      const auto t = src.next_time();
      if (!t) break;
      at.push_back(*t);
      pkts.push_back(src.emit());
    }
    return pkts.size();
  }
  PoissonFlowSource src;
  std::vector<PacketPtr> pkts;
  std::vector<NanoTime> at;
};

PlbEngineConfig plb_config(const PodWorkload& pw) {
  PlbEngineConfig plb;
  plb.num_rx_queues = pw.cores;
  plb.num_reorder_queues = reorder_queues_for_cores(pw.cores);
  return plb;
}

DpuTierConfig tier_config() {
  DpuTierConfig tc;
  tc.datapath.cores = 16;
  tc.controller.admit_budget = 32'768;
  tc.controller.migration_budget = 4'096;
  tc.controller.admit_forwards = 1;
  return tc;
}

}  // namespace

NicCosts replay_nic(const PodWorkload& pw, std::size_t n) {
  NicPipeline nic{NicPipelineConfig{}};
  constexpr PodId kPod = 0;
  nic.register_pod(kPod, plb_config(pw), PktDirConfig{}, LbMode::kPlb);
  if (pw.tiered) nic.enable_dpu_tier(kPod, tier_config());

  Arrivals arr(pw);
  const std::size_t batch =
      std::clamp<std::size_t>(pw.batch, 1, NicPipeline::kMaxIngressBurst);
  std::array<IngressResult, NicPipeline::kMaxIngressBurst> results;
  std::vector<EgressEmission> emissions;
  std::vector<IngressResult> delivered;
  NicCosts c;
  double ingress_ns = 0.0, egress_ns = 0.0;
  std::uint64_t egressed = 0;
  NanoTime tx_clock{0};
  std::size_t done = 0;

  while (done < n) {
    const std::size_t got = arr.draw(std::min(kChunk, n - done));
    if (got == 0) break;
    done += got;
    // Ingress, timed per call at the workload's batch size.
    for (std::size_t i = 0; i < got; i += batch) {
      const std::size_t k = std::min(batch, got - i);
      const auto t0 = Clock::now();
      if (k == 1) {
        results[0] = nic.ingress(std::move(arr.pkts[i]), kPod, arr.at[i]);
      } else {
        nic.ingress_burst(std::span(arr.pkts.data() + i, k),
                          std::span<const NanoTime>(arr.at.data() + i, k),
                          kPod, std::span(results.data(), k));
      }
      ingress_ns += ns_between(t0, Clock::now());
      for (std::size_t j = 0; j < k; ++j) {
        switch (results[j].outcome) {
          case IngressOutcome::kDelivered:
            ++c.verdicts.delivered;
            delivered.push_back(std::move(results[j]));
            break;
          case IngressOutcome::kDroppedRateLimit: ++c.verdicts.rate_limit; break;
          case IngressOutcome::kDroppedReorderFull: ++c.verdicts.reorder_full; break;
          case IngressOutcome::kOffloaded: ++c.verdicts.offloaded; break;
        }
        results[j].pkt.reset();
      }
    }
    // Egress of the chunk's CPU-bound packets in arrival order.
    for (auto& r : delivered) {
      tx_clock = std::max(tx_clock, r.deliver_time + kServiceGap);
      const std::size_t bytes = r.pkt->size();
      emissions.clear();
      const auto t0 = Clock::now();
      const NanoTime at = nic.tx_submit(kPod, tx_clock, bytes);
      nic.egress_into(std::move(r.pkt), kPod, at, emissions);
      nic.drain_expired_into(kPod, at, emissions);
      egress_ns += ns_between(t0, Clock::now());
      ++egressed;
      if (pw.tiered) {
        for (const auto& e : emissions) {
          if (e.pkt) nic.dpu_tier(kPod).observe_forward(e.pkt->tuple, e.wire_time);
        }
      }
    }
    delivered.clear();
  }
  c.ingress_ns = per_op(ingress_ns, done);
  c.egress_ns = per_op(egress_ns, egressed);
  return c;
}

double replay_emit_ns(const PodWorkload& pw, std::size_t n) {
  PoissonFlowSource src(pw.traffic);
  std::vector<PacketPtr> pkts;
  pkts.reserve(kChunk);
  double ns = 0.0;
  std::size_t done = 0;
  while (done < n) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kChunk && src.next_time(); ++i) {
      pkts.push_back(src.emit());
    }
    ns += ns_between(t0, Clock::now());
    if (pkts.empty()) break;
    done += pkts.size();
    pkts.clear();
  }
  return per_op(ns, done);
}

double replay_gop_admit_ns(const PodWorkload& pw, std::size_t n) {
  PoissonFlowSource src(pw.traffic);
  std::vector<Vni> vnis;
  std::vector<NanoTime> at;
  while (vnis.size() < n && src.next_time()) {
    at.push_back(*src.next_time());
    vnis.push_back(src.emit()->vni);
  }
  TenantRateLimiter limiter(NicPipelineConfig{}.gop);
  std::uint64_t passed = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < vnis.size(); ++i) {
    passed += limiter.admit(vnis[i], at[i]) == RlVerdict::kPass;
  }
  const double ns = ns_between(t0, Clock::now());
  g_sink = g_sink + passed;
  return per_op(ns, vnis.size());
}

double replay_dma_ns(const PodWorkload& pw, std::size_t n) {
  PoissonFlowSource src(pw.traffic);
  std::vector<NanoTime> at;
  while (at.size() < n && src.next_time()) {
    at.push_back(*src.next_time());
    src.emit();
  }
  DmaChannel dma{DmaConfig{}};
  NanoTime last{0};
  const auto t0 = Clock::now();
  for (const NanoTime t : at) last = dma.transfer(t, pw.traffic.packet_bytes);
  const double ns = ns_between(t0, Clock::now());
  g_sink = g_sink + static_cast<std::uint64_t>(last.count());
  return per_op(ns, at.size());
}

PlbCosts replay_plb(const PodWorkload& pw, std::size_t n) {
  PlbEngine plb(plb_config(pw));
  Arrivals arr(pw);
  std::vector<ReorderEgress> out;
  double dispatch_ns = 0.0, deadline_ns = 0.0;
  std::uint64_t deadline_calls = 0;
  std::size_t done = 0;
  const std::size_t batch = 32;
  while (done < n) {
    const std::size_t got = arr.draw(std::min(batch, n - done));
    if (got == 0) break;
    done += got;
    std::array<bool, 32> ok{};
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < got; ++i) {
      ok[i] = plb.dispatch(*arr.pkts[i], arr.at[i]).has_value();
    }
    const auto t1 = Clock::now();
    // The hot path asks for the next reorder deadline twice per packet.
    NanoTime sink{0};
    for (std::size_t i = 0; i < 2 * got; ++i) {
      sink = std::max(sink, plb.next_deadline().value_or(NanoTime{0}));
    }
    const auto t2 = Clock::now();
    g_sink = g_sink + static_cast<std::uint64_t>(sink.count());
    dispatch_ns += ns_between(t0, t1);
    deadline_ns += ns_between(t1, t2);
    deadline_calls += 2 * got;
    // Untimed write-back keeps the reorder FIFO from filling.
    const NanoTime back = arr.at[got - 1] + kServiceGap;
    for (std::size_t i = 0; i < got; ++i) {
      if (ok[i]) plb.writeback(std::move(arr.pkts[i]), back, out);
    }
    plb.drain_all(back, out);
    out.clear();
  }
  return {per_op(dispatch_ns, done), per_op(deadline_ns, deadline_calls)};
}

double replay_dpu_serve_ns(const PodWorkload& pw, std::size_t n) {
  const DpuTierConfig tc = tier_config();
  SessionOffload fpga(tc.fpga);
  DpuTier tier(tc, fpga);
  PoissonFlowSource src(pw.traffic);
  struct Forward {
    FiveTuple tuple;
    NanoTime wire;
  };
  std::deque<Forward> pending;
  double ns = 0.0;
  std::size_t done = 0;
  NanoTime next_age = 10 * kMillisecond;
  while (done < n && src.next_time()) {
    const NanoTime t = *src.next_time();
    const PacketPtr pkt = src.emit();
    while (!pending.empty() && pending.front().wire <= t) {
      tier.observe_forward(pending.front().tuple, pending.front().wire);
      pending.pop_front();
    }
    if (t >= next_age) {
      tier.age(t);
      next_age = t + 10 * kMillisecond;
    }
    const auto t0 = Clock::now();
    const auto served = tier.serve(pkt->tuple, pkt->size(), t, t + Nanos{730});
    ns += ns_between(t0, Clock::now());
    if (!served) pending.push_back({pkt->tuple, t + 10 * kMicrosecond});
    ++done;
  }
  return per_op(ns, done);
}

namespace {

struct EventReplay {
  EventLoop loop;
  std::vector<NanoTime> delays;
  std::size_t cursor = 0;
  std::uint64_t fired = 0;
  std::uint64_t budget = 0;

  NanoTime next_delay() {
    const NanoTime d = delays[cursor];
    cursor = cursor + 1 == delays.size() ? 0 : cursor + 1;
    return d;
  }
};

/// One self-rescheduling event chain.
struct Tick {
  EventReplay* r;
  void operator()() const {
    if (++r->fired >= r->budget) return;
    r->loop.schedule_in(r->next_delay(), Tick{r});
  }
};

}  // namespace

double replay_event_ns(std::size_t n, bool control_timers) {
  EventReplay r;
  r.budget = n;
  Rng rng(7);
  // Packet-path gaps (DMA, service, TX: 0.1-5 us) and one reorder
  // timeout (100 us) in every three events; the fleet adds a 1 %
  // population of 50 ms - 3 s BFD/BGP timers that land on high wheel
  // levels and cascade down.
  r.delays.resize(4096);
  for (std::size_t i = 0; i < r.delays.size(); ++i) {
    if (control_timers && i % 100 == 0) {
      r.delays[i] = NanoTime{rng.next_range(50'000'000, 3'000'000'000)};
    } else if (i % 3 == 2) {
      r.delays[i] = NanoTime{100'001};
    } else {
      r.delays[i] = NanoTime{rng.next_range(100, 5'000)};
    }
  }
  constexpr int kChains = 64;
  for (int c = 0; c < kChains; ++c) {
    r.loop.schedule_in(r.next_delay(), Tick{&r});
  }
  const auto t0 = Clock::now();
  while (r.fired < r.budget && r.loop.step()) {
  }
  return per_op(ns_between(t0, Clock::now()), r.fired);
}

double replay_ring_ns(const PodWorkload& pw, std::size_t n) {
  const std::size_t burst = std::clamp<std::size_t>(pw.batch, 1, 32);
  Arrivals arr(pw);
  arr.draw(burst);
  PacketRing ring(1024);
  std::array<PacketPtr, 32> lane;
  for (std::size_t i = 0; i < burst; ++i) lane[i] = std::move(arr.pkts[i]);
  std::uint64_t moved = 0;
  const auto t0 = Clock::now();
  while (moved < n) {
    ring.push_burst(std::span(lane.data(), burst));
    moved += ring.pop_burst(std::span(lane.data(), burst));
  }
  return per_op(ns_between(t0, Clock::now()), moved);
}

double replay_service_ns(const PodWorkload& pw, std::size_t n) {
  ServiceTables tables;
  tables.populate(pw.tenants, pw.routes, pw.cores);
  CacheModel cache{CacheConfig{}, NumaConfig{}};
  cache.set_working_set_bytes(PlatformConfig{}.working_set_bytes);
  auto service = make_service(pw.service, tables, cache, NumaNodeId{});
  Arrivals arr(pw);
  Rng rng(101);
  const std::size_t burst = std::clamp<std::size_t>(pw.batch, 1, 32);
  PacketBurst b;
  double ns = 0.0;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t got = arr.draw(std::min(burst, n - done));
    if (got == 0) break;
    b.count = got;
    for (std::size_t i = 0; i < got; ++i) {
      b.pkts[i] = std::move(arr.pkts[i]);
      b.flow_affine[i] = false;
      b.rng_seed[i] = 0x9e3779b97f4a7c15ull * (done + i + 1);
    }
    const auto t0 = Clock::now();
    service->process_burst(b, CoreId{static_cast<std::uint16_t>(done % pw.cores)},
                           false, arr.at[got - 1], rng);
    ns += ns_between(t0, Clock::now());
    for (std::size_t i = 0; i < got; ++i) b.pkts[i].reset();
    done += got;
  }
  return per_op(ns, done);
}

TableCosts replay_tables(const PodWorkload& pw) {
  std::vector<double> runs;
  TableCosts c;
  for (int i = 0; i < 3; ++i) {
    ServiceTables tables;
    const auto t0 = Clock::now();
    tables.populate(pw.tenants, pw.routes, pw.cores);
    runs.push_back(ns_between(t0, Clock::now()) / 1e9);
    c.bytes = tables.memory_bytes();
  }
  std::sort(runs.begin(), runs.end());
  c.populate_s = runs[runs.size() / 2];
  return c;
}

}  // namespace simbench
