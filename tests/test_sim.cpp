// Discrete-event engine, descriptor rings, NUMA and cache-model tests.
#include <gtest/gtest.h>

#include <array>

#include "sim/cache_model.hpp"
#include "sim/event_loop.hpp"
#include "sim/numa.hpp"
#include "sim/ring.hpp"

namespace albatross {
namespace {

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(Nanos{300}, [&] { order.push_back(3); });
  loop.schedule_at(Nanos{100}, [&] { order.push_back(1); });
  loop.schedule_at(Nanos{200}, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), NanoTime{300});
  EXPECT_EQ(loop.events_processed(), 3u);
}

TEST(EventLoop, FifoAmongSameTimestamp) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(Nanos{50}, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, NestedSchedulingAndRunUntil) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(Nanos{10}, [&] {
    ++fired;
    loop.schedule_in(Nanos{10}, [&] { ++fired; });
    loop.schedule_in(Nanos{1000}, [&] { ++fired; });
  });
  loop.run_until(Nanos{500});
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), NanoTime{500});
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.schedule_at(Nanos{100}, [] {});
  loop.run();
  NanoTime seen = NanoTime{-1};
  loop.schedule_at(Nanos{5}, [&] { seen = loop.now(); });  // in the past
  loop.run();
  EXPECT_EQ(seen, NanoTime{100});
}

TEST(EventLoop, PeriodicStopsWhenFalse) {
  EventLoop loop;
  int ticks = 0;
  schedule_periodic(loop, Nanos{10}, [&] { return ++ticks < 5; });
  loop.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(loop.now(), NanoTime{50});
}

TEST(PacketRing, DropsWhenFullAndCountsWatermark) {
  PacketRing ring(2);
  EXPECT_EQ(ring.push(Packet::make_synthetic(FiveTuple{}, 0, 64)),
            PushResult::kOk);
  EXPECT_EQ(ring.push(Packet::make_synthetic(FiveTuple{}, 0, 64)),
            PushResult::kOk);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.push(Packet::make_synthetic(FiveTuple{}, 0, 64)),
            PushResult::kFull);
  EXPECT_EQ(ring.stats().drops, 1u);
  EXPECT_EQ(ring.stats().high_watermark, 2u);
  EXPECT_DOUBLE_EQ(ring.occupancy(), 1.0);
  std::array<PacketPtr, 3> out;
  EXPECT_EQ(ring.pop_burst(out), 2u);
  EXPECT_NE(out[1], nullptr);
  EXPECT_EQ(out[2], nullptr);
  EXPECT_EQ(ring.stats().dequeued, 2u);
}

TEST(Numa, LocalVsRemoteLatency) {
  NumaTopology numa;
  EXPECT_LT(numa.dram_latency(NumaNodeId{0}, NumaNodeId{0}), numa.dram_latency(NumaNodeId{0}, NumaNodeId{1}));
  EXPECT_EQ(numa.node_of_core(CoreId{0}), NumaNodeId{0});
  EXPECT_EQ(numa.node_of_core(CoreId{47}), NumaNodeId{0});
  EXPECT_EQ(numa.node_of_core(CoreId{48}), NumaNodeId{1});
  EXPECT_EQ(numa.total_cores(), 96);
}

TEST(Numa, MemoryFrequencyScalesLatency) {
  NumaTopology numa;
  const auto at4800 = numa.dram_latency(NumaNodeId{0}, NumaNodeId{0});
  numa.set_memory_mts(5600);
  const auto at5600 = numa.dram_latency(NumaNodeId{0}, NumaNodeId{0});
  EXPECT_LT(at5600, at4800);
  // ~= 4800/5600 scaling.
  EXPECT_NEAR(static_cast<double>(at5600.count()),
              static_cast<double>(at4800.count()) * 4800.0 / 5600.0, 2.0);
}

TEST(NumaBalancer, DisabledNeverStalls) {
  NumaBalancer::Config cfg;
  cfg.enabled = false;
  NumaBalancer bal(cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(bal.maybe_stall(i * kMillisecond, 1.0), NanoTime{});
  }
}

TEST(NumaBalancer, StallsAppearUnderHighLoadOnly) {
  NumaBalancer::Config cfg;
  cfg.scan_period = kMillisecond;
  NumaBalancer low(cfg), high(cfg);
  NanoTime low_stall = Nanos{0}, high_stall = Nanos{0};
  for (int i = 0; i < 5000; ++i) {
    low_stall += low.maybe_stall(i * kMillisecond, 0.1);
    high_stall += high.maybe_stall(i * kMillisecond, 0.95);
  }
  EXPECT_GT(high_stall, low_stall * 10);
  EXPECT_GT(high.stalls(), 100u);
}

TEST(CacheModel, HitRateMatchesZipfCoverage) {
  CacheModel cache;
  // Paper regime: ~200MB cache over multi-GB tables -> 30-45% L3 hits.
  cache.set_working_set_bytes(4ull << 30);
  EXPECT_GT(cache.l3_hit_rate(), 0.30);
  EXPECT_LT(cache.l3_hit_rate(), 0.45);
  // Tiny working set: everything fits.
  cache.set_working_set_bytes(100 << 20);
  EXPECT_DOUBLE_EQ(cache.l3_hit_rate(), 1.0);
}

TEST(CacheModel, SampledLatencyMatchesMean) {
  CacheModel cache;
  cache.set_working_set_bytes(4ull << 30);
  Rng rng(3);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>((cache.access_latency(rng, NumaNodeId{0}, NumaNodeId{0}, false)).count());
  }
  EXPECT_NEAR(sum / n, cache.mean_access_latency(NumaNodeId{0}, NumaNodeId{0}, false), 1.5);
}

TEST(CacheModel, FlowAffinityIsMarginal) {
  // The entire RSS-vs-PLB locality difference must stay sub-1% of the
  // access cost — the §4.2 result.
  CacheModel cache;
  cache.set_working_set_bytes(4ull << 30);
  const double plb = cache.mean_access_latency(NumaNodeId{0}, NumaNodeId{0}, false);
  const double rss = cache.mean_access_latency(NumaNodeId{0}, NumaNodeId{0}, true);
  EXPECT_LT(rss, plb);
  EXPECT_LT((plb - rss) / plb, 0.01);
}

TEST(CacheModel, CrossNumaCostsMore) {
  CacheModel cache;
  cache.set_working_set_bytes(4ull << 30);
  EXPECT_GT(cache.mean_access_latency(NumaNodeId{0}, NumaNodeId{1}, false),
            cache.mean_access_latency(NumaNodeId{0}, NumaNodeId{0}, false));
}

}  // namespace
}  // namespace albatross
