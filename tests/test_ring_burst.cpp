// Burst entry points of the descriptor ring (push_burst/pop_burst with
// hold credits) and the timer-wheel event loop internals the burst run
// loop leans on: FIFO among same-time events must survive level
// cascades, run_until boundaries must be exact, and long-horizon timers
// must fire at their exact virtual time after cascading down the
// hierarchy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/ring.hpp"

namespace albatross {
namespace {

PacketPtr pkt(std::uint32_t seq) {
  auto p = Packet::make_synthetic(FiveTuple{}, 1, 64);
  p->seq_in_flow = seq;
  return p;
}

std::vector<PacketPtr> burst_of(std::uint32_t first, std::size_t n) {
  std::vector<PacketPtr> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(pkt(first + static_cast<std::uint32_t>(i)));
  }
  return v;
}

TEST(PacketRingBurst, PushBurstAcceptsPrefixAndCountsTailDrops) {
  PacketRing ring(4);
  auto in = burst_of(0, 6);
  const std::size_t accepted = ring.push_burst(in);
  EXPECT_EQ(accepted, 4u);
  EXPECT_TRUE(ring.full());
  // Accepted slots are nulled; the rejected tail stays with the caller.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(in[i], nullptr);
  EXPECT_NE(in[4], nullptr);
  EXPECT_NE(in[5], nullptr);
  EXPECT_EQ(ring.stats().enqueued, 4u);
  EXPECT_EQ(ring.stats().drops, 2u);
  EXPECT_EQ(ring.stats().high_watermark, 4u);
}

TEST(PacketRingBurst, PopBurstIsFifoAndPartialOnUnderfill) {
  PacketRing ring(8);
  auto in = burst_of(0, 3);
  ASSERT_EQ(ring.push_burst(in), 3u);

  std::vector<PacketPtr> out(8);
  const std::size_t n = ring.pop_burst(out);
  ASSERT_EQ(n, 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_NE(out[i], nullptr);
    EXPECT_EQ(out[i]->seq_in_flow, i);
  }
  EXPECT_EQ(out[3], nullptr);  // untouched past n
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.stats().dequeued, 3u);
}

TEST(PacketRingBurst, WrapAroundKeepsFifoOrder) {
  // Capacity 5 (non power of two, so wrap() is exercised for real):
  // repeatedly half-drain and refill so head walks around the buffer
  // several times, checking global FIFO order throughout.
  PacketRing ring(5);
  std::uint32_t next_push = 0;
  std::uint32_t next_pop = 0;

  auto seed = burst_of(next_push, 5);
  next_push += 5;
  ASSERT_EQ(ring.push_burst(seed), 5u);

  std::vector<PacketPtr> out(3);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = ring.pop_burst(out);
    ASSERT_EQ(n, 3u);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NE(out[i], nullptr);
      EXPECT_EQ(out[i]->seq_in_flow, next_pop++);
      out[i].reset();
    }
    auto refill = burst_of(next_push, 3);
    next_push += 3;
    ASSERT_EQ(ring.push_burst(refill), 3u);
  }
  EXPECT_EQ(ring.stats().drops, 0u);
  EXPECT_EQ(ring.stats().enqueued, ring.stats().dequeued + ring.size());
}

TEST(PacketRingBurst, HoldCreditsKeepOccupancyAndCauseTailDrops) {
  PacketRing ring(4);
  auto in = burst_of(0, 4);
  ASSERT_EQ(ring.push_burst(in), 4u);

  // A burst drain pops the packets but holds their descriptor credits:
  // occupancy must not drop until the core releases them.
  std::vector<PacketPtr> out(4);
  ASSERT_EQ(ring.pop_burst(out), 4u);
  ring.hold(4);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.full());
  EXPECT_DOUBLE_EQ(ring.occupancy(), 1.0);

  // Producers see a full ring while credits are held — exactly like a
  // hardware ring whose descriptors have not been recycled yet.
  EXPECT_EQ(ring.push(pkt(100)), PushResult::kFull);
  EXPECT_EQ(ring.stats().drops, 1u);

  ring.release_hold(2);
  EXPECT_DOUBLE_EQ(ring.occupancy(), 0.5);
  EXPECT_EQ(ring.push(pkt(101)), PushResult::kOk);

  // Releasing more credits than held saturates at zero.
  ring.release_hold(100);
  EXPECT_EQ(ring.held(), 0u);
}

TEST(PacketRingBurst, ScalarAndBurstAccountingMatch) {
  // Same offered sequence, one-at-a-time push/pop vs burst push/pop:
  // final RingStats must be identical, whatever the span sizes.
  const std::size_t kCap = 8;
  const std::size_t kOffer = 13;  // 5 drops

  PacketRing scalar(kCap);
  for (std::uint32_t i = 0; i < kOffer; ++i) {
    (void)scalar.push(pkt(i));
  }
  std::size_t scalar_popped = 0;
  std::array<PacketPtr, 1> one;
  while (scalar.pop_burst(one) == 1) ++scalar_popped;

  PacketRing burst(kCap);
  auto in = burst_of(0, kOffer);
  (void)burst.push_burst(in);
  std::vector<PacketPtr> out(kOffer);
  const std::size_t burst_popped = burst.pop_burst(out);

  EXPECT_EQ(scalar_popped, burst_popped);
  EXPECT_EQ(scalar.stats().enqueued, burst.stats().enqueued);
  EXPECT_EQ(scalar.stats().dequeued, burst.stats().dequeued);
  EXPECT_EQ(scalar.stats().drops, burst.stats().drops);
  EXPECT_EQ(scalar.stats().high_watermark, burst.stats().high_watermark);
}

TEST(PacketRingBurst, EmptySpansAreNoOps) {
  PacketRing ring(4);
  std::vector<PacketPtr> none;
  EXPECT_EQ(ring.push_burst(none), 0u);
  EXPECT_EQ(ring.pop_burst(none), 0u);
  EXPECT_EQ(ring.stats().enqueued, 0u);
  EXPECT_EQ(ring.stats().drops, 0u);
}

// --- timer wheel ----------------------------------------------------------

TEST(TimerWheel, FifoSurvivesCascadeAcrossLevels) {
  // Events scheduled at the same far-future instant land in a high
  // wheel level together and cascade down as the clock approaches.
  // Scheduling order must still be their firing order — replay
  // determinism depends on the cascade preserving chain order.
  EventLoop loop;
  std::vector<int> order;
  const NanoTime far = Nanos{1'000'000'007};  // > level-0/1/2 windows
  for (int i = 0; i < 32; ++i) {
    loop.schedule_at(far, [&order, i] { order.push_back(i); });
  }
  // Interleave nearer events so the wheel actually advances in steps.
  for (int i = 0; i < 8; ++i) {
    loop.schedule_at(Nanos{i * 100'000'000}, [] {});
  }
  loop.run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(loop.now(), far);
}

TEST(TimerWheel, LongHorizonTimersFireAtExactTime) {
  // One timer per wheel level, spanning from nanoseconds to hundreds of
  // virtual seconds: each must fire exactly at its scheduled instant
  // after cascading through every level in between.
  EventLoop loop;
  std::vector<std::int64_t> horizons;
  for (int lvl = 0; lvl < 9; ++lvl) {
    horizons.push_back((std::int64_t{1} << (6 * lvl)) + 3);
  }
  std::vector<std::int64_t> fired_at;
  for (const auto h : horizons) {
    loop.schedule_at(Nanos{h}, [&fired_at, &loop] {
      fired_at.push_back(loop.now().count());
    });
  }
  loop.run();
  ASSERT_EQ(fired_at.size(), horizons.size());
  EXPECT_TRUE(std::is_sorted(fired_at.begin(), fired_at.end()));
  for (std::size_t i = 0; i < horizons.size(); ++i) {
    EXPECT_EQ(fired_at[i], horizons[i]) << "level " << i;
  }
  EXPECT_EQ(loop.events_processed(), horizons.size());
}

TEST(TimerWheel, RunUntilBoundaryIsInclusiveAndClockLandsOnUntil) {
  // run_until(T) must fire events AT T, leave events after T pending,
  // and leave the clock parked exactly at T either way.
  EventLoop loop;
  int at_t = 0, after_t = 0;
  loop.schedule_at(Nanos{1'000}, [&] { ++at_t; });
  loop.schedule_at(Nanos{1'001}, [&] { ++after_t; });
  loop.run_until(Nanos{1'000});
  EXPECT_EQ(at_t, 1);
  EXPECT_EQ(after_t, 0);
  EXPECT_EQ(loop.now(), NanoTime{1'000});
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(after_t, 1);
}

TEST(TimerWheel, NestedSchedulesDuringCascadeKeepOrdering) {
  // An event that schedules a same-time follow-up: the follow-up fires
  // after every event already queued at that instant (append, not
  // prepend), and before any later instant.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(Nanos{500}, [&] {
    order.push_back(0);
    loop.schedule_at(Nanos{500}, [&] { order.push_back(2); });
  });
  loop.schedule_at(Nanos{500}, [&] { order.push_back(1); });
  loop.schedule_at(Nanos{501}, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimerWheel, SlabRecyclesNodesAcrossManyEvents) {
  // Hammer the wheel with far more events than live concurrently; the
  // slab freelist must recycle, so pending() returns to zero and every
  // event fires exactly once.
  EventLoop loop;
  std::uint64_t fired = 0;
  for (int wave = 0; wave < 100; ++wave) {
    for (int i = 0; i < 64; ++i) {
      loop.schedule_at(Nanos{wave * 1'000 + i * 7}, [&fired] { ++fired; });
    }
    loop.run_until(Nanos{wave * 1'000 + 999});
  }
  loop.run();
  EXPECT_EQ(fired, 6'400u);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.events_processed(), 6'400u);
}

}  // namespace
}  // namespace albatross
