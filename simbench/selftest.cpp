// simbench_selftest: checks that the benchmark's own instruments work.
//   1. the counting allocator counts a known allocation;
//   2. the ledger check fails when the source decorator swallows one
//      emitted packet;
//   3. on a small pod_burst where the reorder FIFO never fills, the
//      isolated ingress replay reaches the same per-outcome verdicts as
//      the in-situ run.
// Exits 0 when all pass.
#include <cstdio>
#include <memory>
#include <string>

#include "alloc_count.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace simbench;
using albatross::kMillisecond;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_counting_allocator() {
  std::printf("counting allocator\n");
  AllocCounts got;
  {
    AllocScope scope;
    auto p = std::make_unique<char[]>(1000);
    p[0] = 1;
    got = scope.counted();
  }
  expect(got.calls == 1, "one allocation counted (got " +
                             std::to_string(got.calls) + ")");
  expect(got.bytes == 1000, "1000 bytes counted (got " +
                                std::to_string(got.bytes) + ")");
  AllocCounts before = alloc_counts();
  auto q = std::make_unique<int>(7);
  expect(alloc_counts().calls == before.calls,
         "nothing counted outside a scope");
}

void test_ledger_catches_swallowed_packet() {
  std::printf("ledger\n");
  RunOptions opt;
  opt.horizon = 2 * kMillisecond;
  const RunOutcome clean = run_pod(WorkloadKind::kPodBurst, 1, opt);
  expect(clean.ledger.emitted > 0 && clean.ledger.unaccounted() == 0,
         "clean run closes the ledger (" + std::to_string(clean.ledger.emitted) +
             " packets)");
  opt.swallow_packet = 100;
  const RunOutcome lossy = run_pod(WorkloadKind::kPodBurst, 1, opt);
  expect(lossy.ledger.unaccounted() == 1,
         "one swallowed packet is unaccounted (got " +
             std::to_string(lossy.ledger.unaccounted()) + ")");
}

void test_ingress_replay_matches_in_situ() {
  std::printf("ingress replay vs in situ\n");
  RunOptions opt;
  opt.horizon = 5 * kMillisecond;
  opt.rate_pps = 2e6;
  const RunOutcome in_situ = run_pod(WorkloadKind::kPodBurst, 3, opt);
  PodWorkload pw = pod_workload(WorkloadKind::kPodBurst, 3, nullptr);
  pw.traffic.rate_pps = opt.rate_pps;
  const NicCosts replay = replay_nic(pw, in_situ.ledger.offered);
  const Ledger& l = in_situ.ledger;
  const std::uint64_t cpu_bound =
      l.offered - l.rate_limit - l.reorder_full - in_situ.in_situ.offload_hits;
  expect(l.reorder_full == 0, "reorder FIFO never fills in situ");
  expect(replay.verdicts.delivered == cpu_bound,
         "delivered " + std::to_string(replay.verdicts.delivered) + " == " +
             std::to_string(cpu_bound));
  expect(replay.verdicts.rate_limit == l.rate_limit,
         "rate-limited " + std::to_string(replay.verdicts.rate_limit) + " == " +
             std::to_string(l.rate_limit));
  expect(replay.verdicts.reorder_full == l.reorder_full,
         "reorder-full " + std::to_string(replay.verdicts.reorder_full) + " == " +
             std::to_string(l.reorder_full));
  expect(replay.verdicts.offloaded == in_situ.in_situ.offload_hits,
         "offloaded " + std::to_string(replay.verdicts.offloaded) + " == " +
             std::to_string(in_situ.in_situ.offload_hits));
}

}  // namespace

int main() {
  test_counting_allocator();
  test_ledger_catches_swallowed_packet();
  test_ingress_replay_matches_in_situ();
  std::printf("%s (%d failure%s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures ? 1 : 0;
}
