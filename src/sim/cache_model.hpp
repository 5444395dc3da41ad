// L3-cache / DRAM model behind every gateway table lookup.
//
// §4.2's key finding: cloud-gateway forwarding state is several GB while
// the CPU has ~200 MB of cache, so L3 hit rate sits at 30-45% and
// RSS vs PLB makes <1% difference — the shared L3 sees the same aggregate
// working set either way. The model captures exactly that mechanism:
//
//   hit rate = f^(1-alpha)   where f = effective_cache / working_set
//
// which is the cache coverage of the hottest entries under a Zipf(alpha)
// reference stream (mass of the top f fraction of ranks). Flow-affine
// scheduling (RSS) gets a small private-L2 bonus; packet spraying (PLB)
// does not — producing the sub-1% gap the paper measured.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/numa.hpp"

namespace albatross {

struct CacheConfig {
  std::uint64_t l3_bytes = 200ull << 20;  ///< ~200 MB across the socket
  NanoTime l3_hit_ns = NanoTime{22};
  NanoTime l2_hit_ns = NanoTime{7};
  /// Zipf skew of table-entry popularity induced by flow popularity.
  double reference_skew = 0.65;
  /// Fraction of L2-resident reuse a flow-affine core enjoys on top of
  /// L3 — the entire RSS-vs-PLB locality difference lives here.
  double flow_affine_l2_bonus = 0.008;
};

class CacheModel {
 public:
  explicit CacheModel(CacheConfig cfg = {}, NumaConfig numa = {});

  /// Declares the resident bytes of all forwarding tables (several GB
  /// for a loaded gateway).
  void set_working_set_bytes(std::uint64_t bytes) {
    working_set_ = bytes;
    recompute_hit_rate();
  }
  [[nodiscard]] std::uint64_t working_set_bytes() const {
    return working_set_;
  }

  /// Steady-state L3 hit probability under the configured skew.
  /// Cached: it only changes with the config or working set, but it is
  /// consulted on every table access (several per packet).
  [[nodiscard]] double l3_hit_rate() const { return l3_hit_rate_; }

  /// Samples the latency of one table access issued by a core on
  /// `core_node` against memory homed on `mem_node`.
  /// `flow_affine` = the core repeatedly sees the same flows (RSS mode).
  NanoTime access_latency(Rng& rng, NumaNodeId core_node,
                          NumaNodeId mem_node, bool flow_affine) const;

  /// Expected (mean) access latency, for closed-form calibration.
  [[nodiscard]] double mean_access_latency(NumaNodeId core_node,
                                           NumaNodeId mem_node,
                                           bool flow_affine) const;

  NumaTopology& numa() { return numa_; }
  [[nodiscard]] const NumaTopology& numa() const { return numa_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  void recompute_hit_rate();

  CacheConfig cfg_;
  NumaTopology numa_;
  std::uint64_t working_set_ = 4ull << 30;  // 4 GB default
  double l3_hit_rate_ = 1.0;
};

}  // namespace albatross
