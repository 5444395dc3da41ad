// Gateway overload protection (GOP, §4.3): the two-stage tenant rate
// limiter that protects the CPU from dominant tenants using ~2 MB of
// FPGA SRAM for millions of tenants (vs >200 MB for naive per-tenant
// meters).
//
// Pipeline per packet (tenant id = VNI):
//
//   pre_check (128e) --bypass--------------------------------> PASS
//        | pre-metered?                                (top-tier tenants)
//        v
//   pre_meter (128e, tenant total limit)  excess -> DROP, conform -> PASS
//        | not installed
//        v
//   color_table (4K entries, VNI % 4K, coarse rate)  conform -> PASS
//        | excess ("marked")
//        v
//   meter_table (hashed by VNI, fine rate)  conform -> PASS, else DROP
//        |
//        +--> sampling: RED packets are sampled; tenants that dominate
//             the samples within a detection window are auto-installed
//             into pre_check/pre_meter (heavy hitters detected in ~1 s),
//             which stops them from crowding innocent tenants that
//             hash-collide with them in meter_table.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/hooks.hpp"
#include "common/types.hpp"
#include "tables/meter.hpp"

namespace albatross {

enum class RlVerdict : std::uint8_t {
  kPass,
  kPassMarked,     ///< passed via the second-stage meter
  kDropStage2,     ///< RED in meter_table
  kDropPreMeter,   ///< RED in pre_meter (installed heavy hitter)
};

struct RateLimiterConfig {
  std::uint32_t color_entries = 4096;  ///< stage-1 table size (VNI % 4K)
  std::uint32_t meter_entries = 4096;  ///< stage-2 hash table size
  double stage1_rate_pps = 8e6;        ///< coarse per-entry limit
  double stage2_rate_pps = 2e6;        ///< fine per-entry limit
  /// Installed heavy hitters are limited to stage1+stage2 (the total a
  /// tenant could have pushed through both stages).
  double pre_meter_rate_pps = 10e6;
  double burst_seconds = 0.01;         ///< bucket depth = rate * this
  /// Sampling-based detection of heavy hitters among stage-2 RED drops.
  double sample_probability = 1.0 / 128.0;
  std::uint32_t detect_threshold_samples = 16;
  NanoTime detect_window = 1 * kSecond;
  bool auto_install = true;            ///< detection enabled
};

struct RateLimiterStats {
  std::uint64_t passed = 0;
  std::uint64_t passed_marked = 0;
  std::uint64_t dropped_stage2 = 0;
  std::uint64_t dropped_pre = 0;
  std::uint64_t bypassed = 0;
  std::uint64_t heavy_hitters_installed = 0;
};

/// GOP two-stage limiter; SRAM bits are the default color/meter/heavy-
/// hitter tables (Tab. 5 "Overload Det." structural accounting).
// fpga: lut=18'256, bram_bits=14'057'472, cycles=50
class TenantRateLimiter {
 public:
  explicit TenantRateLimiter(RateLimiterConfig cfg = {});

  /// Applies the limiter to one packet of tenant `vni` at time `now`.
  RlVerdict admit(Vni vni, NanoTime now);

  /// Configures a top-tier tenant to bypass all rate limiting.
  bool add_bypass(Vni vni);
  /// Manually installs a tenant into pre_check/pre_meter (the planned
  /// CPU-assisted install path, §4.3).
  bool install_heavy_hitter(Vni vni, NanoTime now);
  bool uninstall(Vni vni);
  [[nodiscard]] bool is_installed(Vni vni) const;

  [[nodiscard]] const RateLimiterStats& stats() const { return stats_; }
  [[nodiscard]] const RateLimiterConfig& config() const { return cfg_; }

  /// Arms a conformance probe reporting every admit verdict with its
  /// deciding stage (src/check); nullptr disarms.
  void set_probe(RateLimiterProbeHook* probe) { probe_ = probe; }

  /// On-chip SRAM footprint of this design (Tab. "2MB" claim) and of the
  /// naive per-tenant alternative, for the ablation bench.
  [[nodiscard]] std::size_t sram_bytes() const;
  static std::size_t naive_sram_bytes(std::uint64_t tenants);

  /// Bytes per meter entry in FPGA SRAM (bucket state + config + stats
  /// mirrors), the paper's ~200 MB / 1M tenants ratio.
  static constexpr std::size_t kMeterEntryBytes = 208;

 private:
  static constexpr std::size_t kPreEntries = 128;

  struct PreEntry {
    Vni vni = 0;
    bool in_use = false;
    bool bypass = false;
    TokenBucket meter;
  };

  /// Detection sketch slot: counts sampled RED drops per candidate VNI.
  struct Candidate {
    Vni vni = 0;
    std::uint32_t samples = 0;
  };

  PreEntry* find_pre(Vni vni);
  [[nodiscard]] const PreEntry* find_pre(Vni vni) const;
  void sample_red(Vni vni, NanoTime now);

  /// Table index for a direct/hash-mapped stage: bitmask when the table
  /// size is a power of two (the shipped configuration — hardware tables
  /// are), modulo otherwise.
  [[nodiscard]] static std::size_t table_index(std::uint64_t v,
                                               std::size_t size) {
    return (size & (size - 1)) == 0 ? (v & (size - 1)) : (v % size);
  }

  RateLimiterConfig cfg_;
  std::vector<TokenBucket> color_table_;
  std::vector<TokenBucket> meter_table_;
  /// In-use entries in pre_: lets the per-packet pre_check probe skip
  /// the 128-entry scan entirely while no heavy hitter is installed
  /// (the overwhelmingly common state).
  std::size_t pre_in_use_ = 0;
  std::array<PreEntry, kPreEntries> pre_;
  std::array<Candidate, kPreEntries> candidates_;
  NanoTime window_start_ = NanoTime{0};
  std::uint64_t sample_seq_ = 0;
  RateLimiterStats stats_;
  RateLimiterProbeHook* probe_ = nullptr;
};

}  // namespace albatross
