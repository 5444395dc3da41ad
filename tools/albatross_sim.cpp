// albatross_sim — command-line experiment runner. Stands up one
// simulated Albatross GW pod, drives a configurable workload, and
// prints an operator-style report plus (optionally) the full metrics
// exposition. The CLI exists so experiments beyond the canned benches
// are one shell line, not a new C++ file.
//
//   albatross_sim [--service vpc|internet|idc|cloud] [--cores N]
//                 [--mode plb|rss] [--rate-mpps R] [--flows N]
//                 [--duration-ms T] [--hitter-mpps R] [--drop-flag 0|1]
//                 [--offload] [--metrics]
//   albatross_sim --config experiment.json    (see core/config.hpp schema)
//   albatross_sim chaos --plan chaos.json [--metrics]
//                 (see chaos/experiment.hpp schema; replays a fault plan
//                  against a gateway fleet and prints the incident
//                  timeline — same plan + seed => identical output)
//   albatross_sim fuzz [--seed N] [--seeds K] [--ticks T]
//                 [--chaos none|benign|stall] [--dump file.json]
//                 (randomized conformance fuzzing, docs/CONFORMANCE.md;
//                  a violating trace is shrunk and dumped, exit 1)
//   albatross_sim fuzz --replay file.json
//                 (re-runs a dumped trace deterministically)
//   albatross_sim fleet --scenario fleet.json [--out report.json]
//                 [--metrics]
//                 (see fleet/fleet_spec.hpp schema; runs a multi-AZ
//                  fleet scenario — diurnal load, rolling upgrades,
//                  faults — and prints the availability SLO report.
//                  A fuzz-trace JSON, detected by its "ops" array,
//                  replays through the conformance driver instead, so
//                  shrunk reproducers run via --scenario directly.)
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>
#include <sstream>

#include "chaos/experiment.hpp"
#include "check/fuzz.hpp"
#include "check/testseed.hpp"
#include "core/config.hpp"
#include "fleet/fleet.hpp"
#include "core/platform.hpp"
#include "core/scenario.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/heavy_hitter.hpp"

using namespace albatross;

namespace {

struct Options {
  ServiceKind service = ServiceKind::kVpcVpc;
  std::uint16_t cores = 8;
  LbMode mode = LbMode::kPlb;
  double rate_mpps = 2.0;
  std::size_t flows = 5000;
  NanoTime duration = 100 * kMillisecond;
  double hitter_mpps = 0.0;
  bool drop_flag = true;
  bool offload = false;
  bool metrics = false;
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(
      stderr,
      "usage: albatross_sim [--service vpc|internet|idc|cloud] [--cores N]\n"
      "                     [--mode plb|rss] [--rate-mpps R] [--flows N]\n"
      "                     [--duration-ms T] [--hitter-mpps R]\n"
      "                     [--drop-flag 0|1] [--offload] [--metrics]\n"
      "       albatross_sim chaos --plan chaos.json\n"
      "       albatross_sim fuzz [--seed N] [--seeds K] [--ticks T]\n"
      "                     [--tier] [--chaos none|benign|stall]\n"
      "                     [--dump f.json] [--replay f.json]\n"
      "       albatross_sim fleet --scenario fleet.json [--out report.json]\n"
      "                     [--metrics]\n");
  std::exit(2);
}

// Numeric flag values must parse completely and land in range; anything
// else names the flag and exits 2 instead of running a broken or empty
// experiment.
[[noreturn]] void bad_flag(const std::string& flag, const char* value,
                           const char* expected) {
  std::fprintf(stderr, "error: %s %s: expected %s\n", flag.c_str(), value,
               expected);
  std::exit(2);
}

long long int_flag(const std::string& flag, const char* value, long long lo,
                   long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    const std::string want = "an integer in [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "]";
    bad_flag(flag, value, want.c_str());
  }
  return v;
}

/// `min_exclusive` makes the lower bound open (rates must be > 0).
double real_flag(const std::string& flag, const char* value, double lo,
                 bool min_exclusive, double hi) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(v) ||
      (min_exclusive ? v <= lo : v < lo) || v > hi) {
    char want[64];
    std::snprintf(want, sizeof(want), "a number in %c%g, %g]",
                  min_exclusive ? '(' : '[', lo, hi);
    bad_flag(flag, value, want);
  }
  return v;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (a == "--service") {
      const std::string v = next();
      if (v == "vpc") opt.service = ServiceKind::kVpcVpc;
      else if (v == "internet") opt.service = ServiceKind::kVpcInternet;
      else if (v == "idc") opt.service = ServiceKind::kVpcIdc;
      else if (v == "cloud") opt.service = ServiceKind::kVpcCloudService;
      else return false;
    } else if (a == "--cores") {
      opt.cores = static_cast<std::uint16_t>(int_flag(a, next(), 1, 256));
    } else if (a == "--mode") {
      const std::string v = next();
      if (v == "plb") opt.mode = LbMode::kPlb;
      else if (v == "rss") opt.mode = LbMode::kRss;
      else return false;
    } else if (a == "--rate-mpps") {
      opt.rate_mpps = real_flag(a, next(), 0.0, true, 1000.0);
    } else if (a == "--flows") {
      opt.flows = static_cast<std::size_t>(int_flag(a, next(), 1, 10'000'000));
    } else if (a == "--duration-ms") {
      opt.duration = int_flag(a, next(), 1, 86'400'000) * kMillisecond;
    } else if (a == "--hitter-mpps") {
      opt.hitter_mpps = real_flag(a, next(), 0.0, false, 1000.0);
    } else if (a == "--drop-flag") {
      opt.drop_flag = int_flag(a, next(), 0, 1) != 0;
    } else if (a == "--offload") {
      opt.offload = true;
    } else if (a == "--metrics") {
      opt.metrics = true;
    } else if (a == "--help" || a == "-h") {
      usage_and_exit();
    } else {
      return false;
    }
  }
  return true;
}

int run_chaos(int argc, char** argv) {
  const char* plan_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--plan" && i + 1 < argc) {
      plan_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: albatross_sim chaos --plan chaos.json\n");
      return 2;
    }
  }
  if (plan_path == nullptr) {
    std::fprintf(stderr, "usage: albatross_sim chaos --plan chaos.json\n");
    return 2;
  }
  std::ifstream in(plan_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", plan_path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const auto r = run_chaos_experiment_from_json(text.str());
    std::printf("chaos: %u gateways, %lld ms, %llu faults injected "
                "(%llu cleared)\n",
                r.gateways,
                static_cast<long long>(r.duration / kMillisecond),
                static_cast<unsigned long long>(r.injected.applied),
                static_cast<unsigned long long>(r.injected.cleared));
    std::printf("  incidents    : %zu opened, %llu withdraws, %llu "
                "redeploys\n",
                r.incidents.size(),
                static_cast<unsigned long long>(r.harness.withdraws),
                static_cast<unsigned long long>(r.harness.redeploys));
    std::printf("  packets      : %llu delivered, %llu blackholed, %llu "
                "lost to incidents\n",
                static_cast<unsigned long long>(r.delivered_total),
                static_cast<unsigned long long>(r.blackholed_total),
                static_cast<unsigned long long>(r.packets_lost));
    std::printf("  detect  (us) : %s\n", r.detect_summary.c_str());
    std::printf("  recover (us) : %s\n", r.recovery_summary.c_str());
    std::printf("timeline:\n%s", r.timeline.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

void print_fuzz_report(const check::FuzzReport& r) {
  std::printf("  packets=%llu offered=%llu delivered=%llu events=%llu "
              "ledger=%s violations=%llu\n",
              static_cast<unsigned long long>(r.packets),
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.events),
              r.ledger_checked ? "checked" : "skipped",
              static_cast<unsigned long long>(r.violations));
  for (const auto& v : r.details) {
    std::printf("  VIOLATION %s at %lldns: %s\n", v.invariant.c_str(),
                static_cast<long long>(v.at.count()), v.detail.c_str());
  }
}

int run_fuzz(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t seeds = 1;
  std::uint64_t ticks = 10'000;
  std::size_t rx_burst = 1;
  bool with_tier = false;
  check::ChaosMode chaos = check::ChaosMode::kBenign;
  std::string dump_path;
  std::string replay_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seeds") {
      seeds = std::strtoull(next(), nullptr, 10);
    } else if (a == "--ticks") {
      ticks = std::strtoull(next(), nullptr, 10);
    } else if (a == "--burst") {
      rx_burst = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::strtoull(next(), nullptr, 10)));
    } else if (a == "--tier") {
      with_tier = true;
    } else if (a == "--chaos") {
      const std::string v = next();
      if (v == "none") chaos = check::ChaosMode::kNone;
      else if (v == "benign") chaos = check::ChaosMode::kBenign;
      else if (v == "stall") chaos = check::ChaosMode::kReorderStall;
      else {
        std::fprintf(stderr, "fuzz: unknown --chaos %s\n", v.c_str());
        return 2;
      }
    } else if (a == "--dump") {
      dump_path = next();
    } else if (a == "--replay") {
      replay_path = next();
    } else {
      std::fprintf(
          stderr,
          "usage: albatross_sim fuzz [--seed N] [--seeds K] [--ticks T]\n"
          "                          [--burst B] [--tier]\n"
          "                          [--chaos none|benign|stall]\n"
          "                          [--dump file.json] [--replay file.json]\n");
      return 2;
    }
  }

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto trace = check::trace_from_json(text.str());
    if (!trace) {
      std::fprintf(stderr, "fuzz: %s is not a valid trace\n",
                   replay_path.c_str());
      return 1;
    }
    if (rx_burst != 1) trace->scenario.rx_burst = rx_burst;
    const auto report = check::run_trace(*trace);
    std::printf("fuzz replay %s: seed=%llu ops=%zu %s\n",
                replay_path.c_str(),
                static_cast<unsigned long long>(trace->scenario.seed),
                trace->ops.size(),
                report.violated() ? "VIOLATED" : "clean");
    print_fuzz_report(report);
    return report.violated() ? 1 : 0;
  }

  for (std::uint64_t s = seed; s < seed + seeds; ++s) {
    const auto outcome = check::fuzz_one(s, ticks, chaos, rx_burst, with_tier);
    if (!outcome.report.violated()) {
      std::printf("fuzz seed=%llu ticks=%llu: clean (%llu packets, %llu "
                  "events)\n",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(ticks),
                  static_cast<unsigned long long>(outcome.report.packets),
                  static_cast<unsigned long long>(outcome.report.events));
      if (with_tier) {
        std::printf("  tier: fpga=%llu dpu=%llu miss=%llu migrations=%llu "
                    "forced=%llu\n",
                    static_cast<unsigned long long>(
                        outcome.report.tier_fpga_hits),
                    static_cast<unsigned long long>(
                        outcome.report.tier_dpu_hits),
                    static_cast<unsigned long long>(outcome.report.tier_misses),
                    static_cast<unsigned long long>(
                        outcome.report.tier_migrations),
                    static_cast<unsigned long long>(
                        outcome.report.tier_forced_ops));
      }
      continue;
    }
    std::printf("fuzz seed=%llu ticks=%llu: VIOLATED (shrunk to %zu ops)\n",
                static_cast<unsigned long long>(s),
                static_cast<unsigned long long>(ticks),
                outcome.trace.ops.size());
    print_fuzz_report(outcome.report);
    const std::string path = dump_path.empty()
                                 ? "fuzz-trace-" + std::to_string(s) + ".json"
                                 : dump_path;
    std::ofstream out(path);
    out << check::trace_to_json(outcome.trace) << "\n";
    std::printf("  reproducer dumped to %s (replay with: albatross_sim fuzz "
                "--replay %s)\n",
                path.c_str(), path.c_str());
    return 1;
  }
  return 0;
}

int run_fleet_cmd(int argc, char** argv) {
  const char* scenario_path = nullptr;
  std::string out_path;
  bool metrics = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--scenario" && i + 1 < argc) {
      scenario_path = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--metrics") {
      metrics = true;
    } else {
      std::fprintf(stderr,
                   "usage: albatross_sim fleet --scenario fleet.json "
                   "[--out report.json] [--metrics]\n");
      return 2;
    }
  }
  if (scenario_path == nullptr) {
    std::fprintf(stderr,
                 "usage: albatross_sim fleet --scenario fleet.json "
                 "[--out report.json] [--metrics]\n");
    return 2;
  }
  std::ifstream in(scenario_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", scenario_path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  // A shrunk fuzz reproducer (trace JSON has an "ops" array) replays
  // through the conformance driver: one flag, either artifact.
  {
    const auto parsed = json_parse(text.str());
    if (parsed && (*parsed)["ops"].is_array()) {
      auto trace = check::trace_from_json(text.str());
      if (!trace) {
        std::fprintf(stderr, "fleet: %s has an \"ops\" array but is not a "
                             "valid fuzz trace\n",
                     scenario_path);
        return 1;
      }
      const auto report = fleet::run_fleet_trace(*trace);
      std::printf("fleet trace replay %s: seed=%llu ops=%zu %s\n",
                  scenario_path,
                  static_cast<unsigned long long>(trace->scenario.seed),
                  trace->ops.size(),
                  report.violated() ? "VIOLATED" : "clean");
      print_fuzz_report(report);
      return report.violated() ? 1 : 0;
    }
  }

  try {
    fleet::FleetSpec spec = fleet::FleetSpec::from_json_text(text.str());
    spec.seed = check::test_seed(spec.seed);
    fleet::FleetEngine engine(spec);
    engine.run();
    const auto result = engine.collect();
    std::printf("%s", result.report_text().c_str());
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      out << result.slo.to_json().dump() << "\n";
      // stderr: stdout stays byte-identical across same-seed runs even
      // when the two runs write to different --out paths.
      std::fprintf(stderr, "SLO report written to %s\n", out_path.c_str());
    }
    if (metrics) {
      MetricsRegistry registry;
      register_fleet_metrics(registry, engine);
      std::printf("\n%s", registry.expose().c_str());
    }
    return result.conformance_violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Chaos mode: replay a fault plan against a gateway fleet.
  if (argc >= 2 && std::string(argv[1]) == "chaos") {
    return run_chaos(argc, argv);
  }

  // Fleet mode: multi-AZ cluster scenario with SLO report.
  if (argc >= 2 && std::string(argv[1]) == "fleet") {
    return run_fleet_cmd(argc, argv);
  }

  // Fuzz mode: randomized conformance runs with invariant probes armed.
  if (argc >= 2 && std::string(argv[1]) == "fuzz") {
    return run_fuzz(argc, argv);
  }

  // Declarative mode: --config file.json runs a whole experiment spec.
  if (argc == 3 && std::string(argv[1]) == "--config") {
    std::ifstream in(argv[2]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const auto result = run_experiment_from_json(text.str());
      for (std::size_t i = 0; i < result.pods.size(); ++i) {
        const auto& r = result.pods[i];
        std::printf("pod %zu: delivered %.3f Mpps (loss %.3f%%), mean "
                    "%.1f us, p99 %.1f us, disorder %.1e\n",
                    i, r.delivered_mpps, r.loss_rate * 100,
                    r.mean_latency_us, r.p99_latency_us, r.disorder_rate);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  Options opt;
  if (!parse_args(argc, argv, opt)) usage_and_exit();

  auto scenario = SinglePodScenario::make(opt.service, opt.cores, opt.mode,
                                          200, 20'000, opt.drop_flag);
  Platform& platform = *scenario.platform;
  if (opt.offload) platform.nic().enable_session_offload(scenario.pod);
  platform.enable_order_oracle(opt.flows <= 100'000);

  PoissonFlowConfig bg;
  bg.num_flows = opt.flows;
  bg.rate_pps = opt.rate_mpps * 1e6;
  platform.attach_source(std::make_unique<PoissonFlowSource>(bg),
                         scenario.pod);
  if (opt.hitter_mpps > 0.0) {
    HeavyHitterConfig hh;
    hh.flow = make_flow(0x777777, 7, 0);
    hh.profile = RateProfile{{NanoTime{0}, opt.hitter_mpps * 1e6}};
    platform.attach_source(std::make_unique<HeavyHitterSource>(hh),
                           scenario.pod);
  }

  platform.run_until(opt.duration);

  const PodTelemetry& t = platform.telemetry(scenario.pod);
  const auto r = summarize(t, opt.duration);
  std::printf("albatross_sim: %s, %u cores, %s mode, %.2f Mpps offered, "
              "%lld ms\n",
              std::string(service_name(opt.service)).c_str(), opt.cores,
              opt.mode == LbMode::kPlb ? "PLB" : "RSS", opt.rate_mpps,
              static_cast<long long>(opt.duration / kMillisecond));
  std::printf("  delivered    : %.3f Mpps (loss %.3f%%)\n", r.delivered_mpps,
              r.loss_rate * 100);
  std::printf("  latency      : mean %.1f us, p99 %.1f us\n",
              r.mean_latency_us, r.p99_latency_us);
  std::printf("  ordering     : disorder %.1e, violations %llu\n",
              r.disorder_rate,
              static_cast<unsigned long long>(t.flow_order_violations));
  const auto reorder = platform.nic().engine(scenario.pod).total_stats();
  std::printf("  reorder      : in-order %llu, best-effort %llu, HOL "
              "timeouts %llu, drop releases %llu\n",
              static_cast<unsigned long long>(reorder.in_order_tx),
              static_cast<unsigned long long>(reorder.best_effort_tx),
              static_cast<unsigned long long>(reorder.timeout_releases),
              static_cast<unsigned long long>(reorder.drop_releases));
  if (opt.offload) {
    const auto& off = platform.nic().session_offload(scenario.pod).stats();
    std::printf("  offload      : fpga hits %llu, installs %llu\n",
                static_cast<unsigned long long>(off.fast_path_hits),
                static_cast<unsigned long long>(off.installs));
  }

  if (opt.metrics) {
    MetricsRegistry registry;
    register_platform_metrics(registry, platform);
    std::printf("\n%s", registry.expose().c_str());
  }
  return 0;
}
