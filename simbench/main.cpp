// simbench: the simulator's end-to-end and per-layer benchmark.
//
// Usage: simbench --workload pod_burst|pod_tiered|fleet_diurnal
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--scenario FLEET.json] [--spans PATH]
//
// With --trace 0 the workload is built and run repeatedly (at least
// twice) for about --seconds of wall time; the end-to-end metrics are
// medians over those runs. With --trace 1 one untraced and
// one traced run are made, every layer is replayed alone, and the
// per-layer metrics are printed; the spans of the run go to --spans.
// Every run must close its packet ledger and reproduce the first run's
// output fingerprint. The last stdout line is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/tenant_population.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace simbench;
using Clock = std::chrono::steady_clock;

/// bench_sim_throughput's burst row at 200 ms, seed 1.
constexpr std::uint64_t kCrossCheckPackets = 1'808'902;
constexpr std::uint64_t kCrossCheckEvents = 5'486'600;

struct Args {
  WorkloadKind workload = WorkloadKind::kPodBurst;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scenario = "simbench/fleet_diurnal.json";
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "pod_burst|pod_tiered|fleet_diurnal [--seed N] [--seconds S] "
               "[--trace 0|1] [--scenario PATH] [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage(("unknown workload " + v).c_str());
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || a.seconds <= 0.0) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--scenario") {
      a.scenario = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// Correctness bookkeeping across every run of one invocation.
struct Verdict {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::string fingerprint;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    ok = false;
    failures.push_back(why);
  }

  void check(const RunOutcome& r, const Args& a) {
    attempted += r.ledger.emitted;
    if (r.ledger.unaccounted() != 0) {
      fail("ledger: " + std::to_string(r.ledger.unaccounted()) +
           " packets unaccounted (emitted=" + std::to_string(r.ledger.emitted) +
           " offered=" + std::to_string(r.ledger.offered) +
           " accounted=" + std::to_string(r.ledger.accounted()) + ")");
    }
    if (r.conformance_violations != 0) {
      fail("conformance: " + std::to_string(r.conformance_violations) +
           " violations");
    }
    if (fingerprint.empty()) {
      fingerprint = r.fingerprint;
    } else if (fingerprint != r.fingerprint) {
      fail("fingerprint differs between runs: [" + fingerprint + "] vs [" +
           r.fingerprint + "]");
    }
    if (a.workload == WorkloadKind::kPodBurst && a.seed == 1 &&
        (r.offered_at_horizon != kCrossCheckPackets ||
         r.events_at_horizon != kCrossCheckEvents)) {
      fail("cross-check vs bench_sim_throughput: " +
           std::to_string(r.offered_at_horizon) + " packets / " +
           std::to_string(r.events_at_horizon) + " events at 200 ms, want " +
           std::to_string(kCrossCheckPackets) + " / " +
           std::to_string(kCrossCheckEvents));
    }
  }
};

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

void print_result(const Verdict& v, const Metrics& m) {
  for (const auto& f : v.failures) std::fprintf(stderr, "CHECK FAILED %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"fingerprint\": \"%s\", \"metrics\": {",
              v.ok ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.ok ? 0 : v.attempted),
              v.fingerprint.c_str());
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value, metric.unit);
    first = false;
  }
  std::printf("}}\n");
}

RunOutcome run_once(const Args& a, const albatross::fleet::FleetSpec* spec,
                    bool traced, std::vector<double>& setups, int fleet_setups,
                    Spans* spans = nullptr) {
  RunOptions opt;
  opt.traced = traced;
  opt.spans = spans;
  if (is_pod(a.workload)) {
    RunOutcome r = run_pod(a.workload, a.seed, opt);
    setups.push_back(r.setup_s);
    return r;
  }
  return run_fleet(*spec, fleet_setups, opt, setups);
}

void print_run(const char* tag, const RunOutcome& r) {
  std::printf("  %-8s setup %.3fs  run %.3fs (cpu %.3fs)  %llu pkts  "
              "%.0f pkts/wall-s  %.3f events/pkt\n",
              tag, r.setup_s, r.run_s, r.run_cpu_s,
              static_cast<unsigned long long>(r.ledger.offered),
              r.run_s > 0 ? static_cast<double>(r.ledger.offered) / r.run_s : 0.0,
              share(r.events, r.ledger.offered));
}

/// End-to-end mode: repeat the workload, at least twice, and start
/// another run only while it should end within the wall budget. The
/// first run of a process pays for fresh pages and an empty packet
/// pool, so it is left out of sim_pps when two or more runs remain. The
/// fleet sets up five times on its first run to give setup_s a median.
Metrics end_to_end(const Args& a, const albatross::fleet::FleetSpec* spec,
                   Verdict& v) {
  std::vector<double> pps, setups;
  const auto t0 = Clock::now();
  double last_s = 0.0;
  do {
    const auto start = Clock::now();
    const RunOutcome r = run_once(a, spec, false, setups, pps.empty() ? 5 : 1);
    last_s = seconds_since(start);
    print_run("run", r);
    v.check(r, a);
    pps.push_back(static_cast<double>(r.ledger.offered) / r.run_s);
  } while (pps.size() < 2 || seconds_since(t0) + last_s <= a.seconds);
  if (pps.size() >= 3) pps.erase(pps.begin());
  Metrics m;
  m["sim_pps"] = {median(pps), "pkt/s"};
  m["setup_s"] = {median(setups), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return m;
}

/// Traced mode: one untraced and one traced in-situ run, the isolated
/// layer replays, and (fleet) the set-up and control-plane splits.
Metrics per_layer(const Args& a, const albatross::fleet::FleetSpec* spec,
                  Verdict& v, Spans& spans) {
  Metrics m;
  const bool fleet = !is_pod(a.workload);
  std::vector<double> setups;
  // The fleet layer only runs on fleet_diurnal; it reads 0 elsewhere.
  m["fleet.population_s"] = {0.0, "s"};
  m["fleet.population_rss_mb"] = {0.0, "MB"};
  m["fleet.engine_build_s"] = {0.0, "s"};
  m["fleet.engine_rss_mb"] = {0.0, "MB"};
  m["fleet.control_events_share"] = {0.0, "ratio"};

  if (fleet) {
    // Set-up split first, while the process is still small.
    const auto s = spans.open("fleet.population");
    const double rss0 = resident_mb();
    const auto t0 = Clock::now();
    double pop_s = 0.0, pop_mb = 0.0;
    {
      albatross::fleet::TenantPopulation pop(
          spec->tenants, spec->tenant_zipf_alpha, spec->seed,
          spec->total_gateways(), spec->hot_tenants_per_gateway);
      pop_s = seconds_since(t0);
      pop_mb = resident_mb() - rss0;
    }
    spans.close(s);
    const auto e = spans.open("fleet.engine_build");
    const double rss1 = resident_mb();
    const auto t1 = Clock::now();
    double build_s = 0.0, build_mb = 0.0;
    {
      albatross::fleet::FleetEngine engine(*spec);
      build_s = seconds_since(t1);
      build_mb = resident_mb() - rss1;
    }
    spans.close(e);
    m["fleet.population_s"] = {pop_s, "s"};
    m["fleet.population_rss_mb"] = {pop_mb, "MB"};
    m["fleet.engine_build_s"] = {build_s - pop_s, "s"};
    m["fleet.engine_rss_mb"] = {build_mb - pop_mb, "MB"};
  }

  auto s = spans.open("run.untraced");
  const RunOutcome plain = run_once(a, spec, false, setups, 1, &spans);
  spans.close(s);
  print_run("untraced", plain);
  v.check(plain, a);
  s = spans.open("run.traced");
  const RunOutcome traced = run_once(a, spec, true, setups, 1, &spans);
  spans.close(s);
  print_run("traced", traced);
  v.check(traced, a);

  const std::uint64_t offered = traced.ledger.offered;
  const InSitu& in = traced.in_situ;
  const double events_per_pkt = share(traced.events, offered);
  const double cpu_share = share(in.cpu_processed, offered);
  m["sim.events_per_pkt"] = {events_per_pkt, "1/pkt"};
  m["packet.allocs_per_pkt"] = {share(traced.trace.allocs.calls, offered), "1/pkt"};
  m["packet.alloc_bytes_per_pkt"] = {share(traced.trace.allocs.bytes, offered), "B/pkt"};
  m["trace.overhead_share"] = {traced.run_s / plain.run_s - 1.0, "ratio"};
  m["traffic.share"] = {fleet ? 0.0 : traced.trace.source_s / traced.run_s, "ratio"};
  m["nic.reorder.in_order_share"] = {share(in.in_order_tx, offered), "ratio"};
  m["nic.reorder.timeout_share"] = {share(in.timeout_releases, offered), "ratio"};
  m["nic.reorder.best_effort_share"] = {share(in.best_effort_tx, offered), "ratio"};
  m["nic.gop.drop_share"] = {share(traced.ledger.rate_limit, offered), "ratio"};
  m["nic.reorder_full.drop_share"] = {share(traced.ledger.reorder_full, offered), "ratio"};
  m["nic.offload.hit_share"] = {share(in.offload_hits, offered), "ratio"};
  m["dpu.fpga_hit_share"] = {share(in.fpga_hits, offered), "ratio"};
  m["dpu.dpu_hit_share"] = {share(in.dpu_hits, offered), "ratio"};
  m["dpu.migrations_per_kpkt"] = {1000.0 * share(in.migrations, offered), "1/kpkt"};
  m["gateway.cpu_share"] = {cpu_share, "ratio"};
  m["gateway.ring_drop_share"] = {share(traced.ledger.ring_drops, offered), "ratio"};
  m["gateway.core_util"] = {in.core_util, "ratio"};
  m["sim.event_wall_ns_p50"] = {
      static_cast<double>(traced.trace.event_wall_ns.quantile(0.5)), "ns"};
  m["sim.event_wall_ns_p99"] = {
      static_cast<double>(traced.trace.event_wall_ns.quantile(0.99)), "ns"};

  if (fleet) {
    albatross::fleet::FleetSpec quiet = *spec;
    quiet.total_rate_pps = 1e-6;  // every gateway at its 1 pps floor
    s = spans.open("fleet.control_plane_only");
    std::vector<double> quiet_setups;
    RunOptions quiet_opt;
    quiet_opt.spans = &spans;
    const RunOutcome ctl = run_fleet(quiet, 1, quiet_opt, quiet_setups);
    spans.close(s);
    m["fleet.control_events_share"] = {share(ctl.events, traced.events), "ratio"};
  }

  // Isolated replays on the workload's own configuration and arrivals.
  const PodWorkload pw = pod_workload(a.workload, a.seed, spec);
  constexpr std::size_t kReplay = 200'000;
  const auto replay = [&spans](const char* name, auto&& fn) {
    const auto sp = spans.open(name);
    auto r = fn();
    spans.close(sp);
    return r;
  };
  const double emit_ns = replay("replay.traffic.emit", [&] { return replay_emit_ns(pw, kReplay); });
  const NicCosts nic = replay("replay.nic.ingress_egress", [&] { return replay_nic(pw, kReplay); });
  const double gop_ns = replay("replay.nic.gop_admit", [&] { return replay_gop_admit_ns(pw, kReplay); });
  const PlbCosts plb = replay("replay.nic.plb", [&] { return replay_plb(pw, kReplay); });
  const double dma_ns = replay("replay.nic.dma", [&] { return replay_dma_ns(pw, kReplay); });
  const double dpu_ns = replay("replay.dpu.serve", [&] { return replay_dpu_serve_ns(pw, kReplay); });
  const double event_ns = replay("replay.sim.event", [&] { return replay_event_ns(4 * kReplay, fleet); });
  const double ring_ns = replay("replay.sim.ring", [&] { return replay_ring_ns(pw, 4 * kReplay); });
  const double service_ns = replay("replay.gateway.service", [&] { return replay_service_ns(pw, kReplay); });
  const TableCosts tables = replay("replay.tables.populate", [&] { return replay_tables(pw); });

  m["traffic.emit_ns"] = {emit_ns, "ns"};
  m["nic.ingress_ns"] = {nic.ingress_ns, "ns"};
  m["nic.egress_ns"] = {nic.egress_ns, "ns"};
  m["nic.gop_admit_ns"] = {gop_ns, "ns"};
  m["nic.plb_dispatch_ns"] = {plb.dispatch_ns, "ns"};
  m["nic.next_deadline_ns"] = {plb.next_deadline_ns, "ns"};
  m["nic.dma_ns"] = {dma_ns, "ns"};
  m["dpu.serve_ns"] = {dpu_ns, "ns"};
  m["sim.event_ns"] = {event_ns, "ns"};
  m["sim.ring_ns"] = {ring_ns, "ns"};
  m["gateway.service_ns"] = {service_ns, "ns"};
  m["tables.populate_s"] = {tables.populate_s, "s"};
  m["tables.bytes"] = {static_cast<double>(tables.bytes), "B"};

  // Whatever the traced run spent per packet beyond the isolated layers,
  // each weighted by its calls per packet: pump, tenant map, emission
  // handling and event dispatch glue.
  const double wall_ns_per_pkt = 1e9 * traced.run_s / static_cast<double>(offered);
  const double layers = emit_ns + nic.ingress_ns +
                        cpu_share * (nic.egress_ns + ring_ns + service_ns) +
                        2.0 * plb.next_deadline_ns + events_per_pkt * event_ns;
  m["core.glue_ns"] = {wall_ns_per_pkt - layers, "ns"};
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::optional<albatross::fleet::FleetSpec> spec;
  try {
    if (!is_pod(a.workload)) spec = load_fleet_spec(a.scenario, a.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
  std::printf("simbench %s seed=%llu trace=%d\n", workload_name(a.workload),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);

  Spans spans;
  Verdict v;
  const auto root = spans.open(workload_name(a.workload));
  const Metrics m = a.trace ? per_layer(a, spec ? &*spec : nullptr, v, spans)
                            : end_to_end(a, spec ? &*spec : nullptr, v);
  spans.close(root);
  if (!a.spans.empty() && !spans.write(a.spans)) {
    std::fprintf(stderr, "simbench: cannot write spans to %s\n", a.spans.c_str());
    return 1;
  }
  print_result(v, m);
  return 0;
}
