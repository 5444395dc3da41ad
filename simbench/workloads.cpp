#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "check/trace_gen.hpp"
#include "dpu/dpu_tier.hpp"
#include "fleet/fleet.hpp"

namespace simbench {

using namespace albatross;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The benchmark's source decorator: forwards to the workload's source,
/// counts every emitted packet for the ledger, stops emitting when the
/// run reaches its horizon and, in traced runs, times emit().
class MeteredSource final : public TrafficSource {
 public:
  MeteredSource(std::unique_ptr<TrafficSource> inner, bool timed,
                std::uint64_t swallow)
      : inner_(std::move(inner)), timed_(timed), swallow_(swallow) {}

  [[nodiscard]] std::optional<NanoTime> next_time() const override {
    if (stopped_) return std::nullopt;
    return inner_->next_time();
  }

  PacketPtr emit() override {
    PacketPtr pkt;
    if (timed_) {
      const auto t0 = Clock::now();
      pkt = inner_->emit();
      emit_s_ += seconds_since(t0);
    } else {
      pkt = inner_->emit();
    }
    ++emitted_;
    if (emitted_ == swallow_) return nullptr;  // lost on purpose (self-test)
    return pkt;
  }

  void stop() { stopped_ = true; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] double emit_seconds() const { return emit_s_; }

 private:
  std::unique_ptr<TrafficSource> inner_;
  bool timed_;
  std::uint64_t swallow_;
  bool stopped_ = false;
  std::uint64_t emitted_ = 0;
  double emit_s_ = 0.0;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Adds one platform's pods to the ledger and the in-situ counters.
void account_platform(Platform& p, NanoTime elapsed, Ledger& l, InSitu& s,
                      LogHistogram& wire, double& util_sum,
                      std::size_t& util_cores) {
  for (PodId pod = 0; pod < p.pod_count(); ++pod) {
    const PodTelemetry& tel = p.telemetry(pod);
    const GwPodStats& ps = p.pod(pod).stats();
    l.offered += tel.offered;
    l.delivered += tel.delivered;
    l.rate_limit += tel.dropped_rate_limit;
    l.reorder_full += tel.dropped_reorder_full;
    l.blackholed += tel.blackholed;
    l.service_drops += ps.dropped_service;
    l.ring_drops += ps.dropped_ring;
    l.protocol += ps.protocol_packets;
    wire.merge(tel.wire_latency);

    const ReorderQueueStats rs = p.nic().engine(pod).total_stats();
    s.in_order_tx += rs.in_order_tx;
    s.timeout_releases += rs.timeout_releases;
    s.best_effort_tx += rs.best_effort_tx;
    s.cpu_processed += ps.processed;
    if (p.nic().dpu_tier_enabled(pod)) {
      const DpuTier& tier = p.nic().dpu_tier(pod);
      s.fpga_hits += tier.stats().fpga_hits;
      s.dpu_hits += tier.stats().dpu_hits;
      const TierControllerStats& cs =
          p.nic().dpu_tier(pod).controller().stats();
      s.migrations += cs.admissions + cs.promotions + cs.demotions +
                      cs.evictions_cold;
    } else if (p.nic().session_offload_enabled(pod)) {
      s.fpga_hits += p.nic().session_offload(pod).stats().fast_path_hits;
    }
    const std::uint16_t cores = p.pod(pod).config().data_cores;
    for (std::uint16_t c = 0; c < cores; ++c) {
      util_sum += static_cast<double>(p.pod(pod).core_busy_ns(CoreId{c}).count()) /
                  static_cast<double>(std::max<std::int64_t>(elapsed.count(), 1));
      ++util_cores;
    }
  }
  l.split_drops += p.nic().basic().stats().headers_dropped_payload_gone;
  s.offload_hits = s.fpga_hits + s.dpu_hits;
}

/// Opens and closes phase spans only when the run records spans.
struct PhaseSpans {
  Spans* spans;
  Spans::Id open(const char* name) const {
    return spans ? spans->open(name) : Spans::kNone;
  }
  void close(Spans::Id id) const {
    if (spans) spans->close(id);
  }
};

std::string fingerprint_text(const Ledger& l, const LogHistogram& wire,
                             std::uint64_t events, const InSitu& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "offered=%llu delivered=%llu rate_limit=%llu reorder_full=%llu "
      "blackholed=%llu service_drops=%llu ring_drops=%llu split_drops=%llu "
      "protocol=%llu "
      "offload_hits=%llu wire_p50_ns=%llu wire_p99_ns=%llu events=%llu",
      static_cast<unsigned long long>(l.offered),
      static_cast<unsigned long long>(l.delivered),
      static_cast<unsigned long long>(l.rate_limit),
      static_cast<unsigned long long>(l.reorder_full),
      static_cast<unsigned long long>(l.blackholed),
      static_cast<unsigned long long>(l.service_drops),
      static_cast<unsigned long long>(l.ring_drops),
      static_cast<unsigned long long>(l.split_drops),
      static_cast<unsigned long long>(l.protocol),
      static_cast<unsigned long long>(s.offload_hits),
      static_cast<unsigned long long>(wire.quantile(0.5)),
      static_cast<unsigned long long>(wire.quantile(0.99)),
      static_cast<unsigned long long>(events));
  return buf;
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view s) {
  if (s == "pod_burst") return WorkloadKind::kPodBurst;
  if (s == "pod_tiered") return WorkloadKind::kPodTiered;
  if (s == "fleet_diurnal") return WorkloadKind::kFleetDiurnal;
  return std::nullopt;
}

const char* workload_name(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kPodBurst: return "pod_burst";
    case WorkloadKind::kPodTiered: return "pod_tiered";
    case WorkloadKind::kFleetDiurnal: return "fleet_diurnal";
  }
  return "?";
}

bool is_pod(WorkloadKind w) { return w != WorkloadKind::kFleetDiurnal; }

std::uint64_t Ledger::unaccounted() const {
  const auto diff = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
  };
  return diff(emitted, offered) + diff(offered, accounted());
}

PodWorkload pod_workload(WorkloadKind w, std::uint64_t seed,
                         const fleet::FleetSpec* fleet) {
  PodWorkload p;
  switch (w) {
    case WorkloadKind::kPodBurst:
      // bench_sim_throughput's burst row: ~80 % of an 8-core VPC-VPC pod.
      p.horizon = 200 * kMillisecond;
      p.drain = 5 * kMillisecond;
      p.traffic = check::background_flow_config(9e6, seed);
      break;
    case WorkloadKind::kPodTiered:
      // bench_ext_dpu_tiering's 250K-flow tiered point: 3x CPU capacity.
      p.service = ServiceKind::kVpcInternet;
      p.cores = 2;
      p.tiered = true;
      p.horizon = 120 * kMillisecond;
      p.drain = 10 * kMillisecond;
      p.traffic.num_flows = 250'000;
      p.traffic.tenants = 64;
      p.traffic.zipf_alpha = 0.5;
      p.traffic.rate_pps = 6e6;
      p.traffic.seed = seed;
      break;
    case WorkloadKind::kFleetDiurnal: {
      // One gateway of the fleet scenario: its per-gateway share of the
      // offered load arrives one packet per pump activation.
      const fleet::FleetSpec spec = fleet ? *fleet : fleet::FleetSpec{};
      p.service = spec.service;
      p.cores = spec.azs.empty() ? 4 : spec.azs.front().data_cores;
      p.batch = 1;
      p.tenants = std::max(spec.local_vnis, 16u);
      p.routes = PlatformConfig{}.routes;
      p.horizon = spec.horizon;
      p.drain = spec.drain;
      p.traffic.num_flows = spec.flows_per_gateway;
      p.traffic.tenants = spec.local_vnis;
      p.traffic.zipf_alpha = spec.flow_zipf_alpha;
      p.traffic.packet_bytes = spec.packet_bytes;
      p.traffic.rate_pps =
          spec.total_rate_pps / std::max<std::uint32_t>(spec.total_gateways(), 1);
      p.traffic.seed = seed;
      break;
    }
  }
  return p;
}

RunOutcome run_pod(WorkloadKind w, std::uint64_t seed, const RunOptions& opt) {
  PodWorkload pw = pod_workload(w, seed, nullptr);
  if (opt.horizon != NanoTime{0}) pw.horizon = opt.horizon;
  if (opt.rate_pps > 0.0) pw.traffic.rate_pps = opt.rate_pps;

  RunOutcome out;
  const PhaseSpans phase{opt.spans};
  auto span = phase.open("setup");
  const auto setup_start = Clock::now();
  PlatformConfig pc;
  pc.tenants = pw.tenants;
  pc.routes = pw.routes;
  pc.tables_data_cores = pw.cores;
  pc.ingress_batch = pw.batch;
  Platform platform(pc);
  GwPodConfig gp;
  gp.service = pw.service;
  gp.data_cores = pw.cores;
  gp.rx_burst = pw.batch;
  const PodId pod = platform.create_pod(gp);
  if (pw.tiered) {
    platform.enable_order_oracle(true);
    DpuTierConfig tc;
    tc.datapath.cores = 16;
    tc.controller.admit_budget = 32'768;
    tc.controller.migration_budget = 4'096;
    tc.controller.admit_forwards = 1;
    platform.nic().enable_dpu_tier(pod, tc);
    platform.enable_housekeeping(10 * kMillisecond);
  }
  auto metered = std::make_unique<MeteredSource>(
      std::make_unique<PoissonFlowSource>(pw.traffic), opt.traced,
      opt.swallow_packet);
  MeteredSource* src = metered.get();
  platform.attach_source(std::move(metered), pod);
  out.setup_s = seconds_since(setup_start);
  phase.close(span);

  if (opt.traced) {
    auto last = std::make_shared<Clock::time_point>(Clock::now());
    LogHistogram* hist = &out.trace.event_wall_ns;
    platform.loop().set_observer([last, hist](NanoTime) {
      const auto now = Clock::now();
      hist->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - *last)
              .count()));
      *last = now;
    });
  }

  std::optional<AllocScope> allocs;
  if (opt.traced) allocs.emplace();
  span = phase.open("run.horizon");
  const auto run_start = Clock::now();
  const double cpu_start = thread_cpu_s();
  platform.run_until(pw.horizon);
  out.offered_at_horizon = platform.telemetry(pod).offered;
  out.events_at_horizon = platform.loop().events_processed();
  src->stop();
  phase.close(span);
  span = phase.open("run.drain");
  platform.run_until(pw.horizon + pw.drain);
  out.run_s = seconds_since(run_start);
  out.run_cpu_s = thread_cpu_s() - cpu_start;
  phase.close(span);
  if (allocs) {
    out.trace.allocs = allocs->counted();
    allocs.reset();
  }
  platform.loop().set_observer(nullptr);
  out.trace.source_s = src->emit_seconds();

  out.events = platform.loop().events_processed();
  out.ledger.emitted = src->emitted();
  LogHistogram wire;
  double util_sum = 0.0;
  std::size_t util_cores = 0;
  account_platform(platform, pw.horizon + pw.drain, out.ledger, out.in_situ,
                   wire, util_sum, util_cores);
  out.in_situ.core_util =
      util_cores ? util_sum / static_cast<double>(util_cores) : 0.0;
  out.fingerprint = fingerprint_text(out.ledger, wire, out.events, out.in_situ);
  if (pw.tiered) {
    out.fingerprint += " order_violations=" +
                       std::to_string(platform.telemetry(pod).flow_order_violations);
  }
  return out;
}

fleet::FleetSpec load_fleet_spec(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fleet scenario " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  fleet::FleetSpec spec = fleet::FleetSpec::from_json_text(ss.str());
  spec.seed = seed;
  return spec;
}

RunOutcome run_fleet(const fleet::FleetSpec& spec, int builds,
                     const RunOptions& opt, std::vector<double>& setup_s) {
  RunOutcome out;
  const PhaseSpans phase{opt.spans};
  std::unique_ptr<fleet::FleetEngine> engine;
  for (int k = 0; k < std::max(builds, 1); ++k) {
    engine.reset();  // at most one engine resident at a time
    const auto span = phase.open("setup");
    const auto t0 = Clock::now();
    engine = std::make_unique<fleet::FleetEngine>(spec);
    setup_s.push_back(seconds_since(t0));
    phase.close(span);
  }
  out.setup_s = setup_s.back();

  std::optional<AllocScope> allocs;
  if (opt.traced) allocs.emplace();
  const auto span = phase.open("run.horizon_and_drain");
  const auto run_start = Clock::now();
  const double cpu_start = thread_cpu_s();
  engine->run();
  out.run_s = seconds_since(run_start);
  out.run_cpu_s = thread_cpu_s() - cpu_start;
  phase.close(span);
  if (allocs) {
    out.trace.allocs = allocs->counted();
    allocs.reset();
  }

  const fleet::FleetResult result = engine->collect();
  out.events = result.events_total;
  out.conformance_violations = result.conformance_violations;
  LogHistogram wire;
  double util_sum = 0.0;
  std::size_t util_cores = 0;
  for (std::size_t i = 0; i < engine->az_count(); ++i) {
    account_platform(engine->az_harness(i).platform(),
                     spec.horizon + spec.drain, out.ledger, out.in_situ, wire,
                     util_sum, util_cores);
  }
  out.ledger.emitted = out.ledger.offered;  // the engine owns its sources
  out.offered_at_horizon = out.ledger.offered;
  out.events_at_horizon = out.events;
  out.in_situ.core_util =
      util_cores ? util_sum / static_cast<double>(util_cores) : 0.0;
  char report[64];
  std::snprintf(report, sizeof(report), " conformance=%llu report_fnv=%016llx",
                static_cast<unsigned long long>(out.conformance_violations),
                static_cast<unsigned long long>(fnv1a(result.report_text())));
  out.fingerprint =
      fingerprint_text(out.ledger, wire, out.events, out.in_situ) + report;
  return out;
}

}  // namespace simbench
