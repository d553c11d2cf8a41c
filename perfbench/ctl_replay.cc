// ctl-replay: what dcatd itself costs per interval. A DcatController under
// max-fairness with 15 one-core tenants runs over SimPqos on a socket with
// the Xeon E5's CAT geometry, with a write-ahead journal on
// MemoryJournalStorage and a JSONL trace sink of bounded memory. No
// simulation runs: the per-core counters come from ReplayMonitor, so host
// time is Tick plus pqos, journal and telemetry.
#include <bit>
#include <cmath>
#include <memory>
#include <optional>

#include "perfbench/bench.h"
#include "perfbench/ctl_replay.h"
#include "perfbench/layers.h"
#include "src/common/rng.h"
#include "src/core/dcat_controller.h"
#include "src/pqos/sim_pqos.h"
#include "src/recovery/journal.h"
#include "src/sim/geometry.h"
#include "src/telemetry/trace.h"
#include "src/verify/invariant_checker.h"

namespace perfbench {
namespace {

constexpr double kCyclesPerInterval = 1e6;
constexpr uint32_t kTenants = 15;
// Timed seconds of one 5000-tick episode on the 4-core host the benchmark
// was built on; sizes a run's fixed episode count.
constexpr double kReferenceEpisodeSeconds = 0.5;

uint32_t EpisodeTicks(bool smoke) { return smoke ? 300 : 5000; }

// The Xeon E5's cores, ways and COS, with its 36,864-set LLC cut to 64
// sets. Nothing is ever simulated here, so the LLC stays empty; but SimPqos
// flushes the surrendered ways of every shrinking mask write, and at full
// size that scan of an empty LLC (~85 us a call) is simulator work that
// would outweigh dcatd's own write path on the write ticks. The replayed
// occupancy still uses the Xeon E5's way size (kWayBytes).
dcat::SocketConfig ReplaySocketConfig() {
  dcat::SocketConfig config = dcat::SocketConfig::XeonE5();
  config.llc_geometry = dcat::MakeGeometry(uint64_t{20} * 64 * 64, 20);
  return config;
}
const uint64_t kWayBytes = dcat::XeonE5LlcGeometry().WayCapacityBytes();

// Uniform in [lo, hi).
double Between(dcat::Rng& rng, double lo, double hi) { return lo + (hi - lo) * rng.NextDouble(); }

ReplayPhase CacheHungry(dcat::Rng& rng) {
  return ReplayPhase{.mem_per_instruction = Between(rng, 0.28, 0.34),
                     .llc_refs_pki = Between(rng, 18.0, 24.0),
                     .miss_at_one_way = Between(rng, 0.55, 0.65),
                     .miss_floor = 0.01,
                     .ways_scale = Between(rng, 2.5, 3.5)};
}
ReplayPhase Streaming(dcat::Rng& rng) {
  return ReplayPhase{.mem_per_instruction = Between(rng, 0.30, 0.36),
                     .llc_refs_pki = Between(rng, 28.0, 34.0),
                     .miss_at_one_way = 0.97,
                     .miss_floor = 0.96,
                     .ways_scale = 1.0};
}
ReplayPhase Resident(dcat::Rng& rng) {
  return ReplayPhase{.mem_per_instruction = Between(rng, 0.15, 0.20),
                     .llc_refs_pki = Between(rng, 8.0, 12.0),
                     .miss_at_one_way = 0.01,
                     .miss_floor = 0.005,
                     .ways_scale = 1.0};
}
ReplayPhase ComputeBound(dcat::Rng& rng) {
  return ReplayPhase{.mem_per_instruction = Between(rng, 0.008, 0.012),
                     .llc_refs_pki = Between(rng, 0.2, 0.5),
                     .miss_at_one_way = 0.05,
                     .miss_floor = 0.05,
                     .ways_scale = 1.0};
}

struct ReplayEpisode {
  double setup_s = 0.0;
  std::vector<double> tick_us;
  std::vector<double> core_self_us;
  std::string trace;
  uint64_t trace_hash = 0;
  uint64_t refused = 0;
  uint64_t apply_failures = 0;
  uint64_t l1_references = 0;
  std::vector<dcat::Violation> violations;
  double receiver_norm_ipc = 0.0;
  uint64_t way_change_ticks = 0;
  LayerCounts counts;
};

// The gate episode carries the invariant checker, the counting sinks and
// the whole trace; timed episodes carry only the hashed trace writer; a
// non-null recorder decorates every seam.
ReplayEpisode RunReplayEpisode(uint64_t seed, uint32_t ticks, bool gate, SpanRecorder* recorder) {
  ReplayEpisode ep;
  const int64_t start = NowNs();
  dcat::Socket socket(ReplaySocketConfig());
  dcat::SimPqos pqos(&socket);
  const std::vector<ReplayTenant> tenants = MakeReplayTenants(seed);
  ReplayMonitor replay(tenants, &pqos, seed);
  std::optional<TimedCat> timed_cat;
  std::optional<TimedMonitor> timed_monitor;
  dcat::CatController* cat = &pqos;
  const dcat::MonitoringProvider* monitor = &replay;
  if (recorder != nullptr) {
    recorder->set_enabled(false);
    cat = &timed_cat.emplace(&pqos, recorder);
    monitor = &timed_monitor.emplace(&replay, recorder);
  }
  dcat::DcatConfig config;
  config.policy = "max-fairness";
  dcat::DcatController controller(cat, monitor, config);
  dcat::MemoryJournalStorage memory;
  std::optional<TimedJournalStorage> timed_journal;
  dcat::JournalStorage* storage = &memory;
  if (recorder != nullptr) {
    storage = &timed_journal.emplace(&memory, recorder);
  }
  dcat::JournalWriter journal(storage);
  journal.set_metrics(&controller.metrics());
  controller.AttachJournal(&journal);

  TraceCapture capture(gate);
  dcat::JsonlTraceWriter writer(capture.stream());
  CountingSink counting(&writer, recorder);
  std::vector<dcat::TenantId> receiver_ids;
  for (uint32_t i = 0; i < kTenants; ++i) {
    if (tenants[i].receiver_role) {
      receiver_ids.push_back(i + 1);
    }
  }
  ReceiverIpcSink receivers(receiver_ids, 1);
  std::optional<dcat::InvariantChecker> checker;
  if (gate || recorder != nullptr) {
    controller.AddEventSink(&counting);
  } else {
    controller.AddEventSink(&writer);
  }
  if (gate) {
    dcat::InvariantOptions options;
    options.total_ways = pqos.NumWays();
    options.min_ways = config.min_ways;
    options.ipc_improvement_thr = config.ipc_improvement_thr;
    checker.emplace(options);
    checker->AttachController(&controller, &pqos);
    checker->set_metrics(&controller.metrics());
    controller.AddEventSink(&*checker);
    controller.AddEventSink(&receivers);
  }
  for (uint32_t i = 0; i < kTenants; ++i) {
    const dcat::TenantSpec spec{.id = i + 1,
                                .name = "replay-" + std::to_string(i + 1),
                                .cores = {static_cast<uint16_t>(i)},
                                .baseline_ways = 1};
    if (controller.AddTenant(spec) != dcat::AdmitStatus::kOk) {
      ++ep.refused;
    } else if (checker.has_value()) {
      checker->RegisterTenant(spec.id, spec.baseline_ways);
    }
  }
  ep.setup_s = static_cast<double>(NowNs() - start) * 1e-9;

  ep.tick_us.reserve(ticks);
  if (recorder != nullptr) {
    ep.core_self_us.reserve(ticks);
    recorder->set_enabled(true);
  }
  for (uint32_t tick = 1; tick <= ticks; ++tick) {
    replay.Advance(tick);
    const int64_t t0 = NowNs();
    if (recorder != nullptr) {
      recorder->set_interval(tick);
      recorder->Begin(Layer::kInterval);
      recorder->Begin(Layer::kCore);
      controller.Tick();
      ep.core_self_us.push_back(static_cast<double>(recorder->End()) * 1e-3);
      recorder->End();
    } else {
      controller.Tick();
    }
    ep.tick_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  if (recorder != nullptr) {
    recorder->set_enabled(false);
  }
  if (checker.has_value()) {
    checker->Finish();
    ep.violations = checker->violations();
  }
  capture.Finish(&ep.trace, &ep.trace_hash, &ep.counts.trace_bytes);
  ep.apply_failures = controller.metrics().counter("faults.apply_failures").value();
  ep.l1_references = replay.l1_references();
  ep.receiver_norm_ipc = receivers.mean();
  ep.way_change_ticks = counting.way_change_ticks();
  ep.counts.events = counting.events();
  ep.counts.allocations = counting.allocations();
  ep.counts.phase_changes = counting.phase_changes();
  ep.counts.category_changes = counting.category_changes();
  if (recorder != nullptr) {
    ep.counts.mask_writes = timed_cat->mask_writes();
    ep.counts.pqos_reads = timed_cat->reads() + timed_monitor->reads();
    ep.counts.journal_appends = timed_journal->appends();
    ep.counts.journal_bytes = timed_journal->bytes();
  }
  return ep;
}

}  // namespace

std::vector<ReplayTenant> MakeReplayTenants(uint64_t seed) {
  dcat::Rng rng(seed ^ 0xc7a1'0000'0000'0015ULL);
  std::vector<ReplayTenant> tenants;
  // 3 receivers, 2 streamers, 2 cache-resident keepers, 5 compute-bound
  // donors: steady for the whole run.
  for (int i = 0; i < 3; ++i) {
    tenants.push_back(ReplayTenant{.phases = {CacheHungry(rng)}, .receiver_role = true});
  }
  for (int i = 0; i < 2; ++i) {
    tenants.push_back(ReplayTenant{.phases = {Streaming(rng)}});
  }
  for (int i = 0; i < 2; ++i) {
    tenants.push_back(ReplayTenant{.phases = {Resident(rng)}});
  }
  for (int i = 0; i < 5; ++i) {
    tenants.push_back(ReplayTenant{.phases = {ComputeBound(rng)}});
  }
  // 3 switchers alternate a cache-hungry and a compute-bound phase; each
  // switch is a phase change and a round of mask writes, so a few percent
  // of ticks write masks and interval_us_p99 lands on them.
  for (int i = 0; i < 3; ++i) {
    ReplayTenant t;
    t.phases = {CacheHungry(rng), ComputeBound(rng)};
    t.period = static_cast<uint32_t>(rng.Range(80, 120));
    tenants.push_back(t);
  }
  return tenants;
}

ReplayMonitor::ReplayMonitor(std::vector<ReplayTenant> tenants, const dcat::CatController* cat,
                             uint64_t seed)
    : tenants_(std::move(tenants)), cat_(cat), seed_(seed), counters_(tenants_.size()) {}

void ReplayMonitor::Advance(uint64_t tick) {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const ReplayTenant& t = tenants_[i];
    const ReplayPhase& p =
        t.period == 0 ? t.phases[0] : t.phases[(tick / t.period) % t.phases.size()];
    const uint16_t core = static_cast<uint16_t>(i);
    const uint8_t cos = cat_->GetCoreAssociation(core);
    const int ways = std::max(1, std::popcount(cat_->GetCosMask(cos)));
    const double miss =
        p.miss_floor + (p.miss_at_one_way - p.miss_floor) * std::exp(-(ways - 1) / p.ways_scale);
    // Cycles per instruction: a base pipeline cost plus LLC hit and DRAM
    // latency for this phase's LLC traffic.
    const double cpi = 0.4 + p.llc_refs_pki / 1000.0 * (miss * 180.0 + (1.0 - miss) * 35.0);
    // +-0.4% seeded measurement noise, far inside the phase threshold.
    uint64_t key = seed_ ^ (tick * 0x9e3779b97f4a7c15ULL) ^ (i * 0xbf58476d1ce4e5b9ULL);
    const double noise = 1.0 + 0.004 * (2.0 * static_cast<double>(dcat::SplitMix64(key) >> 11) *
                                            0x1.0p-53 -
                                        1.0);
    const auto instructions = static_cast<uint64_t>(kCyclesPerInterval / cpi * noise);
    const auto llc_refs =
        static_cast<uint64_t>(static_cast<double>(instructions) * p.llc_refs_pki / 1000.0);
    const auto llc_misses = static_cast<uint64_t>(static_cast<double>(llc_refs) * miss);
    const uint64_t l2_refs =
        std::max(llc_refs, static_cast<uint64_t>(0.15 * p.mem_per_instruction *
                                                 static_cast<double>(instructions)));
    const uint64_t l1_refs = std::max(
        l2_refs,
        static_cast<uint64_t>(p.mem_per_instruction * static_cast<double>(instructions)));

    dcat::PerfCounterBlock& c = counters_[i];
    c.retired_instructions += instructions;
    c.unhalted_cycles += kCyclesPerInterval;
    c.l1_references += l1_refs;
    c.l1_misses += l2_refs;
    c.l2_references += l2_refs;
    c.l2_misses += llc_refs;
    c.llc_references += llc_refs;
    c.llc_misses += llc_misses;
    mbm_bytes_[cos] += llc_misses * 64;
    l1_references_ += l1_refs;
  }
}

dcat::PerfCounterBlock ReplayMonitor::ReadCounters(uint16_t core) const {
  return core < counters_.size() ? counters_[core] : dcat::PerfCounterBlock{};
}

uint64_t ReplayMonitor::LlcOccupancyBytes(uint8_t cos) const {
  return static_cast<uint64_t>(std::popcount(cat_->GetCosMask(cos))) * kWayBytes;
}

uint64_t ReplayMonitor::MemoryBandwidthBytes(uint8_t cos) const {
  const auto it = mbm_bytes_.find(cos);
  return it == mbm_bytes_.end() ? 0 : it->second;
}

RunReport RunCtlReplay(const Options& options, const PinTable& pins) {
  RunReport report;
  const uint32_t ticks = EpisodeTicks(options.smoke);

  const ReplayEpisode gate = RunReplayEpisode(options.seed, ticks, /*gate=*/true, nullptr);
  report.digest = DecisionDigest(gate.trace);
  report.attempted += ticks;
  uint64_t gate_failed = gate.violations.size();
  if (const std::string pin = CheckPinnedDigest(pins, "ctl-replay", options.seed, report.digest);
      !pin.empty()) {
    report.Fail("ctl-replay: " + pin);
    gate_failed = ticks;
  }
  for (const dcat::Violation& v : gate.violations) {
    report.Fail("ctl-replay: invariant " + v.invariant + " at tick " + std::to_string(v.tick) +
                ": " + v.detail);
  }
  if (gate.refused > 0 || gate.apply_failures > 0) {
    report.Fail("ctl-replay: gate episode refused admissions or failed applies");
    gate_failed = ticks;
  }
  report.failed += std::min<uint64_t>(gate_failed, ticks);
  report.notes["write_tick_pct"] =
      std::to_string(100.0 * static_cast<double>(gate.way_change_ticks) / ticks);
  if (options.digest_only) {
    return report;
  }

  std::vector<double> setup_s;
  std::vector<double> tick_us;  // per position, fastest over episodes
  auto check = [&](const ReplayEpisode& ep, const char* what) {
    report.attempted += ticks;
    if (ep.trace_hash != gate.trace_hash || ep.refused > 0 || ep.apply_failures > 0) {
      report.Fail(std::string("ctl-replay: ") + what +
                  " diverged from the gate episode (trace, admissions or applies)");
      report.failed += ticks;
    }
  };
  auto timed_episode = [&]() {
    ReplayEpisode ep = RunReplayEpisode(options.seed, ticks, /*gate=*/false, nullptr);
    check(ep, "timed episode");
    setup_s.push_back(ep.setup_s);
    MergeMin(&tick_us, ep.tick_us);
  };

  if (!options.trace) {
    for (int n = 0; n < EpisodesFor(options.seconds, kReferenceEpisodeSeconds, 5); ++n) {
      timed_episode();
    }
    const double min_s = Sum(tick_us) * 1e-6;
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("ticks_per_s", static_cast<double>(tick_us.size()) / min_s, "1/s");
    report.Add("accesses_per_s", static_cast<double>(gate.l1_references) / min_s, "1/s");
    report.Add("interval_us_p50", Percentile(tick_us, 50), "us");
    report.Add("interval_us_p99", Percentile(tick_us, 99), "us");
    report.Add("receiver_norm_ipc", gate.receiver_norm_ipc, "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.notes["episodes"] = std::to_string(setup_s.size());
    report.notes["intervals_per_episode"] = std::to_string(tick_us.size());
    return report;
  }

  SpanRecorder recorder;
  std::vector<double> traced_us;  // per position, fastest over episodes
  std::vector<double> core_self_us;
  LayerCounts counts;
  const int pairs = EpisodesFor(options.seconds, 2 * kReferenceEpisodeSeconds, 2);
  for (int n = 0; n < pairs; ++n) {
    timed_episode();
    ReplayEpisode ep = RunReplayEpisode(options.seed, ticks, /*gate=*/false, &recorder);
    check(ep, "traced episode");
    MergeMin(&traced_us, ep.tick_us);
    MergeMin(&core_self_us, ep.core_self_us);
    counts = ep.counts;
  }
  AddControlLayerMetrics(recorder, core_self_us, counts, &report);
  report.Add("verify.violations", static_cast<double>(gate.violations.size()), "count");
  report.Add("trace.overhead_pct", OverheadPct(tick_us, traced_us), "%");
  report.notes["spans"] = std::to_string(recorder.spans_opened());
  if (!options.spans_path.empty() &&
      !recorder.WriteJsonl(options.spans_path, "{\"workload\":\"ctl-replay\",\"seed\":" +
                                                   std::to_string(options.seed) + "}")) {
    report.Fail("ctl-replay: cannot write spans to " + options.spans_path);
  }
  CompletePerLayer(&report);
  return report;
}

}  // namespace perfbench
