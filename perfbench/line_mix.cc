// line-mix: one Xeon E5 socket at line fidelity under max-fairness,
// single-threaded. Almost all host time is Vm::RunUntil (the L1/L2/LLC walk
// and page-table translate); the controller's share is tiny.
//
// Untraced runs drive the program's own Host. Traced runs rebuild the loop
// Host::Step runs at line fidelity from public classes, with the
// benchmark's decorators spliced in, and must reproduce Host::Run's trace.
#include <algorithm>
#include <memory>
#include <optional>

#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "perfbench/line_mix.h"
#include "src/cluster/host.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/core/dcat_controller.h"
#include "src/pqos/sim_pqos.h"
#include "src/recovery/journal.h"
#include "src/telemetry/trace.h"
#include "src/verify/invariant_checker.h"
#include "src/verify/scenario.h"
#include "src/workloads/factory.h"

namespace perfbench {
namespace {

using dcat::PerfCounterBlock;

// Simulated cycles per control interval. The controller consumes rates
// only, so the length sets how much simulation one interval costs. It must
// exceed the cycles of one 50k-instruction scheduling chunk of every tenant
// even while its working set still misses to DRAM: a shorter interval
// leaves intervals with no retired instruction, which read as idle phases
// and make the tenant flap between Donor and Reclaim.
constexpr double kCyclesPerInterval = 5e5;
// Caches start cold; these intervals fill them and let the receiver grow
// to its final allocation. They are untimed and count in setup_s.
constexpr uint32_t kWarmupIntervals = 20;
// Timed seconds of one episode on the 4-core host the benchmark was built
// on (1300 intervals at ~13 ms); sizes a run's fixed episode count.
constexpr double kReferenceEpisodeSeconds = 17.0;

struct TenantPlan {
  dcat::TenantId id;
  const char* spec;
  uint32_t vcpus;
  uint32_t baseline_ways;
};

// Reaches every cache level: an LLC-scale random reader as the receiver
// (the key-value store's Gaussian hot set is about 5 MiB, larger than its
// contract and well inside the LLC), a streaming scanner far larger than
// the LLC, and compute-bound donors. mlr:8M would be the classic receiver,
// but its cold chunks need 3M-cycle intervals, six times the cost of this
// mix per interval.
constexpr dcat::TenantId kReceiver = 1;
constexpr TenantPlan kMix[] = {
    {1, "redis", 2, 2},
    {2, "mload:60M", 1, 2},
    {3, "lookbusy", 1, 2},
    {4, "lookbusy", 1, 2},
};

dcat::HostConfig MakeHostConfig(dcat::JournalStorage* journal) {
  dcat::HostConfig config;
  config.socket = dcat::SocketConfig::XeonE5();
  config.mode = dcat::ManagerMode::kDcat;
  config.dcat.policy = "max-fairness";
  config.cycles_per_interval = kCyclesPerInterval;
  config.journal_storage = journal;
  return config;
}

// Workload and page-table seed of tenant `id` for a run seed.
uint64_t TenantSeed(uint64_t seed, dcat::TenantId id) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + id;
  // Host::TryAddVm replaces seed 1 with its own default; never hand it 1.
  return dcat::SplitMix64(state) | 2;
}

// Enough intervals per episode that p99 has at least ten samples beyond it.
// The receiver keeps every request's latency in a vector that doubles near
// 4.2M samples, about 1000 intervals in; 1300 keeps every seed past that
// step, so peak_rss_mb does not split the seeds into two groups.
uint32_t MeasuredIntervals(bool smoke) { return smoke ? 30 : 1300; }

PerfCounterBlock SumCounters(const dcat::Socket& socket) {
  PerfCounterBlock sum;
  for (uint16_t c = 0; c < socket.num_cores(); ++c) {
    sum += socket.core(c).counters();
  }
  return sum;
}

// What one episode measured. Counts cover the whole episode (warm-up
// included) so they repeat exactly; times cover the measured intervals.
struct Episode {
  double setup_s = 0.0;
  std::vector<double> interval_us;
  std::vector<double> core_self_us;  // traced episodes only
  PerfCounterBlock measured;         // summed over cores, measured window
  std::string trace;                 // full JSONL, when captured
  uint64_t trace_hash = 0;
  uint64_t refused = 0;
  uint64_t apply_failures = 0;
  std::vector<dcat::Violation> violations;
  double receiver_norm_ipc = 0.0;
  LayerCounts counts;
};

Episode RunHostEpisode(uint64_t seed, uint32_t measured) {
  Episode ep;
  const int64_t start = NowNs();
  dcat::MemoryJournalStorage journal;
  dcat::Host host(MakeHostConfig(&journal));
  TraceCapture capture(/*keep_text=*/true);
  dcat::JsonlTraceWriter writer(capture.stream());
  host.AddEventSink(&writer);
  const dcat::DcatConfig dcat_config = MakeHostConfig(nullptr).dcat;
  dcat::InvariantOptions options;
  options.total_ways = host.socket().num_ways();
  options.min_ways = dcat_config.min_ways;
  options.ipc_improvement_thr = dcat_config.ipc_improvement_thr;
  dcat::InvariantChecker checker(options);
  checker.AttachController(host.dcat(), &host.pqos());
  checker.set_metrics(&host.dcat()->metrics());
  host.AddEventSink(&checker);
  ReceiverIpcSink receivers({kReceiver}, kWarmupIntervals + 1);
  host.AddEventSink(&receivers);
  for (const TenantPlan& plan : kMix) {
    const uint64_t tenant_seed = TenantSeed(seed, plan.id);
    dcat::Vm* vm = host.TryAddVm(dcat::VmConfig{.id = plan.id,
                                                .name = plan.spec,
                                                .vcpus = plan.vcpus,
                                                .baseline_ways = plan.baseline_ways,
                                                .seed = tenant_seed},
                                 dcat::MakeWorkload(plan.spec, tenant_seed));
    if (vm == nullptr) {
      ++ep.refused;
    } else {
      checker.RegisterTenant(plan.id, plan.baseline_ways);
    }
  }
  host.Run(kWarmupIntervals);
  ep.setup_s = static_cast<double>(NowNs() - start) * 1e-9;

  const PerfCounterBlock before = SumCounters(host.socket());
  ep.interval_us.reserve(measured);
  for (uint32_t i = 0; i < measured; ++i) {
    const int64_t t0 = NowNs();
    host.Step();
    ep.interval_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  ep.measured = SumCounters(host.socket()) - before;
  checker.Finish();
  ep.violations = checker.violations();
  capture.Finish(&ep.trace, &ep.trace_hash, &ep.counts.trace_bytes);
  ep.apply_failures = host.dcat()->metrics().counter("faults.apply_failures").value();
  ep.receiver_norm_ipc = receivers.mean();
  return ep;
}

// The loop Host::Step runs at line fidelity (VMs run to the interval
// boundary in admission order, the socket closes the interval, the
// controller ticks), built from public classes with every layer seam
// decorated. Admission mirrors Host::TryAddVm: one fresh core per vCPU in
// order, the same VM seeds.
Episode RunTracedEpisode(uint64_t seed, uint32_t measured, bool keep_trace,
                         SpanRecorder* recorder) {
  Episode ep;
  const int64_t start = NowNs();
  recorder->set_enabled(false);
  const dcat::HostConfig config = MakeHostConfig(nullptr);
  dcat::Socket socket(config.socket);
  dcat::SimPqos pqos(&socket);
  TimedCat cat(&pqos, recorder);
  TimedMonitor monitor(&pqos, recorder);
  dcat::DcatController controller(&cat, &monitor, config.dcat);
  dcat::MemoryJournalStorage memory;
  TimedJournalStorage journal_storage(&memory, recorder);
  dcat::JournalWriter journal(&journal_storage);
  journal.set_metrics(&controller.metrics());
  controller.AttachJournal(&journal);
  TraceCapture capture(keep_trace);
  dcat::JsonlTraceWriter writer(capture.stream());
  CountingSink sink(&writer, recorder);
  controller.AddEventSink(&sink);

  std::vector<std::unique_ptr<dcat::Vm>> vms;
  uint16_t next_core = 0;
  for (const TenantPlan& plan : kMix) {
    const uint64_t tenant_seed = TenantSeed(seed, plan.id);
    std::vector<uint16_t> cores;
    for (uint32_t v = 0; v < plan.vcpus; ++v) {
      cores.push_back(static_cast<uint16_t>(next_core + v));
    }
    auto vm = std::make_unique<dcat::Vm>(dcat::VmConfig{.id = plan.id,
                                                        .name = plan.spec,
                                                        .vcpus = plan.vcpus,
                                                        .baseline_ways = plan.baseline_ways,
                                                        .seed = tenant_seed},
                                         dcat::MakeWorkload(plan.spec, tenant_seed), &socket,
                                         cores);
    if (controller.AddTenant(vm->tenant_spec()) != dcat::AdmitStatus::kOk) {
      ++ep.refused;
      continue;
    }
    next_core = static_cast<uint16_t>(next_core + plan.vcpus);
    vms.push_back(std::move(vm));
  }

  PerfCounterBlock before;
  ep.interval_us.reserve(measured);
  ep.core_self_us.reserve(measured);
  for (uint32_t i = 1; i <= kWarmupIntervals + measured; ++i) {
    if (i == kWarmupIntervals + 1) {
      ep.setup_s = static_cast<double>(NowNs() - start) * 1e-9;
      before = SumCounters(socket);
      recorder->set_enabled(true);
    }
    recorder->set_interval(i);
    const int64_t t0 = NowNs();
    recorder->Begin(Layer::kInterval);
    const double target = static_cast<double>(i) * config.cycles_per_interval;
    for (auto& vm : vms) {
      ScopedSpan span(recorder, Layer::kSim);
      vm->RunUntil(target);
    }
    socket.AdvanceInterval(config.cycles_per_interval);
    recorder->Begin(Layer::kCore);
    controller.Tick();
    const int64_t core_self = recorder->End();
    recorder->End();
    if (i > kWarmupIntervals) {
      ep.interval_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      ep.core_self_us.push_back(static_cast<double>(core_self) * 1e-3);
    }
  }
  recorder->set_enabled(false);
  ep.measured = SumCounters(socket) - before;
  capture.Finish(&ep.trace, &ep.trace_hash, &ep.counts.trace_bytes);
  ep.apply_failures = controller.metrics().counter("faults.apply_failures").value();
  ep.counts.events = sink.events();
  ep.counts.allocations = sink.allocations();
  ep.counts.phase_changes = sink.phase_changes();
  ep.counts.category_changes = sink.category_changes();
  ep.counts.mask_writes = cat.mask_writes();
  ep.counts.pqos_reads = cat.reads() + monitor.reads();
  ep.counts.journal_appends = journal_storage.appends();
  ep.counts.journal_bytes = journal_storage.bytes();
  return ep;
}

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// Gates every episode shares: the same raw trace as the run's first
// episode `gate` (hence the same decisions), no refused admission, no
// failed apply. Returns the number of failed operations (all of the
// episode's intervals when any gate fails).
uint64_t CheckEpisode(const Episode& ep, const Episode& gate, const char* what,
                      uint32_t intervals, RunReport* report) {
  std::vector<std::string> problems;
  if (ep.trace_hash != gate.trace_hash) {
    problems.push_back(std::string(what) + " trace differs from the first episode's");
  }
  if (ep.refused > 0) {
    problems.push_back(std::string(what) + " refused " + std::to_string(ep.refused) +
                       " planned admissions");
  }
  if (ep.apply_failures > 0) {
    problems.push_back(std::string(what) + " had " + std::to_string(ep.apply_failures) +
                       " failed mask applies");
  }
  for (const std::string& p : problems) {
    report->Fail("line-mix: " + p);
  }
  return problems.empty() ? 0 : intervals;
}

}  // namespace

std::string LineMixHostTrace(uint64_t seed, uint32_t measured) {
  return RunHostEpisode(seed, measured).trace;
}

std::string LineMixTracedLoopTrace(uint64_t seed, uint32_t measured) {
  SpanRecorder recorder(0);
  return RunTracedEpisode(seed, measured, /*keep_trace=*/true, &recorder).trace;
}

RunReport RunLineMix(const Options& options, const PinTable& pins) {
  RunReport report;
  const uint32_t measured = MeasuredIntervals(options.smoke);
  const uint32_t episode_intervals = kWarmupIntervals + measured;

  // Every Host episode carries the invariant checker and the whole trace:
  // on this workload their cost is far below the simulation's. The first
  // episode's decision digest is the pinned one; every later episode must
  // reproduce its trace byte for byte.
  std::optional<Episode> first;
  std::vector<double> setup_s;
  std::vector<double> interval_us;  // per position, fastest over episodes
  auto host_episode = [&]() {
    Episode ep = RunHostEpisode(options.seed, measured);
    report.attempted += episode_intervals;
    uint64_t failed = 0;
    for (const dcat::Violation& v : ep.violations) {
      report.Fail("line-mix: invariant " + v.invariant + " at tick " + std::to_string(v.tick) +
                  ": " + v.detail);
      ++failed;
    }
    if (!first.has_value()) {
      report.digest = DecisionDigest(ep.trace);
      if (const std::string pin =
              CheckPinnedDigest(pins, "line-mix", options.seed, report.digest);
          !pin.empty()) {
        report.Fail("line-mix: " + pin);
        failed = episode_intervals;
      }
      if (ep.receiver_norm_ipc <= 0.0) {
        report.Fail("line-mix: the receiver never established a phase baseline");
      }
    }
    failed = std::max(failed, CheckEpisode(ep, first.has_value() ? *first : ep, "Host episode",
                                           episode_intervals, &report));
    report.failed += std::min<uint64_t>(failed, episode_intervals);
    setup_s.push_back(ep.setup_s);
    MergeMin(&interval_us, ep.interval_us);
    if (!first.has_value()) {
      first = std::move(ep);
    }
  };

  if (options.digest_only) {
    host_episode();
    return report;
  }
  if (!options.trace) {
    for (int n = 0; n < EpisodesFor(options.seconds, kReferenceEpisodeSeconds, 2); ++n) {
      host_episode();
    }
    const double min_s = Sum(interval_us) * 1e-6;
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("ticks_per_s", static_cast<double>(interval_us.size()) / min_s, "1/s");
    report.Add("accesses_per_s", static_cast<double>(first->measured.l1_references) / min_s,
               "1/s");
    report.Add("interval_us_p50", Percentile(interval_us, 50), "us");
    report.Add("interval_us_p99", Percentile(interval_us, 99), "us");
    report.Add("receiver_norm_ipc", first->receiver_norm_ipc, "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.notes["episodes"] = std::to_string(setup_s.size());
    report.notes["intervals_per_episode"] = std::to_string(interval_us.size());
    return report;
  }

  // Traced run: one Host episode (the gate, and the trace the decorated
  // loop must reproduce), then the decorated-loop episodes.
  host_episode();
  const Episode& gate = *first;
  SpanRecorder recorder;
  std::vector<double> core_self_us;
  uint64_t traced_accesses = 0;
  std::optional<Episode> first_traced;
  for (int n = 0; n < EpisodesFor(options.seconds, kReferenceEpisodeSeconds, 2); ++n) {
    const bool keep_trace = !first_traced.has_value();
    Episode ep = RunTracedEpisode(options.seed, measured, keep_trace, &recorder);
    report.attempted += episode_intervals;
    report.failed += CheckEpisode(ep, gate, "traced loop", episode_intervals, &report);
    if (keep_trace && DecisionDigest(ep.trace) != report.digest) {
      report.Fail("line-mix: traced loop's decision trace differs from Host::Run's\n" +
                  dcat::DescribeTraceDivergence(dcat::ExtractDecisionTrace(gate.trace),
                                                dcat::ExtractDecisionTrace(ep.trace)));
      report.failed += episode_intervals;
    }
    MergeMin(&core_self_us, ep.core_self_us);
    traced_accesses += ep.measured.l1_references;
    if (keep_trace) {
      first_traced = std::move(ep);
    }
  }
  const double interval_ns = static_cast<double>(recorder.total_ns(Layer::kInterval));
  const double sim_ns = static_cast<double>(recorder.self_ns(Layer::kSim));
  report.Add("sim.run_us",
             sim_ns * 1e-3 / static_cast<double>(recorder.count(Layer::kInterval)), "us");
  report.Add("sim.ns_per_access", sim_ns / static_cast<double>(traced_accesses), "ns");
  report.Add("sim.share_pct", interval_ns > 0 ? 100.0 * sim_ns / interval_ns : 0.0, "%");
  report.Add("sim.l1_miss_ratio", Ratio(gate.measured.l1_misses, gate.measured.l1_references),
             "ratio");
  report.Add("sim.l2_miss_ratio", Ratio(gate.measured.l2_misses, gate.measured.l2_references),
             "ratio");
  report.Add("sim.llc_miss_ratio",
             Ratio(gate.measured.llc_misses, gate.measured.llc_references), "ratio");
  AddControlLayerMetrics(recorder, core_self_us, first_traced->counts, &report);
  report.Add("verify.violations", static_cast<double>(gate.violations.size()), "count");
  // Host::Step and the decorated loop differ in more than the spans (Host
  // episodes also carry the invariant checker), so comparing their times
  // would not isolate the spans' cost; the calibrated estimate does.
  report.Add("trace.overhead_pct", CalibratedOverheadPct(recorder, interval_ns), "%");
  report.notes["spans"] = std::to_string(recorder.spans_opened());
  if (!options.spans_path.empty() &&
      !recorder.WriteJsonl(options.spans_path, "{\"workload\":\"line-mix\",\"seed\":" +
                                                   std::to_string(options.seed) + "}")) {
    report.Fail("line-mix: cannot write spans to " + options.spans_path);
  }
  CompletePerLayer(&report);
  return report;
}

}  // namespace perfbench
