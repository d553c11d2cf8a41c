// churn-fleet: the fresh-seed fuzz campaign's traffic. One RunFleet call
// per registered policy, each over its own block of RandomScenario seeds
// (churn, 18-35 intervals, Xeon E5 and Xeon-D) at hybrid fidelity, with the
// invariant checker RunScenario always carries, on at most min(4, nproc)
// jobs. Short, churny scenarios keep demoting the hybrid engine to line
// simulation and keep the controller writing.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/churn_fleet.h"
#include "src/fleet/fleet.h"
#include "src/policies/registry.h"

namespace perfbench {
namespace {

constexpr size_t kMaxJobs = 4;
// Seconds of one episode's three fleet calls on the 4-core host the
// benchmark was built on; sizes a run's fixed episode count.
constexpr double kReferenceEpisodeSeconds = 29.0;
// Set-ups timed per shard; the fastest counts, as the one least disturbed
// by the host.
constexpr int kSetupRepeats = 3;

// Worker threads per fleet call: min(4, nproc).
size_t FleetJobs() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, kMaxJobs);
}

// Shards (scenarios) per fleet call; three calls make one ~30 s episode on
// four cores.
uint32_t ShardsPerCall(bool smoke) { return smoke ? 2 : 72; }

struct ReceiverRows {
  double norm_ipc_sum = 0.0;
  uint64_t rows = 0;
};

// Scans one JSONL trace for Receiver rows' norm_ipc (simulated).
void AddReceiverRows(const std::string& trace, ReceiverRows* out) {
  static const std::string kNeedle = "\"category\":\"Receiver\"";
  static const std::string kField = "\"norm_ipc\":";
  static const std::string kTick = "\"type\":\"tick\"";
  size_t line_start = 0;
  while (line_start < trace.size()) {
    size_t line_end = trace.find('\n', line_start);
    if (line_end == std::string::npos) {
      line_end = trace.size();
    }
    const size_t hit = trace.find(kNeedle, line_start);
    const size_t tick = trace.find(kTick, line_start);
    if (hit != std::string::npos && hit < line_end && tick != std::string::npos &&
        tick < line_end) {
      const size_t field = trace.find(kField, line_start);
      if (field != std::string::npos && field < line_end) {
        const double v = std::strtod(trace.c_str() + field + kField.size(), nullptr);
        if (v > 0.0) {
          out->norm_ipc_sum += v;
          ++out->rows;
        }
      }
    }
    line_start = line_end + 1;
  }
}

// Planned admissions of one scenario: its initial tenants plus churn adds.
uint64_t PlannedAdmissions(const dcat::Scenario& scenario) {
  uint64_t planned = scenario.initial.size();
  for (const dcat::ChurnEvent& e : scenario.churn) {
    if (!e.swap && e.add) {
      ++planned;
    }
  }
  return planned;
}

// Failed scenarios of one fleet call: invariant violations, failed applies,
// or admissions the scenario planned but the controller refused. They are
// the fuzz traffic's findings: each counts as a failed operation and is
// reported with its replay seed, but only the benchmark's own gates
// (digests, determinism, serial-replay equivalence) make a run incorrect.
uint64_t FailedScenarios(const dcat::FleetConfig& config, const dcat::FleetResult& result,
                         RunReport* report) {
  uint64_t failed = 0;
  for (uint32_t s = 0; s < result.shards.size(); ++s) {
    const dcat::ScenarioResult& r = result.shards[s].result;
    const uint64_t planned = PlannedAdmissions(dcat::FleetShardScenario(config, s));
    const uint64_t admitted = r.metrics.counters().count("controller.admissions")
                                  ? r.metrics.counters().at("controller.admissions").value()
                                  : 0;
    const uint64_t apply_failures =
        r.metrics.counters().count("faults.apply_failures")
            ? r.metrics.counters().at("faults.apply_failures").value()
            : 0;
    if (r.ok() && admitted == planned && apply_failures == 0) {
      continue;
    }
    ++failed;
    std::string why = std::to_string(r.violations.size()) + " violations, " +
                      std::to_string(planned - std::min(planned, admitted)) +
                      " refused admissions, " + std::to_string(apply_failures) +
                      " failed applies";
    if (!r.violations.empty()) {
      why += "; first: " + r.violations.front().invariant + ": " + r.violations.front().detail;
    }
    report->findings.push_back("churn-fleet: dcat_fuzz --seed=" +
                               std::to_string(result.shards[s].seed) + " --policy=" +
                               config.policy + " --fidelity=hybrid: " + why);
  }
  return failed;
}

// Host milliseconds one tenant costs per interval, by workload spec, fitted
// to serial RunScenario times of 240 random scenarios on a 4-core x86
// container (R^2 0.9 on the held-out half). Only steers which seed blocks a
// run uses, so a stale weight skews no metric.
double TenantIntervalCostMs(const std::string& spec) {
  static const std::map<std::string, double> kCostMs = {
      {"idle", 0.4},         {"lookbusy", 1.4},      {"mload:30M", 6.3},   {"mload:60M", 6.9},
      {"mlr:4M", 6.1},       {"mlr:8M", 4.7},        {"mlr:12M", 4.3},     {"mlr:16M", 4.7},
      {"phased-mload", 6.1}, {"phased-mlr", 3.7},    {"redis", 11.9},      {"spec:lbm", 6.7},
      {"spec:libquantum", 9.1}, {"spec:mcf", 6.4},   {"spec:omnetpp", 4.9}, {"spec:povray", 11.4},
  };
  const auto it = kCostMs.find(spec);
  return it == kCostMs.end() ? 6.0 : it->second;
}

// Planned host cost of one scenario: the cost of every tenant-interval it
// schedules, following admissions, evictions and workload swaps.
double PlannedCostMs(const dcat::Scenario& scenario) {
  std::map<dcat::TenantId, std::pair<std::string, uint32_t>> active;  // spec, since
  double cost = 0.0;
  auto retire = [&](dcat::TenantId id, uint32_t at) {
    const auto it = active.find(id);
    if (it != active.end()) {
      cost += TenantIntervalCostMs(it->second.first) * (at - it->second.second);
      active.erase(it);
    }
  };
  for (const dcat::TenantSetup& t : scenario.initial) {
    active[t.id] = {t.workload, 0};
  }
  for (const dcat::ChurnEvent& e : scenario.churn) {
    if (e.swap) {
      if (active.count(e.tenant.id)) {
        retire(e.tenant.id, e.interval);
        active[e.tenant.id] = {e.tenant.workload, e.interval};
      }
    } else if (e.add) {
      active[e.tenant.id] = {e.tenant.workload, e.interval};
    } else {
      retire(e.remove_id, e.interval);
    }
  }
  while (!active.empty()) {
    retire(active.begin()->first, scenario.intervals);
  }
  return cost;
}

// Candidate seed blocks per fleet call.
constexpr uint64_t kCandidateBlocks = 48;

// The scenario mix's cost per interval and machine share swing widely from
// one 16-seed block to the next, and with them every throughput figure. So
// each fleet call runs the one block, of kCandidateBlocks derived from
// `stream`, whose planned cost per interval and Xeon E5 count lie closest
// to the candidates' medians: the run's seed still picks the scenarios,
// but every run gets a mix of the same weight.
uint64_t BalancedBaseSeed(uint64_t stream, uint32_t shards) {
  std::vector<double> cost_per_interval(kCandidateBlocks);
  std::vector<double> xeon_e5(kCandidateBlocks);
  std::vector<uint64_t> base(kCandidateBlocks);
  for (uint64_t c = 0; c < kCandidateBlocks; ++c) {
    base[c] = 1 + (stream * kCandidateBlocks + c) * shards;
    double cost = 0.0;
    double intervals = 0.0;
    for (uint32_t s = 0; s < shards; ++s) {
      const dcat::Scenario scenario = dcat::RandomScenario(base[c] + s);
      cost += PlannedCostMs(scenario);
      intervals += scenario.intervals;
      xeon_e5[c] += scenario.machine == "xeon-e5" ? 1.0 : 0.0;
    }
    cost_per_interval[c] = cost / intervals;
  }
  const double cost_median = Median(cost_per_interval);
  const double e5_median = Median(xeon_e5);
  uint64_t best = 0;
  double best_score = 0.0;
  for (uint64_t c = 0; c < kCandidateBlocks; ++c) {
    const double score = std::abs(cost_per_interval[c] - cost_median) / cost_median +
                         std::abs(xeon_e5[c] - e5_median) / shards;
    if (c == 0 || score < best_score) {
      best = c;
      best_score = score;
    }
  }
  return base[best];
}

// The program's own set-up of one shard, in seconds: expanding its
// scenario and running RunScenario through the initial admissions with no
// interval (Host, socket, controller, checker and the tenants' workloads).
// Sets *ok to false when that set-up-only run reports a violation.
double ShardSetupSeconds(const dcat::FleetConfig& config, uint32_t shard, bool* ok) {
  const int64_t start = NowNs();
  dcat::Scenario scenario = dcat::FleetShardScenario(config, shard);
  scenario.intervals = 0;
  scenario.churn.clear();
  const dcat::ScenarioResult result =
      dcat::RunScenario(scenario, dcat::FleetShardRunOptions(config, shard));
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  *ok = result.ok();
  return seconds;
}

}  // namespace

std::vector<dcat::FleetConfig> ChurnFleetCalls(uint64_t seed, uint64_t episode, bool smoke) {
  const std::vector<std::string> policies = dcat::PolicyRegistry::Global().Names();
  const uint32_t shards = ShardsPerCall(smoke);
  std::vector<dcat::FleetConfig> calls;
  for (size_t p = 0; p < policies.size(); ++p) {
    dcat::FleetConfig config;
    config.hosts = shards;
    config.sockets_per_host = 1;
    config.jobs = FleetJobs();
    config.base_seed = BalancedBaseSeed(seed * 1'000'003ULL + episode * policies.size() + p,
                                        shards);
    config.policy = policies[p];
    config.fidelity.mode = dcat::FidelityMode::kHybrid;
    config.mix = dcat::FleetConfig::Mix::kRandom;
    calls.push_back(config);
  }
  return calls;
}

std::string ChurnFleetScenarioDigest(const std::vector<dcat::FleetConfig>& calls) {
  uint64_t hash = Fnv1a("");
  for (const dcat::FleetConfig& config : calls) {
    for (uint32_t s = 0; s < config.shard_count(); ++s) {
      hash = Fnv1a(config.policy + ' ' + dcat::FleetShardScenario(config, s).Describe() + '\n',
                   hash);
    }
  }
  return Hex64(hash);
}

RunReport RunChurnFleet(const Options& options, const PinTable& pins) {
  RunReport report;
  std::vector<double> setup_s;  // per fleet call, summed over its shards
  std::vector<double> call_interval_us;  // jobs × wall / intervals, per call
  double measured_s = 0.0;
  uint64_t ticks = 0;
  uint64_t accesses = 0;
  ReceiverRows receivers;
  // Episode 0 is the gate: its decision digest is pinned. A traced run
  // replays the shards of its first fleet call serially.
  std::optional<dcat::FleetConfig> replay_config;
  std::optional<dcat::FleetResult> replay_pooled;
  double replay_wall = 0.0;

  const bool timed = !options.trace && !options.digest_only;
  const int episodes = timed ? EpisodesFor(options.seconds, kReferenceEpisodeSeconds, 1) : 1;
  for (uint64_t episode = 0; episode < static_cast<uint64_t>(episodes); ++episode) {
    // Choosing the episode's seed blocks is the benchmark's own work, not
    // the program's: it stays out of setup_s. It runs twice, and the two
    // expansions must agree.
    const std::vector<dcat::FleetConfig> calls =
        ChurnFleetCalls(options.seed, episode, options.smoke);
    if (ChurnFleetScenarioDigest(ChurnFleetCalls(options.seed, episode, options.smoke)) !=
        ChurnFleetScenarioDigest(calls)) {
      report.Fail("churn-fleet: the scenario list differs between two expansions");
    }
    std::string digests;
    for (const dcat::FleetConfig& config : calls) {
      if (timed) {
        // Summed over the call's shards: the block balancing holds the
        // Xeon E5 / Xeon-D split of a call steady, not of a single shard.
        setup_s.push_back(0.0);
        for (uint32_t s = 0; s < config.shard_count(); ++s) {
          double fastest = 0.0;
          for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
            bool ok = true;
            const double seconds = ShardSetupSeconds(config, s, &ok);
            fastest = repeat == 0 ? seconds : std::min(fastest, seconds);
            if (!ok) {
              report.Fail("churn-fleet: the set-up-only run of policy " + config.policy +
                          " shard " + std::to_string(s) + " reported a violation");
            }
          }
          setup_s.back() += fastest;
        }
      }
      const int64_t t0 = NowNs();
      dcat::FleetResult result = dcat::RunFleet(config);
      const double wall = static_cast<double>(NowNs() - t0) * 1e-9;
      measured_s += wall;
      ticks += result.ticks_total;
      accesses += result.accesses_total;
      report.attempted += result.shards.size();
      report.failed += FailedScenarios(config, result, &report);
      call_interval_us.push_back(wall * 1e6 * static_cast<double>(config.jobs) /
                                 static_cast<double>(std::max<uint64_t>(result.ticks_total, 1)));
      for (const dcat::FleetShardReport& shard : result.shards) {
        AddReceiverRows(shard.result.trace, &receivers);
      }
      if (episode == 0) {
        for (const dcat::FleetShardReport& shard : result.shards) {
          digests += DecisionDigest(shard.result.trace);
        }
        if (options.trace && !replay_pooled.has_value()) {
          replay_config = config;
          replay_wall = wall;
          replay_pooled = std::move(result);
        }
      }
    }
    if (episode == 0) {
      report.digest = Hex64(Fnv1a(digests));
      if (const std::string pin =
              CheckPinnedDigest(pins, "churn-fleet", options.seed, report.digest);
          !pin.empty()) {
        report.Fail("churn-fleet: " + pin);
        report.failed = report.attempted;
      }
    }
  }
  if (options.digest_only) {
    return report;
  }
  const double receiver_norm_ipc =
      receivers.rows > 0 ? receivers.norm_ipc_sum / static_cast<double>(receivers.rows) : 0.0;
  if (receiver_norm_ipc <= 0.0) {
    report.Fail("churn-fleet: no tick row in the Receiver category");
  }

  if (!options.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("ticks_per_s", static_cast<double>(ticks) / measured_s, "1/s");
    report.Add("accesses_per_s", static_cast<double>(accesses) / measured_s, "1/s");
    report.Add("interval_us_p50", Percentile(call_interval_us, 50), "us");
    report.Add("interval_us_p99", Percentile(call_interval_us, 99), "us");
    report.Add("receiver_norm_ipc", receiver_norm_ipc, "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.notes["scenarios"] = std::to_string(report.attempted);
    report.notes["jobs"] = std::to_string(FleetJobs());
    return report;
  }

  // Traced run: replay every shard of the first fleet call serially
  // through RunScenario(FleetShardScenario, FleetShardRunOptions), which
  // must reproduce the pooled shard's trace byte for byte, then time the
  // merge. One call keeps the serial replay near a minute on 4 cores.
  SpanRecorder recorder;
  std::vector<double> shard_s;
  uint64_t trace_lines = 0;
  uint64_t trace_bytes = 0;
  uint64_t allocations = 0;
  uint64_t phase_changes = 0;
  uint64_t category_changes = 0;
  uint64_t violations = 0;
  uint64_t fallbacks = 0;
  double covered_ticks = 0.0;
  uint64_t shard_ticks = 0;
  auto count_type = [](const std::string& trace, const char* type) {
    const std::string needle = std::string("{\"type\":\"") + type + "\"";
    uint64_t n = 0;
    for (size_t at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  const dcat::FleetConfig& config = *replay_config;
  const dcat::FleetResult& pooled = *replay_pooled;
  for (uint32_t s = 0; s < config.shard_count(); ++s) {
    recorder.set_interval(s);
    const int64_t t0 = NowNs();
    recorder.Begin(Layer::kFleet);
    const dcat::ScenarioResult serial = dcat::RunScenario(dcat::FleetShardScenario(config, s),
                                                          dcat::FleetShardRunOptions(config, s));
    recorder.End();
    shard_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    const dcat::ScenarioResult& r = pooled.shards[s].result;
    if (serial.trace != r.trace) {
      report.Fail("churn-fleet: serial replay of policy " + config.policy + " seed " +
                  std::to_string(pooled.shards[s].seed) + " differs from the pooled shard: " +
                  dcat::DescribeTraceDivergence(r.trace, serial.trace));
      ++report.failed;
    }
    trace_bytes += r.trace.size();
    trace_lines += static_cast<uint64_t>(std::count(r.trace.begin(), r.trace.end(), '\n'));
    allocations += count_type(r.trace, "allocation");
    phase_changes += count_type(r.trace, "phase_change");
    category_changes += count_type(r.trace, "category_change");
    violations += r.violations.size();
    covered_ticks += r.analytic_coverage * static_cast<double>(r.ticks);
    shard_ticks += r.ticks;
    if (r.metrics.counters().count("sim.fallback_total")) {
      fallbacks += r.metrics.counters().at("sim.fallback_total").value();
    }
  }
  recorder.Begin(Layer::kMerge);
  const std::string merged = pooled.MergedTrace();
  recorder.End();
  report.notes["merged_trace_bytes"] = std::to_string(merged.size());
  const double shard_sum = Sum(shard_s);
  const double shard_mean = shard_sum / static_cast<double>(shard_s.size());
  const double shard_max = *std::max_element(shard_s.begin(), shard_s.end());
  report.Add("sim.analytic_coverage_pct",
             shard_ticks > 0 ? 100.0 * covered_ticks / static_cast<double>(shard_ticks) : 0.0, "%");
  report.Add("sim.fallbacks", static_cast<double>(fallbacks), "count");
  report.Add("core.allocations", static_cast<double>(allocations), "count");
  report.Add("core.phase_changes", static_cast<double>(phase_changes), "count");
  report.Add("core.category_changes", static_cast<double>(category_changes), "count");
  report.Add("telemetry.events", static_cast<double>(trace_lines), "count");
  report.Add("telemetry.trace_bytes", static_cast<double>(trace_bytes), "bytes");
  report.Add("verify.violations", static_cast<double>(violations), "count");
  report.Add("fleet.shard_s_p50", Percentile(shard_s, 50), "s");
  report.Add("fleet.shard_s_max", shard_max, "s");
  report.Add("fleet.imbalance", shard_mean > 0 ? shard_max / shard_mean : 0.0, "ratio");
  report.Add("fleet.pool_efficiency",
             shard_sum / (replay_wall * static_cast<double>(config.jobs)), "ratio");
  report.Add("fleet.merge_ms", static_cast<double>(recorder.total_ns(Layer::kMerge)) * 1e-6,
             "ms");
  // Each shard carries one span; the overhead is their calibrated cost
  // over the replay's time.
  report.Add("trace.overhead_pct", CalibratedOverheadPct(recorder, shard_sum * 1e9), "%");
  report.notes["scenarios"] = std::to_string(shard_s.size());
  report.notes["jobs"] = std::to_string(FleetJobs());
  if (!options.spans_path.empty() &&
      !recorder.WriteJsonl(options.spans_path, "{\"workload\":\"churn-fleet\",\"seed\":" +
                                                   std::to_string(options.seed) + "}")) {
    report.Fail("churn-fleet: cannot write spans to " + options.spans_path);
  }
  CompletePerLayer(&report);
  return report;
}

}  // namespace perfbench
