// The benchmark's own tests: its inputs are a pure function of the seed,
// its digest gate fires on a changed decision, and the decorated loop of
// the traced line-mix run reproduces Host::Run's trace.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/churn_fleet.h"
#include "perfbench/ctl_replay.h"
#include "perfbench/line_mix.h"
#include "src/pqos/sim_pqos.h"
#include "src/sim/socket.h"

namespace perfbench {
namespace {

bool SamePhase(const ReplayPhase& a, const ReplayPhase& b) {
  return a.mem_per_instruction == b.mem_per_instruction && a.llc_refs_pki == b.llc_refs_pki &&
         a.miss_at_one_way == b.miss_at_one_way && a.miss_floor == b.miss_floor &&
         a.ways_scale == b.ways_scale;
}

bool SameTenants(const std::vector<ReplayTenant>& a, const std::vector<ReplayTenant>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].period != b[i].period || a[i].receiver_role != b[i].receiver_role ||
        a[i].phases.size() != b[i].phases.size()) {
      return false;
    }
    for (size_t p = 0; p < a[i].phases.size(); ++p) {
      if (!SamePhase(a[i].phases[p], b[i].phases[p])) {
        return false;
      }
    }
  }
  return true;
}

TEST(ReplayGenerator, TenantMixIsAFunctionOfTheSeed) {
  EXPECT_TRUE(SameTenants(MakeReplayTenants(7), MakeReplayTenants(7)));
  EXPECT_FALSE(SameTenants(MakeReplayTenants(7), MakeReplayTenants(8)));
  const std::vector<ReplayTenant> tenants = MakeReplayTenants(7);
  EXPECT_EQ(tenants.size(), 15u);  // one per non-default COS of a 16-COS socket
  EXPECT_EQ(std::count_if(tenants.begin(), tenants.end(),
                          [](const ReplayTenant& t) { return t.period > 0; }),
            3);
}

TEST(ReplayGenerator, CountersRepeatForTheSameSeedAndMasks) {
  dcat::Socket socket(dcat::SocketConfig::XeonE5());
  dcat::SimPqos pqos(&socket);
  ReplayMonitor a(MakeReplayTenants(3), &pqos, 3);
  ReplayMonitor b(MakeReplayTenants(3), &pqos, 3);
  ReplayMonitor other(MakeReplayTenants(4), &pqos, 4);
  for (uint64_t tick = 1; tick <= 500; ++tick) {
    a.Advance(tick);
    b.Advance(tick);
    other.Advance(tick);
  }
  for (uint16_t core = 0; core < 15; ++core) {
    const dcat::PerfCounterBlock x = a.ReadCounters(core);
    const dcat::PerfCounterBlock y = b.ReadCounters(core);
    EXPECT_EQ(x.retired_instructions, y.retired_instructions);
    EXPECT_EQ(x.l1_references, y.l1_references);
    EXPECT_EQ(x.llc_misses, y.llc_misses);
    // Every level's misses stay within its references: the controller
    // would quarantine the sample as garbage otherwise.
    EXPECT_LE(x.l1_misses, x.l1_references);
    EXPECT_LE(x.l2_misses, x.l2_references);
    EXPECT_LE(x.llc_misses, x.llc_references);
  }
  EXPECT_EQ(a.l1_references(), b.l1_references());
  EXPECT_NE(a.l1_references(), other.l1_references());
}

TEST(ChurnFleetInputs, ScenarioListIsAFunctionOfTheSeed) {
  const std::string first = ChurnFleetScenarioDigest(ChurnFleetCalls(5, 0, false));
  EXPECT_EQ(first, ChurnFleetScenarioDigest(ChurnFleetCalls(5, 0, false)));
  EXPECT_NE(first, ChurnFleetScenarioDigest(ChurnFleetCalls(6, 0, false)));
  EXPECT_NE(first, ChurnFleetScenarioDigest(ChurnFleetCalls(5, 1, false)));
}

TEST(ChurnFleetInputs, SeedBlocksAreDisjointAcrossPoliciesAndEpisodes) {
  std::set<uint64_t> seeds;
  size_t total = 0;
  for (uint64_t episode = 0; episode < 4; ++episode) {
    for (const dcat::FleetConfig& config : ChurnFleetCalls(5, episode, false)) {
      EXPECT_LE(config.jobs, 4u);
      for (uint32_t s = 0; s < config.shard_count(); ++s) {
        seeds.insert(config.base_seed + s);
        ++total;
      }
    }
  }
  EXPECT_EQ(seeds.size(), total);
}

TEST(DigestGate, PassesOnThePinAndWithoutOne) {
  const std::string trace = LineMixHostTrace(1, 3);
  const std::string digest = DecisionDigest(trace);
  PinTable pins;
  pins[{"line-mix", 1}] = digest;
  EXPECT_EQ(CheckPinnedDigest(pins, "line-mix", 1, digest), "");
  EXPECT_EQ(CheckPinnedDigest(pins, "line-mix", 2, "0000000000000000"), "");
}

TEST(DigestGate, FiresOnAPerturbedDecision) {
  const std::string trace = LineMixHostTrace(1, 3);
  const std::string digest = DecisionDigest(trace);
  PinTable pins;
  pins[{"line-mix", 1}] = digest;
  // One allocation decision lands one way higher.
  const std::string needle = "\"to_ways\":3";
  const size_t at = trace.find(needle);
  ASSERT_NE(at, std::string::npos);
  std::string perturbed = trace;
  perturbed.replace(at, needle.size(), "\"to_ways\":4");
  const std::string changed = DecisionDigest(perturbed);
  EXPECT_NE(changed, digest);
  EXPECT_NE(CheckPinnedDigest(pins, "line-mix", 1, changed), "");
}

TEST(DigestGate, IgnoresFloatingPointObservables) {
  // The pinned digest covers decisions only (ExtractDecisionTrace), so a
  // simulator change that moves an IPC in the last digit does not trip it.
  const std::string trace = LineMixHostTrace(1, 3);
  const size_t at = trace.find("\"ipc\":");
  ASSERT_NE(at, std::string::npos);
  std::string perturbed = trace;
  perturbed.insert(at + 6, "1");
  EXPECT_EQ(DecisionDigest(perturbed), DecisionDigest(trace));
}

TEST(DigestGate, PinFileParsing) {
  PinTable pins;
  std::string error;
  EXPECT_TRUE(ParsePins("# comment\n\nline-mix 1 0123456789abcdef  # pinned\n", &pins, &error));
  EXPECT_EQ(pins.at({"line-mix", 1}), "0123456789abcdef");
  EXPECT_FALSE(ParsePins("line-mix one 0123456789abcdef\n", &pins, &error));
  EXPECT_FALSE(ParsePins("line-mix 1 0123\n", &pins, &error));
  EXPECT_FALSE(ParsePins("line-mix 1 0123456789abcdef extra\n", &pins, &error));
}

TEST(HashingStreamBuf, MatchesTheHashOfTheKeptText) {
  HashingStreamBuf buf;
  std::ostream out(&buf);
  std::string text;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = "{\"type\":\"tick\",\"tick\":" + std::to_string(i) + "}\n";
    out << line << std::flush;
    text += line;
  }
  EXPECT_EQ(buf.bytes(), text.size());
  EXPECT_EQ(buf.Finish(), StreamHash(text.data(), text.size()));
  EXPECT_NE(StreamHash(text.data(), text.size() - 1), StreamHash(text.data(), text.size()));
}

TEST(SpanRecorder, SelfTimeExcludesChildren) {
  SpanRecorder recorder;
  recorder.Begin(Layer::kInterval);
  recorder.Begin(Layer::kCore);
  recorder.Begin(Layer::kPqosWrite);
  recorder.End();
  const int64_t core_self = recorder.End();
  recorder.End();
  EXPECT_EQ(recorder.count(Layer::kPqosWrite), 1u);
  EXPECT_EQ(core_self, recorder.self_ns(Layer::kCore));
  EXPECT_EQ(recorder.total_ns(Layer::kCore),
            recorder.self_ns(Layer::kCore) + recorder.total_ns(Layer::kPqosWrite));
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[0].parent, SpanRecorder::kNoParent);
  EXPECT_EQ(recorder.spans()[1].parent, 0u);
  EXPECT_EQ(recorder.spans()[2].parent, 1u);
}

// A run's episode count follows from --seconds alone, so a faster program
// never gets more repeats to take its per-position minima over.
TEST(EpisodesFor, DependsOnTheRunLengthOnly) {
  EXPECT_EQ(EpisodesFor(25, 17.0, 2), 2);
  EXPECT_EQ(EpisodesFor(60, 17.0, 2), 4);
  EXPECT_EQ(EpisodesFor(25, 0.5, 5), 50);
  EXPECT_EQ(EpisodesFor(1, 0.5, 5), 5);
  EXPECT_EQ(EpisodesFor(25, 29.0, 1), 1);
}

TEST(LineMix, TracedLoopReproducesHostRun) {
  const uint32_t measured = 30;
  EXPECT_EQ(LineMixTracedLoopTrace(2, measured), LineMixHostTrace(2, measured));
}

// Every workload prints exactly the end-to-end metrics untraced and the
// per-layer metrics traced, and passes its gates, on a smoke-sized run.
void ExpectMetricNames(const RunReport& report, const std::vector<std::string>& names) {
  std::vector<std::string> got;
  for (const Metric& m : report.metrics) {
    got.push_back(m.name);
  }
  std::sort(got.begin(), got.end());
  std::vector<std::string> want = names;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

const std::vector<std::string> kEndToEnd = {"setup_s",         "ticks_per_s",
                                            "accesses_per_s",  "interval_us_p50",
                                            "interval_us_p99", "receiver_norm_ipc",
                                            "peak_rss_mb"};

std::vector<std::string> PerLayerNames() {
  std::vector<std::string> names;
  for (const auto& [name, unit] : PerLayerMetricNames()) {
    names.push_back(name);
  }
  return names;
}

class SmokeRun : public testing::TestWithParam<std::string> {};

TEST_P(SmokeRun, GatesPassAndMetricsAreComplete) {
  Options options;
  options.workload = GetParam();
  options.seed = 9;
  options.seconds = 1;
  options.smoke = true;
  auto run = [&](const Options& o) {
    if (o.workload == "line-mix") {
      return RunLineMix(o, {});
    }
    if (o.workload == "ctl-replay") {
      return RunCtlReplay(o, {});
    }
    return RunChurnFleet(o, {});
  };
  const RunReport plain = run(options);
  EXPECT_TRUE(plain.correct()) << (plain.problems.empty() ? "" : plain.problems.front());
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_GT(plain.attempted, 0u);
  ExpectMetricNames(plain, kEndToEnd);
  for (const Metric& m : plain.metrics) {
    EXPECT_GT(m.value, 0.0) << m.name;
  }
  options.trace = true;
  const RunReport traced = run(options);
  EXPECT_TRUE(traced.correct()) << (traced.problems.empty() ? "" : traced.problems.front());
  EXPECT_EQ(traced.digest, plain.digest);
  ExpectMetricNames(traced, PerLayerNames());
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeRun,
                         testing::Values("line-mix", "ctl-replay", "churn-fleet"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace perfbench
