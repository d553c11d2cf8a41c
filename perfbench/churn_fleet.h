// churn-fleet's input expansion, shared with the benchmark's own tests.
#ifndef PERFBENCH_CHURN_FLEET_H_
#define PERFBENCH_CHURN_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"

namespace perfbench {

// The fleet calls of one episode: one per registered policy, each over a
// disjoint block of RandomScenario seeds derived from (seed, episode) and
// balanced for planned cost (see BalancedBaseSeed).
std::vector<dcat::FleetConfig> ChurnFleetCalls(uint64_t seed, uint64_t episode, bool smoke);
// FNV-1a digest of every shard's Scenario::Describe() line.
std::string ChurnFleetScenarioDigest(const std::vector<dcat::FleetConfig>& calls);

}  // namespace perfbench

#endif  // PERFBENCH_CHURN_FLEET_H_
