// ctl-replay's counter generator, shared with the benchmark's own tests.
#ifndef PERFBENCH_CTL_REPLAY_H_
#define PERFBENCH_CTL_REPLAY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/pqos/pqos.h"
#include "src/sim/perf_counters.h"

namespace perfbench {

// One phase of a replayed tenant: its counter signature and how its LLC
// miss rate falls as it gains ways.
struct ReplayPhase {
  double mem_per_instruction = 0.0;  // L1 references per instruction
  double llc_refs_pki = 0.0;         // LLC references per 1000 instructions
  double miss_at_one_way = 0.0;      // LLC miss rate holding one way
  double miss_floor = 0.0;           // miss rate with unlimited ways
  double ways_scale = 1.0;           // ways over which the miss rate decays
};

struct ReplayTenant {
  std::vector<ReplayPhase> phases;  // cycled through
  uint32_t period = 0;              // ticks per phase; 0 = never switches
  bool receiver_role = false;       // counts toward receiver_norm_ipc
};

// The seeded tenant mix: 15 one-core tenants (the per-tenant COS limit of
// a 16-COS socket). Most hold one phase forever; a few switch between a
// cache-hungry and a compute-bound phase on seeded periods.
std::vector<ReplayTenant> MakeReplayTenants(uint64_t seed);

// Benchmark-local MonitoringProvider that replays the phased generator:
// Advance() computes one interval of counters for every tenant core from
// its current phase and the ways its COS holds on `cat` (closing the
// control loop), and the read methods serve the cumulative values.
class ReplayMonitor : public dcat::MonitoringProvider {
 public:
  ReplayMonitor(std::vector<ReplayTenant> tenants, const dcat::CatController* cat,
                uint64_t seed);

  // Core of tenant i is core i.
  void Advance(uint64_t tick);

  dcat::PerfCounterBlock ReadCounters(uint16_t core) const override;
  uint64_t LlcOccupancyBytes(uint8_t cos) const override;
  uint64_t MemoryBandwidthBytes(uint8_t cos) const override;

  uint64_t l1_references() const { return l1_references_; }

 private:
  std::vector<ReplayTenant> tenants_;
  const dcat::CatController* cat_;
  uint64_t seed_;
  std::vector<dcat::PerfCounterBlock> counters_;
  std::map<uint8_t, uint64_t> mbm_bytes_;
  uint64_t l1_references_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CTL_REPLAY_H_
