// line-mix entry points shared with the benchmark's own tests.
#ifndef PERFBENCH_LINE_MIX_H_
#define PERFBENCH_LINE_MIX_H_

#include <cstdint>
#include <string>

namespace perfbench {

// Full JSONL trace of one episode driven through Host::Run / Host::Step.
std::string LineMixHostTrace(uint64_t seed, uint32_t measured);
// Full JSONL trace of one episode of the benchmark's decorated loop.
std::string LineMixTracedLoopTrace(uint64_t seed, uint32_t measured);

}  // namespace perfbench

#endif  // PERFBENCH_LINE_MIX_H_
