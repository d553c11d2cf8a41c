// Shared pieces of the dCat performance benchmark: run options, the result
// record, statistics, the span recorder used by traced runs, the bounded
// trace sink, and the digest gate.
//
// Every workload runs in *episodes*. The first episode of a run is the
// gate episode: it captures the whole JSONL decision trace, rides an
// InvariantChecker, and its ExtractDecisionTrace digest is compared with
// the pinned value. Timed episodes then repeat the same inputs with only a
// bounded, hashing trace sink attached, and each must reproduce the gate
// episode's raw trace hash — so they made exactly the gate's decisions.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;   // pinned digests; empty = no pinned gate
  std::string spans_path;  // traced runs write their spans here at exit
  // Shrinks every workload to a few seconds of work. Set only by the
  // benchmark's own tests; no command-line flag reaches it.
  bool smoke = false;
  // Runs only the first (gate) episode, for pinning its digest.
  bool digest_only = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's outcome. `problems` lists every failed gate; a run is correct
// only when it is empty.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  // Failed operations that are the workload's own output rather than a
  // broken gate (churn-fleet's fuzz findings); counted in `failed`.
  std::vector<std::string> findings;
  std::string digest;  // gate episode's decision digest (hex)
  std::map<std::string, std::string> notes;  // printed, not gated

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& problem) { problems.push_back(problem); }
  bool correct() const { return problems.empty(); }
};

// --- clocks and statistics ---

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
// empty.
double Percentile(std::vector<double> values, double p);
// Folds one episode's per-interval times into `min_us`, keeping for each
// position the fastest observation so far. Every episode of a line-mix or
// ctl-replay run replays the same inputs, so position i is the same
// interval each time; on a shared host whose speed swings by 15% from one
// second to the next, the minimum over repeats is the interval's cost with
// the least interference. An empty `min_us` takes the episode as is.
void MergeMin(std::vector<double>* min_us, const std::vector<double>& episode_us);
double Sum(const std::vector<double>& values);
// Episodes one run makes: `seconds` over the time one episode takes on the
// reference host, rounded, and at least `min_episodes`. It depends on the
// run length alone, never on how fast this run goes, so a per-position
// minimum is always taken over the same number of repeats and a faster
// program gets no extra samples.
int EpisodesFor(double seconds, double reference_episode_s, int min_episodes);
double Median(const std::vector<double>& values);
double PeakRssMb();

// --- digests ---

// FNV-1a over bytes; stable across platforms.
uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 0xcbf29ce484222325ULL);
// A word-at-a-time hash for comparing whole raw traces, several times
// cheaper than FNV-1a per byte. Feeding a byte stream in pieces whose
// sizes are multiples of 8 (all but the last) gives the same value as
// feeding it whole.
uint64_t StreamHash(const char* data, size_t size, uint64_t hash = 0x9e3779b97f4a7c15ULL);
std::string Hex64(uint64_t value);
// FNV-1a digest of ExtractDecisionTrace(jsonl_trace), as 16 hex digits.
std::string DecisionDigest(const std::string& jsonl_trace);

// Pinned decision digests: lines of "<workload> <seed> <digest>"; '#'
// starts a comment. Returns false (with *error) on a malformed line.
using PinTable = std::map<std::pair<std::string, uint64_t>, std::string>;
bool ParsePins(const std::string& text, PinTable* pins, std::string* error);
// The digest gate: empty when `digest` matches the pin for (workload,
// seed) or no pin exists; otherwise a description of the mismatch.
std::string CheckPinnedDigest(const PinTable& pins, const std::string& workload, uint64_t seed,
                              const std::string& digest);

// Stream buffer that keeps no bytes: it counts them and folds them into a
// running StreamHash, in 64 KiB blocks, so a JSONL trace writer attached
// to it costs bounded memory however long the run.
class HashingStreamBuf : public std::streambuf {
 public:
  HashingStreamBuf();
  // Hash of everything written so far (drains the block buffer).
  uint64_t Finish();
  uint64_t bytes() const { return bytes_ + static_cast<uint64_t>(pptr() - pbase()); }

 protected:
  int_type overflow(int_type ch) override;
  int sync() override { return 0; }

 private:
  void Drain();
  std::vector<char> block_;
  uint64_t hash_ = StreamHash(nullptr, 0);
  uint64_t bytes_ = 0;
};

// Trace destination of an episode: the whole text (gate and equivalence
// episodes) or only its running hash (timed episodes, bounded memory). The
// hash is StreamHash of the same bytes either way, so the two compare.
class TraceCapture {
 public:
  explicit TraceCapture(bool keep_text) : keep_text_(keep_text), hashed_(&hash_buf_) {}
  std::ostream* stream() { return keep_text_ ? static_cast<std::ostream*>(&text_) : &hashed_; }
  // Collects the text (empty unless kept), its hash and its size.
  void Finish(std::string* text, uint64_t* hash, uint64_t* bytes);

 private:
  bool keep_text_;
  std::ostringstream text_;
  HashingStreamBuf hash_buf_;
  std::ostream hashed_;
};

// --- spans ---

// Layers the traced run attributes host time to (repo module names).
enum class Layer : uint8_t {
  kInterval,   // one control interval, the root
  kSim,        // Vm::RunUntil
  kCore,       // DcatController::Tick, self time
  kPqosWrite,  // CatController mask/association writes
  kPqosRead,   // CatController reads and MonitoringProvider reads
  kRecovery,   // JournalStorage append/rewrite
  kTelemetry,  // EventSink delivery (JSONL trace writer)
  kFleet,      // RunScenario of one shard in the serial replay
  kMerge,      // FleetResult::MergedTrace
  kCount,
};
const char* LayerName(Layer layer);

// In-memory span recorder. Every span's duration and self time (duration
// minus the time its child spans cover) is aggregated per layer; the first
// `max_kept` spans are also kept verbatim (name, start, end, parent,
// interval id) and written out as JSONL at exit, so memory stays bounded on
// long runs.
class SpanRecorder {
 public:
  struct Span {
    Layer layer;
    uint32_t parent;  // index into spans(), kNoParent for roots
    uint64_t interval;
    int64_t start_ns;
    int64_t end_ns;
  };
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit SpanRecorder(size_t max_kept = 1u << 20);

  void set_interval(uint64_t id) { interval_ = id; }
  // A disabled recorder ignores Begin/End (warm-up intervals are not
  // attributed). Toggle only while no span is open.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void Begin(Layer layer);
  // Closes the innermost open span; returns its self time in ns (0 when
  // disabled).
  int64_t End();

  uint64_t count(Layer layer) const { return count_[static_cast<size_t>(layer)]; }
  int64_t total_ns(Layer layer) const { return total_ns_[static_cast<size_t>(layer)]; }
  int64_t self_ns(Layer layer) const { return self_ns_[static_cast<size_t>(layer)]; }
  uint64_t spans_opened() const { return opened_; }
  const std::vector<Span>& spans() const { return kept_; }
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  struct Open {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    uint32_t kept_index;
  };
  size_t max_kept_;
  bool enabled_ = true;
  uint64_t interval_ = 0;
  uint64_t opened_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  uint64_t count_[static_cast<size_t>(Layer::kCount)] = {};
  int64_t total_ns_[static_cast<size_t>(Layer::kCount)] = {};
  int64_t self_ns_[static_cast<size_t>(Layer::kCount)] = {};
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer) : recorder_(recorder) {
    if (recorder_ != nullptr) {
      recorder_->Begin(layer);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

// Cost of one empty Begin/End pair on this host, in ns (median of a few
// calibration rounds).
double CalibrateSpanCostNs();

// Counts one traced episode of a control-loop workload collects at the
// layer seams (whole episode, so they repeat exactly).
struct LayerCounts {
  uint64_t events = 0;
  uint64_t allocations = 0;
  uint64_t phase_changes = 0;
  uint64_t category_changes = 0;
  uint64_t mask_writes = 0;
  uint64_t pqos_reads = 0;
  uint64_t journal_appends = 0;
  uint64_t journal_bytes = 0;
  uint64_t trace_bytes = 0;
};

// Adds the core, pqos, recovery and telemetry per-layer metrics of a traced
// run. Shares are self time over the summed interval spans; `core_self_us`
// holds DcatController::Tick's self time per measured interval.
void AddControlLayerMetrics(const SpanRecorder& recorder, const std::vector<double>& core_self_us,
                            const LayerCounts& counts, RunReport* report);
// Percentage change of the traced median over the untraced one.
double OverheadPct(const std::vector<double>& untraced, const std::vector<double>& traced);
// The recorder's spans priced at CalibrateSpanCostNs() each, as a
// percentage of `traced_ns`, the host time they were recorded in.
double CalibratedOverheadPct(const SpanRecorder& recorder, double traced_ns);

// --- workloads ---

RunReport RunLineMix(const Options& options, const PinTable& pins);
RunReport RunCtlReplay(const Options& options, const PinTable& pins);
RunReport RunChurnFleet(const Options& options, const PinTable& pins);

// Per-layer metric names every traced run prints (zero where the workload
// does not exercise the layer), in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();
// Fills every per-layer metric not already in `report` with 0.
void CompletePerLayer(RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
