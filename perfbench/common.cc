#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench/bench.h"
#include "src/telemetry/trace.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void MergeMin(std::vector<double>* min_us, const std::vector<double>& episode_us) {
  if (min_us->empty()) {
    *min_us = episode_us;
    return;
  }
  for (size_t i = 0; i < min_us->size() && i < episode_us.size(); ++i) {
    (*min_us)[i] = std::min((*min_us)[i], episode_us[i]);
  }
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum;
}

int EpisodesFor(double seconds, double reference_episode_s, int min_episodes) {
  return std::max(min_episodes, static_cast<int>(std::lround(seconds / reference_episode_s)));
}

double Median(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t StreamHash(const char* data, size_t size, uint64_t hash) {
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    hash = (hash ^ word) * 0xbf58476d1ce4e5b9ULL;
    hash ^= hash >> 31;
  }
  for (; i < size; ++i) {
    hash = (hash ^ static_cast<unsigned char>(data[i])) * 0x94d049bb133111ebULL;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string DecisionDigest(const std::string& jsonl_trace) {
  return Hex64(Fnv1a(dcat::ExtractDecisionTrace(jsonl_trace)));
}

bool ParsePins(const std::string& text, PinTable* pins, std::string* error) {
  std::istringstream in(text);
  std::string line;
  size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string workload;
    std::string seed_text;
    std::string digest;
    std::string extra;
    if (!(fields >> workload)) {
      continue;  // blank or comment-only line
    }
    char* end = nullptr;
    fields >> seed_text >> digest;
    const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (seed_text.empty() || *end != '\0' || digest.size() != 16 || (fields >> extra)) {
      *error = "line " + std::to_string(number) + ": expected '<workload> <seed> <16 hex digits>'";
      return false;
    }
    (*pins)[{workload, seed}] = digest;
  }
  return true;
}

std::string CheckPinnedDigest(const PinTable& pins, const std::string& workload, uint64_t seed,
                              const std::string& digest) {
  const auto it = pins.find({workload, seed});
  if (it == pins.end() || it->second == digest) {
    return "";
  }
  return "decision digest " + digest + " differs from the pinned " + it->second + " (" +
         workload + ", seed " + std::to_string(seed) + ")";
}

HashingStreamBuf::HashingStreamBuf() : block_(64 * 1024) {
  setp(block_.data(), block_.data() + block_.size());
}

void HashingStreamBuf::Drain() {
  const size_t size = static_cast<size_t>(pptr() - pbase());
  hash_ = StreamHash(pbase(), size, hash_);
  bytes_ += size;
  setp(block_.data(), block_.data() + block_.size());
}

HashingStreamBuf::int_type HashingStreamBuf::overflow(int_type ch) {
  Drain();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

uint64_t HashingStreamBuf::Finish() {
  Drain();
  return hash_;
}

void TraceCapture::Finish(std::string* text, uint64_t* hash, uint64_t* bytes) {
  if (keep_text_) {
    *text = text_.str();
    *hash = StreamHash(text->data(), text->size());
    *bytes = text->size();
  } else {
    text->clear();
    *hash = hash_buf_.Finish();
    *bytes = hash_buf_.bytes();
  }
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kInterval:
      return "interval";
    case Layer::kSim:
      return "sim.Vm::RunUntil";
    case Layer::kCore:
      return "core.DcatController::Tick";
    case Layer::kPqosWrite:
      return "pqos.write";
    case Layer::kPqosRead:
      return "pqos.read";
    case Layer::kRecovery:
      return "recovery.JournalStorage";
    case Layer::kTelemetry:
      return "telemetry.EventSink";
    case Layer::kFleet:
      return "fleet.RunScenario";
    case Layer::kMerge:
      return "fleet.MergedTrace";
    case Layer::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(size_t max_kept) : max_kept_(max_kept) { stack_.reserve(16); }

void SpanRecorder::Begin(Layer layer) {
  if (!enabled_) {
    return;
  }
  ++opened_;
  uint32_t kept_index = kNoParent;
  if (kept_.size() < max_kept_) {
    kept_index = static_cast<uint32_t>(kept_.size());
    const uint32_t parent = stack_.empty() ? kNoParent : stack_.back().kept_index;
    kept_.push_back(Span{layer, parent, interval_, 0, 0});
  }
  stack_.push_back(Open{layer, NowNs(), 0, kept_index});
  if (kept_index != kNoParent) {
    kept_[kept_index].start_ns = stack_.back().start_ns;
  }
}

int64_t SpanRecorder::End() {
  if (!enabled_) {
    return 0;
  }
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - open.start_ns;
  const int64_t self = duration - open.child_ns;
  const size_t l = static_cast<size_t>(open.layer);
  ++count_[l];
  total_ns_[l] += duration;
  self_ns_[l] += self;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.kept_index != kNoParent) {
    kept_[open.kept_index].end_ns = end;
  }
  return self;
}

bool SpanRecorder::WriteJsonl(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << header << '\n';
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << LayerName(s.layer) << "\",\"start_ns\":"
        << (s.start_ns - origin) << ",\"end_ns\":" << (s.end_ns - origin) << ",\"parent\":";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ",\"interval\":" << s.interval << "}\n";
  }
  return static_cast<bool>(out);
}

double CalibrateSpanCostNs() {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    SpanRecorder recorder(0);
    constexpr int kPairs = 20000;
    const int64_t start = NowNs();
    for (int i = 0; i < kPairs; ++i) {
      recorder.Begin(Layer::kInterval);
      recorder.End();
    }
    rounds.push_back(static_cast<double>(NowNs() - start) / kPairs);
  }
  return Median(rounds);
}

void AddControlLayerMetrics(const SpanRecorder& recorder, const std::vector<double>& core_self_us,
                            const LayerCounts& counts, RunReport* report) {
  const double interval_ns = static_cast<double>(recorder.total_ns(Layer::kInterval));
  auto share = [&](std::initializer_list<Layer> layers) {
    int64_t self = 0;
    for (Layer l : layers) {
      self += recorder.self_ns(l);
    }
    return interval_ns > 0 ? 100.0 * static_cast<double>(self) / interval_ns : 0.0;
  };
  auto mean_ns = [&](Layer l) {
    return recorder.count(l) > 0 ? static_cast<double>(recorder.total_ns(l)) /
                                       static_cast<double>(recorder.count(l))
                                 : 0.0;
  };
  report->Add("core.tick_us_p50", Percentile(core_self_us, 50), "us");
  report->Add("core.tick_us_p99", Percentile(core_self_us, 99), "us");
  report->Add("core.share_pct", share({Layer::kCore}), "%");
  report->Add("core.allocations", static_cast<double>(counts.allocations), "count");
  report->Add("core.phase_changes", static_cast<double>(counts.phase_changes), "count");
  report->Add("core.category_changes", static_cast<double>(counts.category_changes), "count");
  report->Add("pqos.mask_writes", static_cast<double>(counts.mask_writes), "count");
  report->Add("pqos.apply_us", mean_ns(Layer::kPqosWrite) * 1e-3, "us");
  report->Add("pqos.reads", static_cast<double>(counts.pqos_reads), "count");
  report->Add("pqos.read_ns", mean_ns(Layer::kPqosRead), "ns");
  report->Add("pqos.share_pct", share({Layer::kPqosWrite, Layer::kPqosRead}), "%");
  report->Add("recovery.journal_appends", static_cast<double>(counts.journal_appends), "count");
  report->Add("recovery.journal_bytes", static_cast<double>(counts.journal_bytes), "bytes");
  report->Add("recovery.append_us", mean_ns(Layer::kRecovery) * 1e-3, "us");
  report->Add("recovery.share_pct", share({Layer::kRecovery}), "%");
  report->Add("telemetry.events", static_cast<double>(counts.events), "count");
  report->Add("telemetry.trace_bytes", static_cast<double>(counts.trace_bytes), "bytes");
  report->Add("telemetry.share_pct", share({Layer::kTelemetry}), "%");
}

double OverheadPct(const std::vector<double>& untraced, const std::vector<double>& traced) {
  const double base = Percentile(untraced, 50);
  return base > 0 ? 100.0 * (Percentile(traced, 50) - base) / base : 0.0;
}

double CalibratedOverheadPct(const SpanRecorder& recorder, double traced_ns) {
  return traced_ns > 0 ? 100.0 * CalibrateSpanCostNs() *
                             static_cast<double>(recorder.spans_opened()) / traced_ns
                       : 0.0;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"sim.run_us", "us"},
      {"sim.ns_per_access", "ns"},
      {"sim.share_pct", "%"},
      {"sim.l1_miss_ratio", "ratio"},
      {"sim.l2_miss_ratio", "ratio"},
      {"sim.llc_miss_ratio", "ratio"},
      {"sim.analytic_coverage_pct", "%"},
      {"sim.fallbacks", "count"},
      {"core.tick_us_p50", "us"},
      {"core.tick_us_p99", "us"},
      {"core.share_pct", "%"},
      {"core.allocations", "count"},
      {"core.phase_changes", "count"},
      {"core.category_changes", "count"},
      {"pqos.mask_writes", "count"},
      {"pqos.apply_us", "us"},
      {"pqos.reads", "count"},
      {"pqos.read_ns", "ns"},
      {"pqos.share_pct", "%"},
      {"recovery.journal_appends", "count"},
      {"recovery.journal_bytes", "bytes"},
      {"recovery.append_us", "us"},
      {"recovery.share_pct", "%"},
      {"telemetry.events", "count"},
      {"telemetry.trace_bytes", "bytes"},
      {"telemetry.share_pct", "%"},
      {"verify.violations", "count"},
      {"fleet.shard_s_p50", "s"},
      {"fleet.shard_s_max", "s"},
      {"fleet.imbalance", "ratio"},
      {"fleet.pool_efficiency", "ratio"},
      {"fleet.merge_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kNames;
}

void CompletePerLayer(RunReport* report) {
  for (const auto& [name, unit] : PerLayerMetricNames()) {
    const bool present = std::any_of(report->metrics.begin(), report->metrics.end(),
                                     [&](const Metric& m) { return m.name == name; });
    if (!present) {
      report->Add(name, 0.0, unit);
    }
  }
}

}  // namespace perfbench
