// Benchmark-local decorators over the program's public seams. Each one
// forwards to the real implementation and wraps the call in a span of its
// layer, so the traced run attributes host time without tracing inside the
// program. Untraced runs never construct them.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "perfbench/bench.h"
#include "src/pqos/pqos.h"
#include "src/recovery/journal.h"
#include "src/telemetry/events.h"

namespace perfbench {

// CatController decorator: mask/association writes are pqos.write spans,
// mask/association reads are pqos.read spans.
class TimedCat : public dcat::CatController {
 public:
  TimedCat(dcat::CatController* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  uint32_t NumWays() const override { return inner_->NumWays(); }
  uint8_t NumCos() const override { return inner_->NumCos(); }
  uint16_t NumCores() const override { return inner_->NumCores(); }
  uint64_t WayCapacityBytes() const override { return inner_->WayCapacityBytes(); }

  dcat::PqosStatus SetCosMask(uint8_t cos, uint32_t mask) override {
    ScopedSpan span(recorder_, Layer::kPqosWrite);
    ++mask_writes_;
    return inner_->SetCosMask(cos, mask);
  }
  dcat::PqosStatus ApplyMaskBatch(const std::vector<dcat::CosMaskUpdate>& updates,
                                  size_t* applied) override {
    ScopedSpan span(recorder_, Layer::kPqosWrite);
    mask_writes_ += updates.size();
    return inner_->ApplyMaskBatch(updates, applied);
  }
  uint32_t GetCosMask(uint8_t cos) const override {
    ScopedSpan span(recorder_, Layer::kPqosRead);
    ++reads_;
    return inner_->GetCosMask(cos);
  }
  dcat::PqosStatus AssociateCore(uint16_t core, uint8_t cos) override {
    ScopedSpan span(recorder_, Layer::kPqosWrite);
    return inner_->AssociateCore(core, cos);
  }
  uint8_t GetCoreAssociation(uint16_t core) const override {
    ScopedSpan span(recorder_, Layer::kPqosRead);
    ++reads_;
    return inner_->GetCoreAssociation(core);
  }

  uint64_t mask_writes() const { return mask_writes_; }
  uint64_t reads() const { return reads_; }

 private:
  dcat::CatController* inner_;
  SpanRecorder* recorder_;
  uint64_t mask_writes_ = 0;
  mutable uint64_t reads_ = 0;
};

// MonitoringProvider decorator: every counter, occupancy and bandwidth read
// is a pqos.read span.
class TimedMonitor : public dcat::MonitoringProvider {
 public:
  TimedMonitor(const dcat::MonitoringProvider* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  dcat::PerfCounterBlock ReadCounters(uint16_t core) const override {
    ScopedSpan span(recorder_, Layer::kPqosRead);
    ++reads_;
    return inner_->ReadCounters(core);
  }
  uint64_t LlcOccupancyBytes(uint8_t cos) const override {
    ScopedSpan span(recorder_, Layer::kPqosRead);
    ++reads_;
    return inner_->LlcOccupancyBytes(cos);
  }
  uint64_t MemoryBandwidthBytes(uint8_t cos) const override {
    ScopedSpan span(recorder_, Layer::kPqosRead);
    ++reads_;
    return inner_->MemoryBandwidthBytes(cos);
  }
  dcat::PqosStatus ReadLlcOccupancy(uint8_t cos, uint64_t* bytes) const override {
    ScopedSpan span(recorder_, Layer::kPqosRead);
    ++reads_;
    return inner_->ReadLlcOccupancy(cos, bytes);
  }
  dcat::PqosStatus ReadMemoryBandwidth(uint8_t cos, uint64_t* bytes) const override {
    ScopedSpan span(recorder_, Layer::kPqosRead);
    ++reads_;
    return inner_->ReadMemoryBandwidth(cos, bytes);
  }

  uint64_t reads() const { return reads_; }

 private:
  const dcat::MonitoringProvider* inner_;
  SpanRecorder* recorder_;
  mutable uint64_t reads_ = 0;
};

// JournalStorage decorator: appends and compaction rewrites are
// recovery spans.
class TimedJournalStorage : public dcat::JournalStorage {
 public:
  TimedJournalStorage(dcat::JournalStorage* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  bool Append(const void* data, size_t size) override {
    ScopedSpan span(recorder_, Layer::kRecovery);
    ++appends_;
    bytes_ += size;
    return inner_->Append(data, size);
  }
  bool Rewrite(const void* data, size_t size) override {
    ScopedSpan span(recorder_, Layer::kRecovery);
    ++appends_;
    bytes_ += size;
    return inner_->Rewrite(data, size);
  }
  std::vector<uint8_t> ReadAll() const override { return inner_->ReadAll(); }

  uint64_t appends() const { return appends_; }
  uint64_t bytes() const { return bytes_; }

 private:
  dcat::JournalStorage* inner_;
  SpanRecorder* recorder_;
  uint64_t appends_ = 0;
  uint64_t bytes_ = 0;
};

// Counting EventSink decorator: forwards every event to `inner` (may be
// null) inside a telemetry span and counts the decision events by kind.
class CountingSink : public dcat::EventSink {
 public:
  CountingSink(dcat::EventSink* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void OnTick(const dcat::TickEvent& e) override { Forward(&dcat::EventSink::OnTick, e); }
  void OnPhaseChange(const dcat::PhaseChangeEvent& e) override {
    ++phase_changes_;
    Forward(&dcat::EventSink::OnPhaseChange, e);
  }
  void OnCategoryChange(const dcat::CategoryChangeEvent& e) override {
    ++category_changes_;
    Forward(&dcat::EventSink::OnCategoryChange, e);
  }
  void OnAllocation(const dcat::AllocationEvent& e) override {
    ++allocations_;
    if (e.from_ways != e.to_ways && e.tick != last_way_change_tick_) {
      last_way_change_tick_ = e.tick;
      ++way_change_ticks_;
    }
    Forward(&dcat::EventSink::OnAllocation, e);
  }
  void OnBackendFault(const dcat::BackendFaultEvent& e) override {
    Forward(&dcat::EventSink::OnBackendFault, e);
  }
  void OnMaskDrift(const dcat::MaskDriftEvent& e) override {
    Forward(&dcat::EventSink::OnMaskDrift, e);
  }
  void OnCounterAnomaly(const dcat::CounterAnomalyEvent& e) override {
    Forward(&dcat::EventSink::OnCounterAnomaly, e);
  }
  void OnFidelity(const dcat::FidelityEvent& e) override {
    Forward(&dcat::EventSink::OnFidelity, e);
  }
  void OnModeChange(const dcat::ModeChangeEvent& e) override {
    Forward(&dcat::EventSink::OnModeChange, e);
  }
  void OnRestart(const dcat::RestartEvent& e) override { Forward(&dcat::EventSink::OnRestart, e); }
  void OnRecovery(const dcat::RecoveryEvent& e) override {
    Forward(&dcat::EventSink::OnRecovery, e);
  }

  uint64_t events() const { return events_; }
  uint64_t allocations() const { return allocations_; }
  uint64_t phase_changes() const { return phase_changes_; }
  uint64_t category_changes() const { return category_changes_; }
  // Ticks on which at least one tenant's ways changed (admissions count
  // under tick 0).
  uint64_t way_change_ticks() const { return way_change_ticks_; }

 private:
  template <typename Event>
  void Forward(void (dcat::EventSink::*handler)(const Event&), const Event& e) {
    ScopedSpan span(recorder_, Layer::kTelemetry);
    ++events_;
    if (inner_ != nullptr) {
      (inner_->*handler)(e);
    }
  }

  dcat::EventSink* inner_;
  SpanRecorder* recorder_;
  uint64_t events_ = 0;
  uint64_t allocations_ = 0;
  uint64_t phase_changes_ = 0;
  uint64_t category_changes_ = 0;
  uint64_t way_change_ticks_ = 0;
  uint64_t last_way_change_tick_ = UINT64_MAX;
};

// Mean normalized IPC (simulated) over the tick rows of the designated
// receiver tenants, from tick `from_tick` on. Rows before the phase's
// baseline is measured (norm_ipc 0) are skipped.
class ReceiverIpcSink : public dcat::EventSink {
 public:
  ReceiverIpcSink(std::vector<dcat::TenantId> receivers, uint64_t from_tick)
      : receivers_(std::move(receivers)), from_tick_(from_tick) {}

  void OnTick(const dcat::TickEvent& e) override {
    if (e.tick >= from_tick_ && e.norm_ipc > 0.0 &&
        std::find(receivers_.begin(), receivers_.end(), e.tenant) != receivers_.end()) {
      sum_ += e.norm_ipc;
      ++rows_;
    }
  }
  double mean() const { return rows_ > 0 ? sum_ / static_cast<double>(rows_) : 0.0; }

 private:
  std::vector<dcat::TenantId> receivers_;
  uint64_t from_tick_;
  double sum_ = 0.0;
  uint64_t rows_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
