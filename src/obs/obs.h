// Observability: the per-device bundle of TraceRecorder + MetricsRegistry,
// plus the ObsOptions knob that DeviceSpec / TestbedOptions / FleetOptions
// all carry.
//
// Metrics are always on (a handful of vector bumps per slice); the trace
// ring is only materialised when `trace` is requested, so the default
// configuration pays one null-pointer branch per instrumented seam and
// allocates nothing.
#pragma once

#include <cstddef>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eandroid::obs {

struct ObsOptions {
  /// Materialise a TraceRecorder and start recording immediately.
  bool trace = false;
  /// Ring capacity in events (newest win on overflow).
  std::size_t trace_capacity = 1u << 16;
};

class Observability {
 public:
  explicit Observability(ObsOptions options = {}) : options_(options) {
    if (options_.trace)
      trace_ = std::make_unique<TraceRecorder>(options_.trace_capacity);
  }

  /// Null when tracing was not requested.
  [[nodiscard]] TraceRecorder* trace() { return trace_.get(); }
  [[nodiscard]] const TraceRecorder* trace() const { return trace_.get(); }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const ObsOptions& options() const { return options_; }

 private:
  ObsOptions options_;
  std::unique_ptr<TraceRecorder> trace_;
  MetricsRegistry metrics_;
};

}  // namespace eandroid::obs
