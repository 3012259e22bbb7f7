// EnergySampler: the periodic metering loop.
//
// At each tick (default 250 ms, the same order as BatteryStats' polling)
// it closes a CPU-utilization window, reads instantaneous component power,
// integrates over the window, drains the battery, and feeds every
// registered sink. Power is treated as constant within a window — the
// standard assumption of utilization-based models (the paper cites their
// ~20% worst-case error; our interest is attribution, not wattmeter
// accuracy).
//
// The tick runs in three stages: GATHER integrates component power into
// the persistent slice, SEAL fixes the canonical cell-iteration order,
// and FOLD feeds the accumulators — the built-in profilers through the
// fused MeteringPipeline (set_pipeline), then any external observers
// registered with add_sink (Eprof, timeline recorders, detectors, test
// sinks).
//
// The tick is allocation-free in steady state: ONE EnergySlice lives for
// the whole run and is reset (not reallocated) per window, component
// breakdowns land in a reused buffer, and the per-tick constants (power
// params, CPU power model, the observability recorder/registry pointers)
// are hoisted out of the loop.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "energy/slice.h"
#include "framework/system_server.h"
#include "hw/cpu_power_model.h"
#include "sim/simulator.h"

namespace eandroid::energy {

class MeteringPipeline;

class EnergySampler {
 public:
  EnergySampler(framework::SystemServer& server,
                sim::Duration period = sim::millis(250));
  ~EnergySampler();

  EnergySampler(const EnergySampler&) = delete;
  EnergySampler& operator=(const EnergySampler&) = delete;

  /// Registers an external observer. Sinks run AFTER the pipeline, in
  /// registration order.
  void add_sink(AccountingSink* sink) { sinks_.push_back(sink); }

  /// Attaches the fused fold stage (null detaches). The pipeline runs
  /// first in FOLD.
  void set_pipeline(MeteringPipeline* pipeline) { pipeline_ = pipeline; }

  /// Starts the periodic loop on the simulator.
  void start();
  void stop();

  /// Forces a window to close now (used at scenario boundaries so the
  /// last partial window is accounted).
  void flush();

  [[nodiscard]] std::uint64_t slices_emitted() const { return slices_; }

  // --- Per-stage wall-clock accounting (bench instrumentation) ---------
  // Off by default: the tick takes zero clock reads. The hotpath bench
  // enables it over a profiling window to split tick cost into gather
  // (+seal) vs fold (pipeline + sinks). Timing never touches the
  // simulation's arithmetic — results are bit-identical either way.
  void enable_stage_timing(bool on) { stage_timing_ = on; }
  struct StageNanos {
    std::uint64_t gather_ns = 0;  ///< gather + seal + battery flow
    std::uint64_t fold_ns = 0;    ///< pipeline run + external sinks
    std::uint64_t ticks = 0;      ///< ticks measured while timing was on
  };
  [[nodiscard]] StageNanos stage_nanos() const { return stage_nanos_; }
  void reset_stage_nanos() { stage_nanos_ = StageNanos{}; }

 private:
  void tick();
  /// GATHER: integrates CPU, session components, and screen state over
  /// the closed window into the persistent slice.
  void gather(sim::TimePoint now, double window_s);
  /// FOLD: fused pipeline first (when attached), then the sinks.
  void fold();

  framework::SystemServer& server_;
  sim::Duration period_;
  std::vector<AccountingSink*> sinks_;
  MeteringPipeline* pipeline_ = nullptr;
  std::function<void()> stopper_;
  sim::TimePoint window_begin_;
  std::uint64_t slices_ = 0;

  /// Hoisted per-tick constants: the params never change mid-run and the
  /// model is a pure function of them.
  const hw::PowerParams& params_;
  hw::CpuPowerModel model_;

  /// Persistent metering buffers (reset per tick, never reallocated).
  EnergySlice slice_;
  hw::PowerBreakdown breakdown_;

  /// Cached observability sinks (attached before construction, constant
  /// for the device's life) plus pre-interned/registered ids — the tick's
  /// trace/metrics calls neither re-query the simulator nor allocate.
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::uint32_t slice_trace_name_ = 0;
  obs::MetricId slices_metric_ = 0;
  obs::MetricId slice_mj_metric_ = 0;

  bool stage_timing_ = false;
  StageNanos stage_nanos_;
};

}  // namespace eandroid::energy
