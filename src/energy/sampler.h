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
// GATHER is change-driven: a tick pays only for what changed since the
// previous one. The CPU window is closed first; if the scheduler reused
// it (kernel/cpu_sched.h), the four session components report no call
// since the last build and no tail running down (hw/session_component.h),
// and the scalars compared by value — suspended flag, window length,
// screen on, brightness, screen power, foreground uid, and the
// wakelock-forced flag with its owner list — all match, then the sealed
// slice and its total are kept and only begin/end move. The pipeline is
// told the slice was kept, and replays its recorded fold while the
// window state holds still (energy/pipeline.h). The battery update (one
// Battery::meter call: consumption, then the charger's back-fill), FOLD
// or its replay, the sinks, the trace mark and the metrics run on every
// tick either way, so the tick's outputs are the same bits as a full
// rebuild.
//
// Kept runs: while nothing else is due, the timer's callback runs the
// following firings in place (Simulator::refire_in_place), each one a
// whole tick with its dispatch counted and traced as the run loop would.
// An in-place firing that follows a kept tick skips the keep test: it
// closes the CPU window and keeps the slice if the scheduler reused it
// (which also means the window has the built length); otherwise it runs
// the full test (or the rebuild) on the window it just closed. Nothing else
// the test compares can have moved: no event and no outside code ran
// since the kept tick; the user-activity timeout flips the forced flag
// only at the instant of its pending reevaluate event, and an in-place
// firing never reaches a pending event's instant; and a component tail
// running at the build makes the slice unkeepable in the first place.
// flush() and every firing the run loop dispatches run the full test.
//
// The tick is allocation-free in steady state: ONE EnergySlice lives for
// the whole run and is reset (not reallocated) per rebuilt window,
// component breakdowns and the wakelock owner list land in reused
// buffers, and the per-tick constants (power params, CPU power model, the
// observability recorder/registry pointers) are hoisted out of the loop.
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
  /// Ticks whose GATHER kept the previous slice instead of rebuilding it.
  [[nodiscard]] std::uint64_t gathers_reused() const {
    return gathers_reused_;
  }
  /// Timer firings the callback ran in place instead of returning to the
  /// run loop.
  [[nodiscard]] std::uint64_t ticks_in_place() const {
    return ticks_in_place_;
  }
  /// Kept ticks whose GATHER skipped the keep test (a subset of both
  /// counts above).
  [[nodiscard]] std::uint64_t keep_tests_skipped() const {
    return keep_tests_skipped_;
  }

  // --- Per-stage wall-clock accounting (bench instrumentation) ---------
  // Off by default: the tick takes zero clock reads. The hotpath bench
  // enables it over a profiling window to split tick cost into gather
  // (+seal) vs fold (pipeline + sinks). Timing never touches the
  // simulation's arithmetic — results are bit-identical either way.
  void enable_stage_timing(bool on) { stage_timing_ = on; }
  struct StageNanos {
    std::uint64_t gather_ns = 0;  ///< gather + seal + battery update
    std::uint64_t fold_ns = 0;    ///< pipeline run + external sinks
    std::uint64_t ticks = 0;      ///< ticks measured while timing was on
  };
  [[nodiscard]] StageNanos stage_nanos() const { return stage_nanos_; }

 private:
  /// The timer's callback: a tick, then the firings it may run in place.
  void on_timer();
  /// One metering tick; returns whether GATHER kept the slice.
  /// `follows_kept`: an in-place firing right after a kept tick.
  bool tick(bool follows_kept);
  /// GATHER: integrates CPU, session components, and screen state over
  /// the closed window into the persistent slice. Returns true when it
  /// kept the previous (sealed) slice instead; with `follows_kept` the
  /// keep needs only a reused CPU window.
  bool gather(sim::TimePoint now, sim::Duration window, bool follows_kept);
  /// Keeps the sealed slice and moves its window to end at `now`.
  void keep_slice(sim::TimePoint now);
  /// FOLD: fused pipeline first (when attached; told whether GATHER kept
  /// the slice), then the sinks.
  void fold(bool kept);

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

  /// Persistent metering buffers (reset per rebuild, never reallocated).
  EnergySlice slice_;
  hw::PowerBreakdown breakdown_;
  /// This tick's screen-wakelock owners; swapped into the slice on a
  /// rebuild.
  std::vector<kernelsim::Uid> owners_;

  // --- What the current slice was built from (GATHER's keep test) ---
  static constexpr int kComponents = 4;  // camera, gps, wifi, audio
  struct ComponentMark {
    std::uint64_t generation = 0;
    bool stable = false;  ///< no tail was running down at the build
  };
  ComponentMark component_marks_[kComponents];
  sim::Duration built_window_{0};
  double built_screen_mw_ = 0.0;
  bool built_suspended_ = false;
  bool slice_valid_ = false;  ///< a slice has been built
  /// The sealed slice's total_mj(), reused while the slice is kept.
  double total_mj_ = 0.0;
  std::uint64_t gathers_reused_ = 0;
  std::uint64_t ticks_in_place_ = 0;
  std::uint64_t keep_tests_skipped_ = 0;

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
