// FoldTape: the record of one metering fold, replayed on kept ticks.
//
// A fold is a fixed sequence of `acc += addend` into the profilers'
// accumulators, plus the engine's trace marks and gauge observations.
// When the sampler keeps its slice and nothing else the fold reads has
// moved, the next fold would make exactly the same adds, marks and
// observations in the same order. The MeteringPipeline records one such
// fold on this tape and replays it instead of folding again
// (energy/pipeline.h says when), which leaves every accumulator with
// the bits a full fold gives.
//
// The fold code performs each effect through the static helpers below
// and passes the tape explicitly: null on an ordinary fold, so recording
// costs one predicted branch per effect there and nothing else. The
// logging itself lives out of line (fold_tape.cpp), which keeps the
// helpers small enough to inline into every fold site.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eandroid::energy {

class FoldTape {
 public:
  /// `acc += addend`, logged when `tape` is non-null (zero addends are
  /// not: adding ±0.0 never changes an accumulator's bits).
  static void add(double& acc, double addend, FoldTape* tape) {
    acc += addend;
    if (tape != nullptr) tape->log_add(acc, addend);
  }

  /// `metrics.observe(id, value)`, logged when `tape` is non-null.
  static void observe(obs::MetricsRegistry& metrics, obs::MetricId id,
                      double value, FoldTape* tape) {
    metrics.observe(id, value);
    if (tape != nullptr) tape->log_observation(metrics, id, value);
  }

  /// A trace mark at `t_us`, logged when `tape` is non-null; a replay
  /// stamps the replaying tick's time instead.
  static void mark(obs::TraceRecorder& trace, obs::TraceCategory category,
                   std::uint32_t name, std::int32_t uid, std::int64_t arg,
                   [[maybe_unused]] std::int64_t t_us, FoldTape* tape) {
    EANDROID_TRACE(&trace, t_us, category, name, uid, arg);
    if (tape != nullptr) tape->log_mark(trace, category, name, uid, arg);
  }

  /// Repeats the recorded effects in recorded order; marks at `t_us`.
  void replay(std::int64_t t_us) const;

  void clear() {
    adds_.clear();
    marks_.clear();
    observations_.clear();
  }

  /// Logged accumulator adds (the work of one replay).
  [[nodiscard]] std::size_t adds() const { return adds_.size(); }

 private:
  void log_add(double& acc, double addend);
  void log_observation(obs::MetricsRegistry& metrics, obs::MetricId id,
                       double value);
  void log_mark(obs::TraceRecorder& trace, obs::TraceCategory category,
                std::uint32_t name, std::int32_t uid, std::int64_t arg);

  struct Add {
    double* acc;
    double addend;
  };
  struct Mark {
    obs::TraceRecorder* trace;
    obs::TraceCategory category;
    std::uint32_t name;
    std::int32_t uid;
    std::int64_t arg;
  };
  struct Observation {
    obs::MetricsRegistry* metrics;
    obs::MetricId id;
    double value;
  };

  std::vector<Add> adds_;
  std::vector<Mark> marks_;
  std::vector<Observation> observations_;
};

}  // namespace eandroid::energy
