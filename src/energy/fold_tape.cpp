#include "energy/fold_tape.h"

namespace eandroid::energy {

void FoldTape::log_add(double& acc, double addend) {
  // Accumulators start at +0.0 and a sum rounds to -0.0 only when both
  // operands are -0.0, so no accumulator is ever -0.0 and adding ±0.0
  // leaves its bits alone: zero addends are not logged.
  if (addend != 0.0) adds_.push_back({&acc, addend});
}

void FoldTape::log_observation(obs::MetricsRegistry& metrics,
                               obs::MetricId id, double value) {
  observations_.push_back({&metrics, id, value});
}

void FoldTape::log_mark(obs::TraceRecorder& trace,
                        obs::TraceCategory category, std::uint32_t name,
                        std::int32_t uid, std::int64_t arg) {
  marks_.push_back({&trace, category, name, uid, arg});
}

void FoldTape::replay([[maybe_unused]] std::int64_t t_us) const {
  for (const Add& a : adds_) *a.acc += a.addend;
  for ([[maybe_unused]] const Mark& m : marks_) {
    EANDROID_TRACE(m.trace, t_us, m.category, m.name, m.uid, m.arg);
  }
  for (const Observation& o : observations_) o.metrics->observe(o.id, o.value);
}

}  // namespace eandroid::energy
