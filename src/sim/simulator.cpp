#include "sim/simulator.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eandroid::sim {

std::function<void()> Simulator::every(Duration period,
                                       std::function<void()> task) {
  // One periodic queue entry for the whole lifetime of the timer; the
  // queue reschedules it in place each firing (no per-tick allocation).
  const EventHandle h =
      queue_.push_periodic(now_ + period, period, std::move(task));
  // {Simulator*, handle} fits std::function's small-buffer storage, so
  // the canceller itself does not allocate either.
  return [this, h] { queue_.cancel(h); };
}

void Simulator::set_observability(obs::TraceRecorder* trace,
                                  obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
  // Intern/register once at attach time so the dispatch loop below stays
  // allocation-free.
  if (trace_ != nullptr) dispatch_name_ = trace_->intern("sim.dispatch");
  if (metrics_ != nullptr)
    dispatch_metric_ = metrics_->counter("sim.events_dispatched");
}

void Simulator::run_until(TimePoint until) {
  // refire_in_place reads the innermost run's bound; the enclosing run's
  // (or none) comes back on the way out, exceptions included.
  struct RestoreBound {
    TimePoint& bound;
    TimePoint saved;
    ~RestoreBound() { bound = saved; }
  } restore{bound_, bound_};
  bound_ = until;
  // The queue's head is never a cancelled event, so each iteration reads
  // it once.
  while (!queue_.empty()) {
    const TimePoint next = queue_.next_time();
    if (next > until) break;
    now_ = next;
    // Trace before firing: the callback may itself record events, and the
    // dispatch marker should precede them in the ring. arg = queue depth
    // at dispatch, a cheap congestion signal.
    EANDROID_TRACE(trace_, now_.micros(), obs::TraceCategory::kSim,
                   dispatch_name_, -1,
                   static_cast<std::int64_t>(queue_.size()));
    queue_.fire_front();
    ++events_dispatched_;
    if (metrics_ != nullptr) metrics_->add(dispatch_metric_);
  }
  if (now_ < until) now_ = until;
}

bool Simulator::refire_in_place() {
  if (!queue_.refire_running(bound_)) return false;
  // The firing that just finished is counted where run_until counts it,
  // after it ends; the next one is traced where run_until would trace it.
  ++events_dispatched_;
  if (metrics_ != nullptr) metrics_->add(dispatch_metric_);
  now_ = queue_.next_time();
  EANDROID_TRACE(trace_, now_.micros(), obs::TraceCategory::kSim,
                 dispatch_name_, -1,
                 static_cast<std::int64_t>(queue_.size()));
  return true;
}

}  // namespace eandroid::sim
