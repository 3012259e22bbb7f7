// The simulator: virtual clock plus event loop.
//
// Every simulated subsystem holds a reference to one Simulator and uses it
// to read the current virtual time, schedule future work, and register
// periodic tasks (e.g. the energy sampler). The loop is single-threaded and
// deterministic: given the same seed and the same schedule of user actions,
// two runs produce identical traces.
//
// A periodic callback may run its following firings in place
// (refire_in_place) while nothing else is due before them and they lie
// within the current run_until: each one moves the clock and is counted
// and traced as a dispatch exactly as the run loop would, so the event
// stream, the counters and the trace bytes are the same as when every
// firing returns to the loop. The metering timer (energy/sampler.h) runs
// its quiet stretches this way.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/check.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace eandroid::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace eandroid::obs

namespace eandroid::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedules `cb` to run `delay` after the current instant.
  EventHandle schedule(Duration delay, EventQueue::Callback cb) {
    return queue_.push(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at an absolute instant. Scheduling in the past is a
  /// checked error: clamping it to now_ would let ordering bugs
  /// masquerade as same-instant events, and fleet causal windows rely on
  /// every injected instant being honest. The current instant is not the
  /// past; an event scheduled at it fires after those already queued
  /// there.
  EventHandle schedule_at(TimePoint when, EventQueue::Callback cb) {
    EANDROID_CHECK(when >= now_, "schedule_at in the past: when="
                                     << when.micros() << "us, now="
                                     << now_.micros() << "us");
    return queue_.push(when, std::move(cb));
  }

  /// Cancels a pending event; returns false if it already ran.
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Registers a repeating task with a fixed period. The task keeps firing
  /// until the returned canceller is invoked or the simulation ends.
  /// Returns a function that stops the task.
  std::function<void()> every(Duration period, std::function<void()> task);

  /// Runs until the event queue drains or the clock passes `until`.
  /// Events scheduled exactly at `until` still run.
  void run_until(TimePoint until);

  /// For a periodic callback: moves the clock to the callback's next
  /// firing and returns true, so the callback runs that firing in place
  /// of returning to the loop. The finished firing is counted and the
  /// new one traced (`sim.dispatch` with the queue depth) exactly as
  /// run_until would. Returns false and changes nothing unless the next
  /// firing is at or before run_until's bound and strictly earlier than
  /// every other pending event — and so outside a periodic callback,
  /// outside run_until, and once the callback has cancelled its timer.
  bool refire_in_place();

  /// Advances virtual time by `d`, running any events that fall inside.
  void run_for(Duration d) { run_until(now_ + d); }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// True when at least one event is pending.
  [[nodiscard]] bool has_pending() const { return !queue_.empty(); }

  /// Attaches (or detaches, with nulls) the device's observability sinks.
  /// Subsystems that hold a Simulator& reach tracing through trace() /
  /// metrics() instead of growing constructor parameters; both pointers
  /// default to null, so a bare Simulator pays one predicted branch per
  /// instrumented seam and nothing else. The owner (SystemServer) detaches
  /// in its destructor — the Simulator may outlive it.
  void set_observability(obs::TraceRecorder* trace,
                         obs::MetricsRegistry* metrics);
  [[nodiscard]] obs::TraceRecorder* trace() const { return trace_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Events fired by run_until over the simulator's lifetime.
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return events_dispatched_;
  }

 private:
  /// Before every instant: the bound outside run_until.
  static constexpr TimePoint kNoBound{
      std::numeric_limits<std::int64_t>::min()};

  TimePoint now_;
  /// The innermost run_until's bound; kNoBound outside run_until.
  TimePoint bound_ = kNoBound;
  EventQueue queue_;
  Rng rng_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::uint32_t dispatch_name_ = 0;    // interned "sim.dispatch"
  std::uint32_t dispatch_metric_ = 0;  // "sim.events_dispatched" counter id
  std::uint64_t events_dispatched_ = 0;
};

}  // namespace eandroid::sim
