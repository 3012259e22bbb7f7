#include "energy/sampler.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "energy/pipeline.h"

namespace eandroid::energy {

const char* to_string(HwPart part) {
  switch (part) {
    case HwPart::kCpu: return "cpu";
    case HwPart::kScreen: return "screen";
    case HwPart::kCamera: return "camera";
    case HwPart::kGps: return "gps";
    case HwPart::kWifi: return "wifi";
    case HwPart::kAudio: return "audio";
  }
  return "?";
}

EnergySampler::EnergySampler(framework::SystemServer& server,
                             sim::Duration period)
    : server_(server),
      period_(period),
      window_begin_(server.simulator().now()),
      params_(server.params()),
      model_(params_),
      slice_(server.ids()),
      trace_(server.simulator().trace()),
      metrics_(server.simulator().metrics()) {
  if (trace_ != nullptr) slice_trace_name_ = trace_->intern("energy.slice");
  if (metrics_ != nullptr) {
    slices_metric_ = metrics_->counter("energy.slices");
    slice_mj_metric_ = metrics_->gauge("energy.slice_mj");
  }
}

EnergySampler::~EnergySampler() { stop(); }

void EnergySampler::start() {
  if (stopper_) return;
  window_begin_ = server_.simulator().now();
  // Align the CPU scheduler's window with ours.
  server_.cpu().sample_window();
  stopper_ = server_.simulator().every(period_, [this] { on_timer(); });
}

void EnergySampler::on_timer() {
  // While nothing else is due, the following firings run here, in place.
  // Between two of them no event and no outside code ran, so when the
  // first kept its slice the second may skip the keep test.
  sim::Simulator& sim = server_.simulator();
  bool kept = tick(false);
  while (sim.refire_in_place()) {
    ++ticks_in_place_;
    kept = tick(kept);
  }
}

void EnergySampler::stop() {
  if (!stopper_) return;
  stopper_();
  stopper_ = nullptr;
}

void EnergySampler::flush() { tick(false); }

void EnergySampler::keep_slice(sim::TimePoint now) {
  slice_.begin = window_begin_;
  slice_.end = now;
  window_begin_ = now;
  ++gathers_reused_;
}

bool EnergySampler::gather(sim::TimePoint now, sim::Duration window,
                           bool follows_kept) {
  // Close the CPU window first: whether it was reused decides whether the
  // rest can be.
  const kernelsim::CpuWindow& cpu = server_.cpu().sample_window();
  // An in-place firing after a kept tick: nothing the keep test compares
  // can have moved since that tick (see the header) but the CPU window
  // and its length. That tick kept a reused window of the built length,
  // so a window reused now has that length too.
  if (follows_kept && server_.cpu().window_reused()) {
    keep_slice(now);
    ++keep_tests_skipped_;
    return true;
  }
  const bool suspended = server_.cpu().suspended();

  // The scalars read every tick. They are compared by value: the forced
  // flag moves with the user-activity timeout, which no counter sees.
  const hw::Screen& screen = server_.screen();
  const bool screen_on = screen.on();
  const int brightness = screen.brightness();
  const double screen_mw = screen.power_mw();
  const kernelsim::Uid foreground = server_.activities().foreground_uid();
  // Wakelock state only matters while the screen is up, and the owner
  // list only while wakelocks are what keeps it up — don't pay for the
  // queries in the dark.
  bool forced = false;
  if (screen_on) forced = server_.power().screen_forced_by_wakelock();
  if (forced) {
    server_.power().screen_wakelock_owners_into(owners_);
  } else {
    owners_.clear();
  }

  const hw::SessionComponent* const components[kComponents] = {
      &server_.camera(), &server_.gps(), &server_.wifi(), &server_.audio()};
  bool components_kept = true;
  for (int i = 0; i < kComponents; ++i) {
    components_kept = components_kept && component_marks_[i].stable &&
                      components[i]->generation() ==
                          component_marks_[i].generation;
  }

  if (slice_valid_ && server_.cpu().window_reused() && components_kept &&
      suspended == built_suspended_ && window == built_window_ &&
      screen_on == slice_.screen_on && brightness == slice_.brightness &&
      screen_mw == built_screen_mw_ && foreground == slice_.foreground &&
      forced == slice_.screen_forced_by_wakelock &&
      owners_ == slice_.screen_wakelock_owners) {
    // A full pass would rebuild the same cells in the same order: keep
    // the sealed slice and move its window.
    keep_slice(now);
    return true;
  }

  // P[mW] * t[s] = E[mJ].
  const double window_s = window.seconds();
  auto mj_of = [window_s](double mw) { return mw * window_s; };

  slice_.reset(window_begin_, now);
  window_begin_ = now;

  // --- CPU ---
  slice_.system_mj += mj_of(suspended ? params_.cpu_suspend_mw
                                      : params_.cpu_idle_awake_mw);
  if (cpu.total_utilization > 0.0) {
    // The governor picks the operating point for the whole window; apps
    // split the active power by their share of the busy time.
    const double active_mw =
        model_.operating_point(cpu.total_utilization).active_mw;
    const double mw_per_share = active_mw / cpu.total_utilization;
    for (const kernelsim::CpuWindow::Share& s : cpu.shares) {
      slice_.part_at(s.app, HwPart::kCpu) += mj_of(mw_per_share * s.share);
    }
    for (const kernelsim::CpuWindow::RoutineShare& rs : cpu.routine_shares) {
      slice_.add_routine_at(rs.app, rs.routine,
                            mj_of(mw_per_share * rs.share));
    }
  }

  // --- Session components ---
  constexpr HwPart kComponentParts[kComponents] = {
      HwPart::kCamera, HwPart::kGps, HwPart::kWifi, HwPart::kAudio};
  for (int i = 0; i < kComponents; ++i) {
    components[i]->breakdown_into(breakdown_);
    double attributed = 0.0;
    // by_uid is sorted ascending: canonical accumulation order.
    for (const auto& [uid, mw] : breakdown_.by_uid) {
      slice_.part(uid, kComponentParts[i]) += mj_of(mw);
      attributed += mw;
    }
    slice_.system_mj += mj_of(breakdown_.total_mw - attributed);
    component_marks_[i] = {components[i]->generation(),
                           components[i]->time_stable()};
  }

  // --- Screen (policy applied by sinks) ---
  slice_.screen_on = screen_on;
  slice_.brightness = brightness;
  slice_.screen_mj = mj_of(screen_mw);
  slice_.foreground = foreground;
  slice_.screen_forced_by_wakelock = forced;
  // reset() emptied the slice's list; the swap keeps both capacities.
  slice_.screen_wakelock_owners.swap(owners_);

  built_suspended_ = suspended;
  built_window_ = window;
  built_screen_mw_ = screen_mw;
  slice_valid_ = true;
  return false;
}

void EnergySampler::fold(bool kept) {
  // Fused first: one cell pass (or its replay) feeds every built-in
  // accumulator; the external observers then see the same sealed slice.
  if (pipeline_ != nullptr) pipeline_->run(slice_, kept);
  for (AccountingSink* sink : sinks_) sink->on_slice(slice_);
}

bool EnergySampler::tick(bool follows_kept) {
  using clock = std::chrono::steady_clock;
  const sim::TimePoint now = server_.simulator().now();
  const sim::Duration window = now - window_begin_;
  if (window <= sim::Duration(0)) return false;

  const clock::time_point t0 = stage_timing_ ? clock::now()
                                             : clock::time_point{};
  // A kept slice is still sealed, and its total is the one computed when
  // it was built. total_mj() is a pure fold over the sealed slice —
  // computed once, reused by the battery, trace marker and metrics below.
  const bool kept = gather(now, window, follows_kept);
  if (!kept) {
    slice_.seal();
    total_mj_ = slice_.total_mj();
  }
  const double total_mj = total_mj_;

  // One battery update: consumption drains, then a connected charger
  // back-fills at its rate over the same window (the rate reads 0 while
  // unplugged).
  hw::Battery& battery = server_.battery();
  battery.meter(total_mj, battery.charge_rate_mw() * window.seconds(), now);

  const clock::time_point t1 = stage_timing_ ? clock::now()
                                             : clock::time_point{};
  fold(kept);
  if (stage_timing_) {
    const clock::time_point t2 = clock::now();
    stage_nanos_.gather_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    stage_nanos_.fold_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count());
    ++stage_nanos_.ticks;
  }
  ++slices_;

  // Observability: the slice marker carries the sealed total in
  // nanojoules (llround error ≤ 0.5 nJ/slice), so re-summing a trace
  // reproduces the battery-drain total far inside the differential
  // tests' 1 mJ tolerance. Ids were interned/registered and the
  // recorder/registry pointers cached at construction: nothing here
  // allocates or re-queries the simulator.
  EANDROID_TRACE(trace_, now.micros(), obs::TraceCategory::kEnergy,
                 slice_trace_name_, -1,
                 static_cast<std::int64_t>(std::llround(total_mj * 1e6)));
  if (metrics_ != nullptr) {
    metrics_->add(slices_metric_);
    metrics_->observe(slice_mj_metric_, total_mj);
  }
  return kept;
}

}  // namespace eandroid::energy
