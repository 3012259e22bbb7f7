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
  stopper_ = server_.simulator().every(period_, [this] { tick(); });
}

void EnergySampler::stop() {
  if (!stopper_) return;
  stopper_();
  stopper_ = nullptr;
}

void EnergySampler::flush() { tick(); }

void EnergySampler::gather(sim::TimePoint now, double window_s) {
  // P[mW] * t[s] = E[mJ].
  auto mj_of = [window_s](double mw) { return mw * window_s; };

  slice_.reset(window_begin_, now);
  window_begin_ = now;

  // --- CPU ---
  const kernelsim::CpuWindow& cpu = server_.cpu().sample_window();
  const bool suspended = server_.cpu().suspended();
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
  const auto charge = [&](const hw::SessionComponent& component, HwPart p) {
    component.breakdown_into(breakdown_);
    double attributed = 0.0;
    // by_uid is sorted ascending: canonical accumulation order.
    for (const auto& [uid, mw] : breakdown_.by_uid) {
      slice_.part(uid, p) += mj_of(mw);
      attributed += mw;
    }
    slice_.system_mj += mj_of(breakdown_.total_mw - attributed);
  };
  charge(server_.camera(), HwPart::kCamera);
  charge(server_.gps(), HwPart::kGps);
  charge(server_.wifi(), HwPart::kWifi);
  charge(server_.audio(), HwPart::kAudio);

  // --- Screen (policy applied by sinks) ---
  slice_.screen_on = server_.screen().on();
  slice_.brightness = server_.screen().brightness();
  slice_.screen_mj = mj_of(server_.screen().power_mw());
  slice_.foreground = server_.activities().foreground_uid();
  // Wakelock state only matters while the screen is up, and the owner
  // list only while wakelocks are what keeps it up — don't pay for the
  // queries (or the owner copy) in the dark.
  if (slice_.screen_on) {
    slice_.screen_forced_by_wakelock =
        server_.power().screen_forced_by_wakelock();
    if (slice_.screen_forced_by_wakelock) {
      server_.power().screen_wakelock_owners_into(
          slice_.screen_wakelock_owners);
    }
  }
}

void EnergySampler::fold() {
  // Fused first: one cell pass feeds every built-in accumulator; the
  // external observers then see the same sealed slice.
  if (pipeline_ != nullptr) pipeline_->run(slice_);
  for (AccountingSink* sink : sinks_) sink->on_slice(slice_);
}

void EnergySampler::tick() {
  using clock = std::chrono::steady_clock;
  const sim::TimePoint now = server_.simulator().now();
  const sim::Duration window = now - window_begin_;
  if (window <= sim::Duration(0)) return;

  const clock::time_point t0 = stage_timing_ ? clock::now()
                                             : clock::time_point{};
  gather(now, window.seconds());
  slice_.seal();

  // Net battery flow: consumption always drains; a connected charger
  // back-fills at its rate over the same window. total_mj() is a pure
  // fold over the sealed slice — computed once, reused by the trace
  // marker and metrics below.
  const double total_mj = slice_.total_mj();
  server_.battery().drain(total_mj, now);
  if (server_.battery().charging()) {
    server_.battery().charge(server_.battery().charge_rate_mw() *
                                 window.seconds(),
                             now);
  }

  const clock::time_point t1 = stage_timing_ ? clock::now()
                                             : clock::time_point{};
  fold();
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
}

}  // namespace eandroid::energy
