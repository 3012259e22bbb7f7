#include "framework/lmk.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eandroid::framework {

LowMemoryKiller::LowMemoryKiller(sim::Simulator& sim,
                                 kernelsim::ProcessTable& processes,
                                 PackageManager& packages,
                                 ActivityManager& activities,
                                 ServiceManager& services,
                                 PowerManagerService& power, AppHost& host,
                                 EventBus& events)
    : sim_(sim),
      processes_(processes),
      packages_(packages),
      activities_(activities),
      services_(services),
      power_(power),
      host_(host),
      events_(events) {
  events_.subscribe([this](const FwEvent& event) {
    if (event.type == FwEventType::kForegroundChange && event.driven.valid()) {
      last_foreground_[event.driven] = event.when;
    }
  });
}

int LowMemoryKiller::priority_of(kernelsim::Uid uid) const {
  if (!host_.pid_of(uid).valid()) return 5;
  if (activities_.foreground_uid() == uid) return 0;
  using State = ActivityRecord::State;
  if (activities_.has_activity_in_state(uid, State::kPaused) ||
      activities_.has_activity_in_state(uid, State::kResumed) ||
      services_.has_foreground_service(uid)) {
    return 1;
  }
  if (!services_.running_services_of(uid).empty() ||
      !power_.held_by(uid).empty()) {
    return 2;
  }
  if (activities_.has_activity_in_state(uid, State::kStopped)) return 3;
  return 4;
}

int LowMemoryKiller::total_rss_mb() const {
  int total = 0;
  for (const PackageRecord* pkg : packages_.all_packages()) {
    if (host_.pid_of(pkg->uid).valid()) total += pkg->manifest->memory_mb;
  }
  return total;
}

int LowMemoryKiller::maybe_reclaim(kernelsim::Uid exclude) {
  if (budget_mb_ <= 0) return 0;
  int killed = 0;
  while (total_rss_mb() > budget_mb_) {
    // Candidates: killable (priority >= 3) non-system processes.
    kernelsim::Uid victim{};
    int victim_priority = -1;
    sim::TimePoint victim_seen;
    for (const PackageRecord* pkg : packages_.all_packages()) {
      const kernelsim::Uid uid = pkg->uid;
      if (uid == exclude || pkg->system_app) continue;
      if (!host_.pid_of(uid).valid()) continue;
      const int priority = priority_of(uid);
      if (priority < 3) continue;
      auto it = last_foreground_.find(uid);
      const sim::TimePoint seen =
          it == last_foreground_.end() ? sim::TimePoint() : it->second;
      const bool better = priority > victim_priority ||
                          (priority == victim_priority && seen < victim_seen);
      if (!victim.valid() || better) {
        victim = uid;
        victim_priority = priority;
        victim_seen = seen;
      }
    }
    if (!victim.valid()) break;  // nothing killable left
    // Cold path (memory-pressure reclaim): literal interning is fine.
    EANDROID_TRACE_LIT(sim_.trace(), sim_.now().micros(),
                       obs::TraceCategory::kRecovery, "lmk.kill",
                       victim.value,
                       static_cast<std::int64_t>(victim_priority));
    if (auto* m = sim_.metrics()) m->add(m->counter("fw.lmk_kills"));
    host_.kill_app(victim);
    ++kills_;
    ++killed;
  }
  return killed;
}

}  // namespace eandroid::framework
