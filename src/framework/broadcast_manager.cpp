#include "framework/broadcast_manager.h"

#include <algorithm>

namespace eandroid::framework {

BroadcastManager::BroadcastManager(sim::Simulator& sim,
                                   PackageManager& packages,
                                   kernelsim::BinderDriver& binder,
                                   kernelsim::CpuScheduler& cpu, AppHost& host,
                                   EventBus& events)
    : sim_(sim),
      packages_(packages),
      binder_(binder),
      cpu_(cpu),
      host_(host),
      events_(events) {}

void BroadcastManager::register_receiver(kernelsim::Uid uid,
                                         const std::string& action) {
  auto& list = dynamic_[action];
  if (std::find(list.begin(), list.end(), uid) == list.end()) {
    list.push_back(uid);
  }
}

void BroadcastManager::unregister_receiver(kernelsim::Uid uid,
                                           const std::string& action) {
  auto it = dynamic_.find(action);
  if (it == dynamic_.end()) return;
  auto& list = it->second;
  list.erase(std::remove(list.begin(), list.end(), uid), list.end());
}

int BroadcastManager::send_broadcast(kernelsim::Uid sender,
                                     const std::string& action,
                                     bool by_system) {
  ++sent_;
  // Collect receivers: manifest-declared first (by package name), then
  // dynamic registrations, deduplicated per uid — one onReceive per app
  // per broadcast, like Android's per-receiver delivery collapsed to our
  // one-code-object-per-app model.
  std::vector<kernelsim::Uid> targets;
  auto add = [&targets](kernelsim::Uid uid) {
    if (std::find(targets.begin(), targets.end(), uid) == targets.end()) {
      targets.push_back(uid);
    }
  };
  for (const PackageRecord* pkg : packages_.all_packages()) {
    for (const auto& receiver : pkg->manifest->receivers) {
      if (std::find(receiver.actions.begin(), receiver.actions.end(),
                    action) != receiver.actions.end()) {
        add(pkg->uid);
        break;
      }
    }
  }
  auto dyn = dynamic_.find(action);
  if (dyn != dynamic_.end()) {
    for (kernelsim::Uid uid : dyn->second) add(uid);
  }

  int delivered = 0;
  const kernelsim::Pid from = by_system ? kernelsim::Pid{1}  // system_server
                                        : host_.pid_of(sender);
  for (kernelsim::Uid uid : targets) {
    if (uid == sender) continue;  // apps do not wake themselves
    if (drop_budget_ > 0) {
      // Injected fault: the delivery silently vanishes — no wake, no
      // onReceive, no bus event.
      --drop_budget_;
      ++dropped_;
      continue;
    }
    const kernelsim::Pid to = host_.ensure_process(uid);
    if (!binder_.try_transact(from, to, 512)) {
      ++dropped_;
      continue;
    }

    FwEvent event;
    event.type = FwEventType::kBroadcastDelivered;
    event.when = sim_.now();
    event.driving = sender;
    event.driven = uid;
    event.by_user = by_system;
    event.component = action;
    events_.publish(event);

    // onReceive() runs on the receiver's main thread; charge a small
    // burst (Android budgets ~10 s but typical handlers are ms-scale).
    // A hung receiver parks the delivery until it recovers or ANRs.
    const std::string action_copy = action;
    host_.post_to_main(uid, [this, uid, action_copy] {
      const kernelsim::Pid pid = host_.pid_of(uid);
      if (!pid.valid()) return;
      cpu_.charge_burst(pid, sim::millis(2));
      if (AppCode* code = host_.code_of(uid)) {
        code->on_broadcast(host_.context_of(uid), action_copy);
      }
    });
    ++delivered;
    ++delivered_;
  }
  return delivered;
}

}  // namespace eandroid::framework
