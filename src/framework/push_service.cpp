#include "framework/push_service.h"

namespace eandroid::framework {

PushService::PushService(sim::Simulator& sim, PackageManager& packages,
                         kernelsim::BinderDriver& binder,
                         kernelsim::CpuScheduler& cpu,
                         hw::SessionComponent& wifi, AppHost& host,
                         EventBus& events)
    : sim_(sim),
      packages_(packages),
      binder_(binder),
      cpu_(cpu),
      wifi_(wifi),
      host_(host),
      events_(events) {}

void PushService::register_endpoint(kernelsim::Uid uid) {
  endpoints_.insert(uid);
}

void PushService::unregister_endpoint(kernelsim::Uid uid) {
  endpoints_.erase(uid);
}

bool PushService::send_push(kernelsim::Uid sender,
                            const std::string& target_package,
                            std::uint64_t bytes) {
  const PackageRecord* pkg = packages_.find(target_package);
  if (pkg == nullptr || !endpoints_.contains(pkg->uid)) return false;
  const kernelsim::Uid target = pkg->uid;

  // Radio on both ends for the transfer; tails follow automatically.
  const hw::SessionId tx = wifi_.begin_session(sender);
  const hw::SessionId rx = wifi_.begin_session(target);
  const sim::Duration airtime =
      sim::millis(30) + sim::micros(static_cast<std::int64_t>(bytes) * 8);
  sim_.schedule(airtime, [this, tx, rx] {
    wifi_.end_session(tx);
    wifi_.end_session(rx);
  });

  // The receiver's process is woken with high priority and pays the
  // handling cost.
  const kernelsim::Pid from = host_.pid_of(sender);
  const kernelsim::Pid to = host_.ensure_process(target);
  binder_.transact(from, to, bytes);
  cpu_.charge_burst(to, sim::millis(15));

  FwEvent event;
  event.type = FwEventType::kPushDelivered;
  event.when = sim_.now();
  event.driving = sender;
  event.driven = target;
  event.component = "push";
  events_.publish(event);

  if (AppCode* code = host_.code_of(target)) {
    code->on_push(host_.context_of(target), bytes);
  }
  ++delivered_;
  return true;
}

}  // namespace eandroid::framework
