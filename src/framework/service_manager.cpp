#include "framework/service_manager.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/check.h"

namespace eandroid::framework {

namespace {
std::string key_of(const ComponentRef& ref) {
  return ref.package + "/" + ref.component;
}

sim::Duration backoff_delay(int crashes) {
  std::int64_t us = ServiceManager::kRestartBase.micros();
  const std::int64_t cap = ServiceManager::kRestartMax.micros();
  for (int i = 0; i < crashes; ++i) {
    us *= 2;
    if (us >= cap) return sim::micros(cap);
  }
  return sim::micros(us);
}
}  // namespace

ServiceManager::ServiceManager(sim::Simulator& sim, PackageManager& packages,
                               kernelsim::ProcessTable& processes,
                               kernelsim::BinderDriver& binder, AppHost& host,
                               EventBus& events)
    : sim_(sim),
      packages_(packages),
      processes_(processes),
      binder_(binder),
      host_(host),
      events_(events) {
  // A dying host process takes its services with it (no onDestroy runs —
  // the process is gone). Bindings from live clients are dropped, and
  // started services get a backed-off restart. Records are visited in
  // key order: restart events scheduled at the same instant must enqueue
  // deterministically, and unordered_map iteration order is not.
  processes_.add_death_observer([this](const kernelsim::ProcessInfo& info) {
    std::vector<std::string> keys;
    for (const auto& [key, record] : records_) {
      if (record.uid == info.uid) keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) on_host_death(records_.at(key));
  });
}

ServiceManager::ServiceRecord& ServiceManager::record_for(
    const ComponentRef& ref, kernelsim::Uid uid) {
  auto [it, inserted] = records_.try_emplace(key_of(ref));
  if (inserted) {
    it->second.ref = ref;
    it->second.uid = uid;
  }
  return it->second;
}

void ServiceManager::publish(FwEventType type, kernelsim::Uid driving,
                             kernelsim::Uid driven,
                             const std::string& component,
                             std::uint64_t handle) {
  FwEvent event;
  event.type = type;
  event.when = sim_.now();
  event.driving = driving;
  event.driven = driven;
  event.component = component;
  event.handle = handle;
  events_.publish(event);
}

void ServiceManager::bring_up(ServiceRecord& record) {
  if (record.alive) return;
  host_.ensure_process(record.uid);
  record.alive = true;
  if (AppCode* code = host_.code_of(record.uid)) {
    code->on_service_create(host_.context_of(record.uid),
                            record.ref.component);
  }
}

void ServiceManager::maybe_tear_down(ServiceRecord& record) {
  if (!record.alive || record.started || !record.bindings.empty()) return;
  cancel_pending(record);
  record.alive = false;
  record.foreground = false;
  if (AppCode* code = host_.code_of(record.uid)) {
    code->on_service_destroy(host_.context_of(record.uid),
                             record.ref.component);
  }
}

void ServiceManager::cancel_pending(ServiceRecord& record) {
  if (record.pending_delivery.valid()) {
    sim_.cancel(record.pending_delivery);
    record.pending_delivery = {};
  }
}

void ServiceManager::schedule_start_command(ServiceRecord& record) {
  cancel_pending(record);
  const std::string key = key_of(record.ref);
  record.pending_delivery = sim_.schedule(kStartCommandDispatch, [this, key] {
    auto it = records_.find(key);
    if (it == records_.end()) return;
    ServiceRecord& rec = it->second;
    rec.pending_delivery = {};
    if (!rec.alive || !rec.started) return;
    deliver_start_command(rec);
  });
}

void ServiceManager::deliver_start_command(ServiceRecord& record) {
  // Routed through the host's main-thread queue so a hung app defers the
  // callback (and eventually ANRs) instead of running it.
  const std::string key = key_of(record.ref);
  host_.post_to_main(record.uid, [this, key] {
    auto it = records_.find(key);
    if (it == records_.end()) return;
    ServiceRecord& rec = it->second;
    if (!rec.alive || !rec.started) return;
    if (AppCode* code = host_.code_of(rec.uid)) {
      code->on_service_start_command(host_.context_of(rec.uid),
                                     rec.ref.component);
    }
  });
}

void ServiceManager::on_host_death(ServiceRecord& record) {
  // An undelivered onStartCommand must die with the process: were the
  // event left live, a quick re-start of the service would race it and
  // the re-spawned process would see the command delivered twice.
  cancel_pending(record);
  if (!record.alive) return;
  const bool was_started = record.started;
  record.alive = false;
  record.started = false;
  record.foreground = false;
  for (const Binding& binding : record.bindings) {
    binder_.unlink_to_death(binding.client_token);
    record_by_binding_.erase(binding.id);
  }
  record.bindings.clear();
  if (was_started) schedule_restart(record);
}

void ServiceManager::schedule_restart(ServiceRecord& record) {
  const sim::TimePoint now = sim_.now();
  // ActiveServices: a service that ran cleanly through the reset window
  // since its previous crash starts over at the base delay.
  if (record.crashes > 0 && now - record.last_crash >= kRestartResetWindow) {
    record.crashes = 0;
  }
  const sim::Duration delay = backoff_delay(record.crashes);
  record.last_crash = now;
  ++record.crashes;
  record.restart_pending = true;
  const std::string key = key_of(record.ref);
  record.restart_event =
      sim_.schedule(delay, [this, key] { restart_now(key); });
  // Cold path (only crashed started-services land here): the backoff
  // decision, with its chosen delay, is the recovery breadcrumb the
  // golden traces and the backoff-reset test key on.
  EANDROID_TRACE_LIT(sim_.trace(), now.micros(),
                     obs::TraceCategory::kRecovery, "svc.backoff",
                     record.uid.value, delay.micros());
  if (auto* m = sim_.metrics()) m->add(m->counter("fw.service_backoffs"));
}

void ServiceManager::restart_now(const std::string& key) {
  auto it = records_.find(key);
  if (it == records_.end()) return;
  ServiceRecord& record = it->second;
  if (!record.restart_pending) return;
  record.restart_pending = false;
  record.restart_event = {};
  ++restarts_;
  EANDROID_TRACE_LIT(sim_.trace(), sim_.now().micros(),
                     obs::TraceCategory::kRecovery, "svc.restart",
                     record.uid.value,
                     static_cast<std::int64_t>(record.crashes));
  if (auto* m = sim_.metrics()) m->add(m->counter("fw.service_restarts"));
  bring_up(record);
  record.started = true;
  // Attribution survives the crash: the restart is published with the
  // original starter as the driving uid, so a crash-looping chain cannot
  // launder its collateral onto the system account.
  publish(FwEventType::kServiceStart, record.last_starter, record.uid,
          record.ref.component);
  schedule_start_command(record);
}

bool ServiceManager::start_service(kernelsim::Uid caller,
                                   const Intent& intent) {
  const auto ref = packages_.resolve_service(caller, intent);
  if (!ref) return false;
  const PackageRecord* pkg = packages_.find(ref->package);
  EANDROID_CHECK(pkg != nullptr,
                 "resolved service in unknown package " << ref->package);
  ServiceRecord& record = record_for(*ref, pkg->uid);

  // An explicit start supersedes a pending crash-restart.
  if (record.restart_pending) {
    sim_.cancel(record.restart_event);
    record.restart_pending = false;
    record.restart_event = {};
  }

  // Warm host: onStartCommand is delivered synchronously, as the seed
  // framework always did. Cold host: the process must spawn first, so
  // delivery is a pending event — cancelled if the host dies before it.
  const bool warm = host_.pid_of(record.uid).valid();
  const kernelsim::Pid from = host_.pid_of(caller);
  const kernelsim::Pid to = host_.ensure_process(record.uid);
  if (!binder_.try_transact(from, to, intent.extras_bytes)) {
    return false;
  }

  bring_up(record);
  record.started = true;
  record.last_starter = caller;
  if (warm) {
    deliver_start_command(record);
    publish(FwEventType::kServiceStart, caller, record.uid, ref->component);
  } else {
    publish(FwEventType::kServiceStart, caller, record.uid, ref->component);
    schedule_start_command(record);
  }
  return true;
}

bool ServiceManager::stop_service(kernelsim::Uid caller,
                                  const Intent& intent) {
  const auto ref = packages_.resolve_service(caller, intent);
  if (!ref) return false;
  auto it = records_.find(key_of(*ref));
  if (it == records_.end()) return false;
  ServiceRecord& record = it->second;
  // stopService on a crashed-but-restarting service cancels the restart.
  if (record.restart_pending) {
    sim_.cancel(record.restart_event);
    record.restart_pending = false;
    record.restart_event = {};
    record.started = false;
    publish(FwEventType::kServiceStop, caller, record.uid, ref->component);
    return true;
  }
  if (!record.alive) return false;
  record.started = false;
  cancel_pending(record);
  publish(FwEventType::kServiceStop, caller, record.uid, ref->component);
  // The paper's attack #3 hinge: a binding keeps the service alive here.
  maybe_tear_down(record);
  return true;
}

bool ServiceManager::stop_self(kernelsim::Uid caller,
                               const std::string& service) {
  const PackageRecord* pkg = packages_.find(caller);
  if (pkg == nullptr) return false;
  auto it = records_.find(pkg->manifest->package + "/" + service);
  if (it == records_.end() || !it->second.alive) return false;
  ServiceRecord& record = it->second;
  record.started = false;
  cancel_pending(record);
  publish(FwEventType::kServiceStopSelf, caller, record.uid, service);
  maybe_tear_down(record);
  return true;
}

std::optional<BindingId> ServiceManager::bind_service(kernelsim::Uid caller,
                                                      const Intent& intent) {
  const auto ref = packages_.resolve_service(caller, intent);
  if (!ref) return std::nullopt;
  const PackageRecord* pkg = packages_.find(ref->package);
  EANDROID_CHECK(pkg != nullptr,
                 "resolved service in unknown package " << ref->package);
  ServiceRecord& record = record_for(*ref, pkg->uid);

  const kernelsim::Pid from = host_.pid_of(caller);
  const kernelsim::Pid to = host_.ensure_process(record.uid);
  if (!binder_.try_transact(from, to, intent.extras_bytes)) {
    return std::nullopt;
  }
  // A successful bind revives the host immediately, so a pending
  // crash-restart collapses into this bring-up — same attribution,
  // restart counter, and start-command delivery as the deferred path —
  // instead of leaving a stale timer to fire on an already-alive
  // service (found by the scenario fuzzer: start, kill, bind).
  if (record.restart_pending) {
    sim_.cancel(record.restart_event);
    restart_now(key_of(*ref));
  }
  bring_up(record);

  const std::uint64_t id = next_binding_++;
  const kernelsim::Pid client_pid = host_.ensure_process(caller);
  const kernelsim::BinderToken token = binder_.mint_token(client_pid);
  record.bindings.push_back(Binding{id, caller, token});
  record_by_binding_[id] = key_of(*ref);

  // Client death drops the binding (and may tear the service down). The
  // unbind event is still published so profilers observing the bus see
  // the connection close.
  binder_.link_to_death(token, [this, id, caller](kernelsim::BinderToken) {
    auto bit = record_by_binding_.find(id);
    if (bit == record_by_binding_.end()) return;
    auto rit = records_.find(bit->second);
    record_by_binding_.erase(bit);
    if (rit == records_.end()) return;
    ServiceRecord& rec = rit->second;
    auto& bs = rec.bindings;
    bs.erase(std::remove_if(bs.begin(), bs.end(),
                            [id](const Binding& b) { return b.id == id; }),
             bs.end());
    publish(FwEventType::kServiceUnbind, caller, rec.uid, rec.ref.component,
            id);
    maybe_tear_down(rec);
  });

  publish(FwEventType::kServiceBind, caller, record.uid, ref->component, id);
  return BindingId{id};
}

bool ServiceManager::unbind_service(kernelsim::Uid caller, BindingId id) {
  auto bit = record_by_binding_.find(id.id);
  if (bit == record_by_binding_.end()) return false;
  auto rit = records_.find(bit->second);
  if (rit == records_.end()) return false;
  ServiceRecord& record = rit->second;
  auto& bs = record.bindings;
  auto found = std::find_if(bs.begin(), bs.end(), [&](const Binding& b) {
    return b.id == id.id && b.client_uid == caller;
  });
  if (found == bs.end()) return false;
  binder_.unlink_to_death(found->client_token);
  bs.erase(found);
  record_by_binding_.erase(bit);
  publish(FwEventType::kServiceUnbind, caller, record.uid,
          record.ref.component, id.id);
  maybe_tear_down(record);
  return true;
}

bool ServiceManager::start_foreground(kernelsim::Uid caller,
                                      const std::string& service) {
  const PackageRecord* pkg = packages_.find(caller);
  if (pkg == nullptr) return false;
  auto it = records_.find(pkg->manifest->package + "/" + service);
  if (it == records_.end() || !it->second.alive) return false;
  it->second.foreground = true;
  return true;
}

bool ServiceManager::stop_foreground(kernelsim::Uid caller,
                                     const std::string& service) {
  const PackageRecord* pkg = packages_.find(caller);
  if (pkg == nullptr) return false;
  auto it = records_.find(pkg->manifest->package + "/" + service);
  if (it == records_.end() || !it->second.foreground) return false;
  it->second.foreground = false;
  return true;
}

bool ServiceManager::is_foreground_service(const std::string& package,
                                           const std::string& service) const {
  auto it = records_.find(package + "/" + service);
  return it != records_.end() && it->second.alive && it->second.foreground;
}

bool ServiceManager::has_foreground_service(kernelsim::Uid uid) const {
  for (const auto& [key, record] : records_) {
    if (record.uid == uid && record.alive && record.foreground) return true;
  }
  return false;
}

bool ServiceManager::running(const std::string& package,
                             const std::string& service) const {
  auto it = records_.find(package + "/" + service);
  return it != records_.end() && it->second.alive;
}

int ServiceManager::binding_count(const std::string& package,
                                  const std::string& service) const {
  auto it = records_.find(package + "/" + service);
  return it == records_.end() ? 0
                              : static_cast<int>(it->second.bindings.size());
}

std::vector<std::string> ServiceManager::running_services_of(
    kernelsim::Uid uid) const {
  std::vector<std::string> out;
  for (const auto& [key, record] : records_) {
    if (record.alive && record.uid == uid) out.push_back(record.ref.component);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ServiceManager::restart_pending(const std::string& package,
                                     const std::string& service) const {
  auto it = records_.find(package + "/" + service);
  return it != records_.end() && it->second.restart_pending;
}

int ServiceManager::crash_count(const std::string& package,
                                const std::string& service) const {
  auto it = records_.find(package + "/" + service);
  return it == records_.end() ? 0 : it->second.crashes;
}

sim::Duration ServiceManager::next_restart_delay(
    const std::string& package, const std::string& service) const {
  auto it = records_.find(package + "/" + service);
  return backoff_delay(it == records_.end() ? 0 : it->second.crashes);
}

std::vector<ServiceSnapshot> ServiceManager::snapshot() const {
  std::vector<std::string> keys;
  keys.reserve(records_.size());
  for (const auto& [key, record] : records_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::vector<ServiceSnapshot> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    const ServiceRecord& record = records_.at(key);
    ServiceSnapshot snap;
    snap.package = record.ref.package;
    snap.component = record.ref.component;
    snap.uid = record.uid;
    snap.alive = record.alive;
    snap.started = record.started;
    snap.foreground = record.foreground;
    snap.restart_pending = record.restart_pending;
    snap.delivery_pending = record.pending_delivery.valid();
    for (const Binding& binding : record.bindings) {
      snap.binding_clients.push_back(binding.client_uid);
    }
    std::sort(snap.binding_clients.begin(), snap.binding_clients.end(),
              [](kernelsim::Uid a, kernelsim::Uid b) {
                return a.value < b.value;
              });
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace eandroid::framework
