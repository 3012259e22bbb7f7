#include "fuzz/executor.h"

#include <sstream>

#include "apps/demo_app.h"
#include "framework/intent.h"
#include "framework/system_server.h"
#include "obs/trace.h"
#include "sim/check.h"

namespace eandroid::fuzz {

using apps::DemoApp;
using apps::DemoAppSpec;
using framework::BrightnessMode;
using framework::Intent;
using framework::WakelockType;

const char* const kCastPackages[kCastSize] = {"com.fuzz.a", "com.fuzz.b",
                                              "com.fuzz.c", "com.fuzz.d"};

namespace {

// The cast's roles (wakelock bug, push handling bursts, camera sessions,
// settings privileges) are the stock demo apps the paper scenes use,
// renamed into the com.fuzz namespace.
std::vector<DemoAppSpec> cast_specs() {
  DemoAppSpec a = apps::victim_spec();
  a.package = kCastPackages[0];
  DemoAppSpec b = apps::message_spec();
  b.package = kCastPackages[1];
  b.background_cpu = 0.1;
  b.push_endpoint = true;
  DemoAppSpec c = apps::camera_spec();
  c.package = kCastPackages[2];
  DemoAppSpec d = apps::music_spec();
  d.package = kCastPackages[3];
  d.permissions.push_back(framework::Permission::kWriteSettings);
  d.permissions.push_back(framework::Permission::kReorderTasks);
  return {a, b, c, d};
}

}  // namespace

void install_cast(fleet::DeviceContext& bed) {
  for (DemoAppSpec& spec : cast_specs()) {
    bed.install<DemoApp>(std::move(spec));
  }
}

std::shared_ptr<const fleet::InstallPlan> cast_install_plan() {
  auto plan = std::make_shared<fleet::InstallPlan>();
  for (DemoAppSpec& spec : cast_specs()) {
    plan->add_app<DemoApp>(std::move(spec));
  }
  return plan;
}

ProgramExecutor::ProgramExecutor(fleet::DeviceContext& bed,
                                 const ScenarioProgram& program)
    : ProgramExecutor(bed, program, Options()) {}

ProgramExecutor::ProgramExecutor(fleet::DeviceContext& bed,
                                 const ScenarioProgram& program,
                                 Options options)
    : bed_(bed), program_(program), options_(options) {}

void ProgramExecutor::arm() {
  for (std::size_t i = 0; i < program_.steps.size(); ++i) {
    bed_.sim().schedule_at(
        sim::TimePoint{} + sim::micros(program_.steps[i].at_us),
        [this, i] {
          apply(program_.steps[i]);
          ++applied_;
          if (options_.check_invariants_each_step) {
            std::ostringstream label;
            label << "step " << i << " (" << to_string(program_.steps[i].op)
                  << ")";
            check_now(label.str());
          }
        });
  }
}

void ProgramExecutor::run() {
  arm();
  bed_.run_for(sim::micros(program_.horizon_us));
}

void ProgramExecutor::check_now(const std::string& label) {
  bed_.sampler().flush();
  core::InvariantChecker checker(bed_.server());
  checker.attach(&bed_.battery_stats());
  checker.attach(&bed_.power_tutor());
  if (bed_.eandroid() != nullptr) checker.attach(bed_.eandroid());
  const core::InvariantReport report = checker.check();
  for (const std::string& violation : report.violations) {
    violations_.push_back(label + ": " + violation);
  }
}

framework::Context& ProgramExecutor::ctx(int app) {
  return bed_.context_of(kCastPackages[app]);
}

kernelsim::Uid ProgramExecutor::uid(int app) {
  return bed_.uid_of(kCastPackages[app]);
}

void ProgramExecutor::trace_fault(const Step& step) {
  // Cold path: the literal is interned per call, and only when a recorder
  // is attached.
  EANDROID_TRACE_LIT(
      bed_.sim().trace(), bed_.sim().now().micros(),
      obs::TraceCategory::kFault, to_string(step.op),
      op_has_actor(step.op) ? uid(step.app).value : -1, step.a);
}

void ProgramExecutor::apply(const Step& step) {
  framework::SystemServer& server = bed_.server();
  ActorHandles& mine = handles_[step.app];
  switch (step.op) {
    case OpKind::kUserLaunch:
      server.user_launch(kCastPackages[step.app]);
      break;
    case OpKind::kUserHome:
      server.user_press_home();
      break;
    case OpKind::kUserBack:
      server.user_press_back();
      break;
    case OpKind::kUserTap:
      server.user_tap(step.a, step.b);
      break;
    case OpKind::kUserUnlock:
      server.user_unlock();
      break;
    case OpKind::kIncomingCall:
      server.simulate_incoming_call(sim::seconds(step.a));
      break;
    case OpKind::kStartActivity:
      ctx(step.app).start_activity(Intent::explicit_for(
          kCastPackages[step.other], DemoApp::kRootActivity));
      break;
    case OpKind::kFinishActivity:
      ctx(step.app).finish_activity(DemoApp::kRootActivity);
      break;
    case OpKind::kStartService:
      ctx(step.app).start_service(
          Intent::explicit_for(kCastPackages[kVictimApp], DemoApp::kService));
      break;
    case OpKind::kStopService:
      ctx(step.app).stop_service(
          Intent::explicit_for(kCastPackages[kVictimApp], DemoApp::kService));
      break;
    case OpKind::kBindService: {
      const auto binding = ctx(step.app).bind_service(
          Intent::explicit_for(kCastPackages[kVictimApp], DemoApp::kService));
      if (binding) mine.bindings.push_back(*binding);
      break;
    }
    case OpKind::kUnbindService:
      // Pop-if-present: the binding may have been reaped by a crash since
      // the grammar balanced it; unbind of a stale id is a harmless false.
      if (!mine.bindings.empty()) {
        const framework::BindingId id = mine.bindings.back();
        mine.bindings.pop_back();
        ctx(step.app).unbind_service(id);
      }
      break;
    case OpKind::kStartForeground:
      ctx(step.app).start_foreground(DemoApp::kService);
      break;
    case OpKind::kStopForeground:
      ctx(step.app).stop_foreground(DemoApp::kService);
      break;
    case OpKind::kAcquireWakelock: {
      const auto lock = ctx(step.app).acquire_wakelock(
          step.a == 1 ? WakelockType::kScreenBright : WakelockType::kPartial,
          "fuzz");
      if (lock) mine.locks.push_back(*lock);
      break;
    }
    case OpKind::kReleaseWakelock:
      if (!mine.locks.empty()) {
        const framework::WakelockId id = mine.locks.back();
        mine.locks.pop_back();
        ctx(step.app).release_wakelock(id);
      }
      break;
    case OpKind::kSetBrightness:
      ctx(step.app).set_brightness(step.a);
      break;
    case OpKind::kSetScreenMode:
      ctx(step.app).set_screen_mode(step.a == 1 ? BrightnessMode::kManual
                                                : BrightnessMode::kAuto);
      break;
    case OpKind::kRegisterReceiver:
      ctx(step.app).register_receiver("com.fuzz.PING");
      break;
    case OpKind::kSendBroadcast:
      ctx(step.app).send_broadcast("com.fuzz.PING");
      break;
    case OpKind::kSetAlarm: {
      const framework::AlarmId id = ctx(step.app).set_alarm(
          sim::seconds(step.a), "fuzz", step.b == 1,
          step.b == 1 ? sim::seconds(5) : sim::Duration(0));
      mine.alarms.push_back(id);
      break;
    }
    case OpKind::kCancelAlarm:
      if (!mine.alarms.empty()) {
        const framework::AlarmId id = mine.alarms.back();
        mine.alarms.pop_back();
        ctx(step.app).cancel_alarm(id);
      }
      break;
    case OpKind::kSendPush:
      ctx(step.app).send_push(kCastPackages[kPushApp],
                              static_cast<std::uint64_t>(step.a));
      break;
    case OpKind::kPostNotification:
      if (step.a == 1) {
        ctx(step.app).post_full_screen_notification("fuzz",
                                                    DemoApp::kRootActivity);
      } else {
        const std::uint64_t id =
            ctx(step.app).post_notification("fuzz", DemoApp::kRootActivity);
        if (step.b == 1) server.notifications().user_tap_notification(id);
      }
      break;
    case OpKind::kCpuBurst:
      ctx(step.app).cpu_burst(sim::millis(step.a));
      break;
    case OpKind::kSensorBegin: {
      framework::Context& c = ctx(step.app);
      hw::SessionId id;
      switch (step.a) {
        case 0: id = c.camera_begin(); break;
        case 1: id = c.gps_begin(); break;
        case 2: id = c.wifi_begin(); break;
        default: id = c.audio_begin(); break;
      }
      mine.sessions[step.a].push_back(id);
      break;
    }
    case OpKind::kSensorEnd:
      if (!mine.sessions[step.a].empty()) {
        const hw::SessionId id = mine.sessions[step.a].back();
        mine.sessions[step.a].pop_back();
        framework::Context& c = ctx(step.app);
        switch (step.a) {
          case 0: c.camera_end(id); break;
          case 1: c.gps_end(id); break;
          case 2: c.wifi_end(id); break;
          default: c.audio_end(id); break;
        }
      }
      break;
    case OpKind::kPlugCharger:
      server.plug_charger();
      break;
    case OpKind::kUnplugCharger:
      server.unplug_charger();
      break;
    case OpKind::kKillApp:
      trace_fault(step);
      // No ctx(): killing must not spawn the process first. Double-kill of
      // an already-dead uid is a no-op in the server.
      server.kill_app(uid(step.app));
      break;
    case OpKind::kHangToggle: {
      trace_fault(step);
      const kernelsim::Uid u = uid(step.app);
      server.set_app_hung(u, !server.app_hung(u));
      break;
    }
    case OpKind::kBinderFailWindow:
      trace_fault(step);
      server.binder().fail_next(step.a);
      break;
    case OpKind::kDropBroadcasts:
      trace_fault(step);
      server.broadcasts().drop_next(step.a);
      break;
    case OpKind::kDelayAlarms:
      trace_fault(step);
      server.alarms().delay_pending(sim::millis(step.a));
      break;
    case OpKind::kBatteryExhaust:
      trace_fault(step);
      // deplete_to, not drain(): the cell collapses, but the device did
      // not consume that energy, so the conservation ledger stays intact.
      server.battery().deplete_to(0.0, bed_.sim().now());
      break;
  }
}

}  // namespace eandroid::fuzz
