// SystemServer: the composition root of the simulated device.
//
// Owns the kernel objects, the hardware models, and every framework
// service, and implements AppHost (per-app process management + Context
// delivery). A test or bench builds one SystemServer per simulated phone,
// installs apps, calls boot(), and then drives user actions while an
// energy profiler (energy/ or core/) samples power.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "framework/activity_manager.h"
#include "framework/alarm_manager.h"
#include "framework/app_host.h"
#include "framework/broadcast_manager.h"
#include "framework/context.h"
#include "framework/events.h"
#include "framework/lmk.h"
#include "framework/notification_service.h"
#include "framework/package_manager.h"
#include "framework/push_service.h"
#include "framework/power_manager.h"
#include "framework/service_manager.h"
#include "framework/settings_provider.h"
#include "framework/window_manager.h"
#include "hw/battery.h"
#include "hw/power_params.h"
#include "hw/screen.h"
#include "hw/session_component.h"
#include "kernel/binder.h"
#include "kernel/cpu_sched.h"
#include "kernel/interner.h"
#include "kernel/process_table.h"
#include "kernel/types.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace eandroid::framework {

/// Well-known system package names.
inline constexpr const char* kLauncherPackage = "com.android.launcher";
inline constexpr const char* kSystemUiPackage = "com.android.systemui";
inline constexpr const char* kPhonePackage = "com.android.phone";

class SystemServer : public AppHost {
 public:
  /// How long a main-thread delivery may sit undrained in a hung app
  /// before the watchdog declares ANR and kills the process. Android uses
  /// 10 s for broadcasts and 20 s for services; one device-wide constant
  /// keeps the model simple.
  static constexpr sim::Duration kAnrTimeout = sim::seconds(10);

  /// Primary form: the server aliases an immutable, possibly fleet-shared
  /// parameter object (must be non-null). N devices built from the same
  /// pointer hold ONE PowerParams between them.
  SystemServer(sim::Simulator& sim,
               std::shared_ptr<const hw::PowerParams> params,
               obs::ObsOptions obs = {});
  /// One-device convenience: copies `params` into a private shared object
  /// (the stock singleton is aliased, not copied).
  explicit SystemServer(sim::Simulator& sim,
                        const hw::PowerParams& params = hw::nexus4_params(),
                        obs::ObsOptions obs = {})
      : SystemServer(sim,
                     &params == &hw::nexus4_params()
                         ? hw::shared_nexus4_params()
                         : std::make_shared<const hw::PowerParams>(params),
                     obs) {}
  ~SystemServer() override;

  SystemServer(const SystemServer&) = delete;
  SystemServer& operator=(const SystemServer&) = delete;

  /// Installs a third-party app. Call before or after boot().
  kernelsim::Uid install(Manifest manifest, std::unique_ptr<AppCode> code);
  /// Fleet form: the manifest is immutable and shared — every device in a
  /// fleet installs the same Manifest object, not a copy.
  kernelsim::Uid install(std::shared_ptr<const Manifest> manifest,
                         std::unique_ptr<AppCode> code);

  /// Installs the launcher and SystemUI, then brings up the home screen.
  void boot();

  // --- User agent (drives the device like the experimenter's finger) ---
  void user_tap(int x, int y);
  bool user_launch(const std::string& package) {
    return activities_.user_launch(package);
  }
  void user_press_home() { activities_.user_press_home(); }
  void user_press_back() { activities_.user_press_back(); }
  bool user_switch_to(const std::string& package) {
    return activities_.user_switch_to(package);
  }
  /// User changes brightness through SystemUI's slider.
  void user_set_brightness(int value);
  void user_set_screen_mode(BrightnessMode mode);
  /// User unlocks the device: screen on, ACTION_USER_PRESENT broadcast —
  /// the auto-launch trigger the paper's stealthy malware listens for.
  void user_unlock();
  /// An incoming call pops the phone UI over the foreground app for
  /// `duration` — the benign interruption of §III-A that strands leaked
  /// wakelocks.
  void simulate_incoming_call(sim::Duration duration);
  /// Charger plugged/unplugged: battery refills at `rate_mw`, the screen
  /// lights briefly, and POWER_CONNECTED/DISCONNECTED is broadcast.
  void plug_charger(double rate_mw = 5000.0);
  void unplug_charger();

  // --- Subsystem access ---
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] kernelsim::ProcessTable& processes() { return processes_; }
  [[nodiscard]] kernelsim::BinderDriver& binder() { return binder_; }
  [[nodiscard]] kernelsim::CpuScheduler& cpu() { return cpu_; }
  [[nodiscard]] kernelsim::IdTable& ids() { return ids_; }
  [[nodiscard]] hw::Screen& screen() { return screen_; }
  [[nodiscard]] hw::SessionComponent& camera() { return camera_; }
  [[nodiscard]] hw::SessionComponent& gps() { return gps_; }
  [[nodiscard]] hw::SessionComponent& wifi() { return wifi_; }
  [[nodiscard]] hw::SessionComponent& audio() { return audio_; }
  [[nodiscard]] hw::Battery& battery() { return battery_; }
  [[nodiscard]] EventBus& events() { return events_; }
  [[nodiscard]] PackageManager& packages() { return packages_; }
  [[nodiscard]] SettingsProvider& settings() { return settings_; }
  [[nodiscard]] PowerManagerService& power() { return power_; }
  [[nodiscard]] WindowManager& windows() { return windows_; }
  [[nodiscard]] ServiceManager& services() { return services_; }
  [[nodiscard]] ActivityManager& activities() { return activities_; }
  [[nodiscard]] BroadcastManager& broadcasts() { return broadcasts_; }
  [[nodiscard]] AlarmManager& alarms() { return alarms_; }
  [[nodiscard]] PushService& push() { return push_; }
  [[nodiscard]] LowMemoryKiller& lmk() { return lmk_; }
  [[nodiscard]] NotificationService& notifications() {
    return notifications_;
  }
  /// Per-device observability (trace ring + metrics registry). The sim's
  /// trace()/metrics() pointers alias this object while the server lives.
  [[nodiscard]] obs::Observability& obs() { return obs_; }
  [[nodiscard]] const obs::Observability& obs() const { return obs_; }
  [[nodiscard]] const hw::PowerParams& params() const { return *params_; }
  /// The shared immutable parameter object itself (never null); devices
  /// built from one fleet config return aliases of the same pointer.
  [[nodiscard]] const std::shared_ptr<const hw::PowerParams>& params_ptr()
      const {
    return params_;
  }
  [[nodiscard]] kernelsim::Uid launcher_uid() const { return launcher_uid_; }
  [[nodiscard]] kernelsim::Uid phone_uid() const { return phone_uid_; }

  // --- Fault injection / ANR watchdog ---
  /// Marks an app's main thread as hung (fault injection): deliveries
  /// routed through post_to_main queue up instead of running. If any
  /// delivery sits queued for kAnrTimeout the watchdog kills the app
  /// (publishing kAnr first) and drops the queue. Unhanging drains the
  /// queue in order. Unknown uid is a checked error; hanging an app with
  /// no process is a no-op.
  void set_app_hung(kernelsim::Uid uid, bool hung);
  [[nodiscard]] bool app_hung(kernelsim::Uid uid) const {
    return hung_.contains(uid);
  }
  /// Deliveries currently parked on the app's main-thread queue.
  [[nodiscard]] std::size_t main_queue_depth(kernelsim::Uid uid) const;
  [[nodiscard]] std::uint64_t anr_kills() const { return anr_kills_; }

  // --- AppHost ---
  void post_to_main(kernelsim::Uid uid, std::function<void()> deliver) override;
  kernelsim::Pid ensure_process(kernelsim::Uid uid) override;
  [[nodiscard]] kernelsim::Pid pid_of(kernelsim::Uid uid) const override;
  AppCode* code_of(kernelsim::Uid uid) override;
  Context& context_of(kernelsim::Uid uid) override;
  void kill_app(kernelsim::Uid uid) override;

 private:
  /// Main-thread delivery bookkeeping for the ANR model. `enqueued` and
  /// `drained` are monotonic; a one-shot watchdog check knows the
  /// delivery it guards was drained when `drained` has passed its
  /// sequence number.
  struct MainQueue {
    std::vector<std::function<void()>> pending;
    std::uint64_t enqueued = 0;
    std::uint64_t drained = 0;
  };
  void drain_main_queue(kernelsim::Uid uid);
  sim::Simulator& sim_;
  /// Immutable and potentially shared across every device of a fleet;
  /// declared before the hardware models, which hold references into it.
  std::shared_ptr<const hw::PowerParams> params_;

  /// Per-device observability. Declared before every kernel/hw/service
  /// member and bound into sim_ by obs_binder_ (immediately below), so
  /// any subsystem may intern trace names and register metrics from its
  /// own constructor. The destructor detaches the sim's pointers again —
  /// the Simulator outlives the server.
  obs::Observability obs_;
  struct ObsBinder {
    ObsBinder(sim::Simulator& sim, obs::Observability& obs) {
      sim.set_observability(obs.trace(), &obs.metrics());
    }
  };
  ObsBinder obs_binder_;

  kernelsim::ProcessTable processes_;
  kernelsim::BinderDriver binder_;
  /// Shared identifier interner; declared before its consumers (cpu_ and,
  /// through accessors, the energy layer) so it outlives them.
  kernelsim::IdTable ids_;
  kernelsim::CpuScheduler cpu_;

  hw::Screen screen_;
  hw::SessionComponent camera_;
  hw::SessionComponent gps_;
  hw::SessionComponent wifi_;
  hw::SessionComponent audio_;
  hw::Battery battery_;

  EventBus events_;
  PackageManager packages_;
  SettingsProvider settings_;
  PowerManagerService power_;
  WindowManager windows_;
  ServiceManager services_;
  ActivityManager activities_;
  BroadcastManager broadcasts_;
  AlarmManager alarms_;
  PushService push_;
  LowMemoryKiller lmk_;
  NotificationService notifications_;

  /// Pre-interned trace names, indexed by FwEventType, for the EventBus
  /// subscription that mirrors every framework event into the trace.
  std::vector<std::uint32_t> fw_trace_names_;
  obs::MetricId fw_bus_metric_ = 0;
  obs::MetricId anr_metric_ = 0;

  std::unordered_map<kernelsim::Uid, kernelsim::Pid> process_of_;
  std::unordered_map<kernelsim::Uid, std::unique_ptr<Context>> contexts_;
  std::unordered_set<kernelsim::Uid> hung_;
  std::unordered_map<kernelsim::Uid, MainQueue> main_queues_;
  std::uint64_t anr_kills_ = 0;
  kernelsim::Uid launcher_uid_;
  kernelsim::Uid systemui_uid_;
  kernelsim::Uid phone_uid_;
};

}  // namespace eandroid::framework
