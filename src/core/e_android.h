// EAndroid: facade bundling the paper's three components.
//
//   1. framework extension  -> WindowTracker (event monitoring, Fig 5)
//   2. enhanced accounting  -> EAndroidEngine (Algorithm 1)
//   3. revised interface    -> EAndroidBatteryInterface (Fig 8 view)
//
// Construct one per device, attach its engine to the sampler's metering
// pipeline, and read the view when the experiment ends:
//
//   framework::SystemServer server(sim);
//   ...install apps... server.boot();
//   core::EAndroid ea(server);                 // subscribes to events
//   energy::EnergySampler sampler(server);
//   energy::MeteringPipeline pipeline;
//   ea.attach_to(pipeline);
//   sampler.set_pipeline(&pipeline);
//   sampler.start();
//   ...drive scenario...
//   std::cout << ea.view().render("after scenario");
//
// The paper's three overhead configurations map to Mode below.
#pragma once

#include <memory>

#include "core/battery_interface.h"
#include "core/engine.h"
#include "core/window_tracker.h"
#include "framework/system_server.h"

namespace eandroid::core {

enum class Mode {
  /// Monitoring on, accounting off ("E-Android framework" in Fig 10).
  kFrameworkOnly,
  /// Everything on ("Complete E-Android").
  kComplete,
};

class EAndroid {
 public:
  explicit EAndroid(framework::SystemServer& server,
                    Mode mode = Mode::kComplete, EngineConfig config = {});

  /// Registers the engine on `pipeline` in kComplete mode. A
  /// framework-only E-Android registers nothing, so its engine never sees
  /// a slice while the tracker keeps following the framework.
  void attach_to(energy::MeteringPipeline& pipeline);

  [[nodiscard]] WindowTracker& tracker() { return tracker_; }
  [[nodiscard]] const WindowTracker& tracker() const { return tracker_; }
  [[nodiscard]] EAndroidEngine& engine() { return engine_; }
  [[nodiscard]] const EAndroidEngine& engine() const { return engine_; }

  /// Current revised-battery-interface view.
  [[nodiscard]] EAView view() const { return interface_.view(); }
  [[nodiscard]] const EAndroidBatteryInterface& battery_interface() const {
    return interface_;
  }

 private:
  Mode mode_;
  WindowTracker tracker_;
  EAndroidEngine engine_;
  EAndroidBatteryInterface interface_;
};

}  // namespace eandroid::core
