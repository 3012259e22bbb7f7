// Testbed: the one-phone convenience wrapper over fleet::DeviceContext.
//
// Historically this class owned the simulator + system server + sampler +
// three profilers itself; that machinery now lives in
// fleet/device_context.h so a Fleet can own N of them. Testbed remains
// the single-device entry point every scenario, test, and bench uses: it
// keeps the familiar TestbedOptions (plain values, freely mutable before
// construction) and translates them into a DeviceSpec, wrapping the
// params and engine config into the spec's shared immutable form.
#pragma once

#include <memory>

#include "fleet/device_context.h"

namespace eandroid::apps {

struct TestbedOptions {
  std::uint64_t seed = 1;
  bool with_eandroid = true;
  core::Mode eandroid_mode = core::Mode::kComplete;
  core::EngineConfig engine_config{};
  sim::Duration sample_period = sim::millis(250);
  hw::PowerParams params = hw::nexus4_params();
  /// Observability: off by default (zero per-tick cost beyond a null
  /// check). Turn on `obs.trace` to capture a TraceRecorder ring the
  /// golden-trace and differential suites can export.
  obs::ObsOptions obs{};
};

class Testbed : public fleet::DeviceContext {
 public:
  explicit Testbed(TestbedOptions options = {})
      : fleet::DeviceContext(spec_from(options)) {}

  /// The DeviceSpec equivalent of one-phone options. The by-value params
  /// and engine config are frozen into private shared objects — sharing
  /// across devices is the fleet path's job (fleet/fleet.h builds specs
  /// that alias one object for the whole population).
  [[nodiscard]] static fleet::DeviceSpec spec_from(
      const TestbedOptions& options) {
    fleet::DeviceSpec spec;
    spec.seed = options.seed;
    spec.with_eandroid = options.with_eandroid;
    spec.eandroid_mode = options.eandroid_mode;
    spec.sample_period = options.sample_period;
    spec.obs = options.obs;
    spec.params = std::make_shared<const hw::PowerParams>(options.params);
    spec.engine_config =
        std::make_shared<const core::EngineConfig>(options.engine_config);
    return spec;
  }
};

}  // namespace eandroid::apps
