// DeviceSpec: the complete, explicit recipe for one simulated device.
//
// A device's observable behaviour is a pure function of its spec: the
// seed drives every random draw, the options select the E-Android mode
// and sampling period, and the shared pointers name the immutable
// configuration the device aliases. That purity is the fleet's
// determinism contract — two devices built from equal specs produce
// bitwise-identical results no matter which thread advances them.
//
// The shared_ptr<const> fields are the memory contract: PowerParams,
// Manifests (inside the InstallPlan), and EngineConfig exist ONCE per
// fleet and every device aliases them. Null means "use the stock shared
// instance" (params/engine config) or "install nothing" (plan).
#pragma once

#include <cstdint>
#include <memory>

#include "core/e_android.h"
#include "hw/power_params.h"
#include "obs/obs.h"
#include "sim/time.h"

namespace eandroid::fleet {

class InstallPlan;

struct DeviceSpec {
  /// Seed for the device's simulator RNG.
  std::uint64_t seed = 1;
  /// Position in the fleet (0 for a standalone device). Brokers use it to
  /// phase campaigns across the population.
  int device_index = 0;

  bool with_eandroid = true;
  core::Mode eandroid_mode = core::Mode::kComplete;
  sim::Duration sample_period = sim::millis(250);

  /// Observability knob. The options are tiny value config (copied per
  /// device); the TraceRecorder/MetricsRegistry they describe are
  /// per-device mutable state, never shared. Tracing defaults off, and
  /// enabling it does not move a bit of any energy digest (the recorder
  /// interns names into a private table, not the server's IdTable).
  obs::ObsOptions obs{};

  /// Null = hw::shared_nexus4_params().
  std::shared_ptr<const hw::PowerParams> params;
  /// Null = default-constructed EngineConfig (shared stock instance).
  std::shared_ptr<const core::EngineConfig> engine_config;
  /// Packages stamped onto the device at construction; null = none.
  std::shared_ptr<const InstallPlan> install_plan;
};

/// The stock EngineConfig as a shared immutable object (the engine-config
/// leg of the one-per-fleet sharing contract).
[[nodiscard]] const std::shared_ptr<const core::EngineConfig>&
shared_default_engine_config();

}  // namespace eandroid::fleet
