// RandomWorkload: a seeded random user/app session generator.
//
// Drives a Testbed with a plausible mix of user actions (launch, home,
// back, taps) and app operations (cross-app starts, service churn,
// bindings, wakelocks, brightness writes), all drawn from a deterministic
// stream. Used by the property/fuzz tests and by the soak bench; useful
// for any experiment that needs "a day in the life" background noise
// rather than a scripted scenario.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fleet/device_context.h"
#include "sim/rng.h"

namespace eandroid::apps {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Virtual time between steps: uniform in [min_gap, max_gap].
  sim::Duration min_gap = sim::millis(100);
  sim::Duration max_gap = sim::millis(2100);
};

class RandomWorkload {
 public:
  /// Installs a four-app cast (a wakelock-bug victim with a service, a
  /// backgroundable messenger, a camera app, and a privileged music app)
  /// into `bed` — any DeviceContext, the single-phone Testbed included.
  /// Call before bed.start().
  ///
  /// NOTE: step() advances the device's own clock, so a RandomWorkload
  /// device cannot take part in a fleet's causal windows — fleets drive
  /// load through the PushBroker and fault plans instead.
  RandomWorkload(fleet::DeviceContext& bed, WorkloadOptions options = {});

  /// Performs one random operation and advances virtual time.
  void step();

  /// Runs `n` steps.
  void run(int n) {
    for (int i = 0; i < n; ++i) step();
  }

  [[nodiscard]] const std::vector<std::string>& packages() const {
    return apps_;
  }
  [[nodiscard]] std::uint64_t steps_taken() const { return steps_; }

 private:
  fleet::DeviceContext& bed_;
  WorkloadOptions options_;
  sim::Rng rng_;
  std::vector<std::string> apps_;
  std::vector<std::pair<std::string, framework::BindingId>> bindings_;
  std::vector<std::pair<std::string, framework::WakelockId>> locks_;
  std::uint64_t steps_ = 0;
};

}  // namespace eandroid::apps
