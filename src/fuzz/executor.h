// ProgramExecutor: replays one ScenarioProgram on one DeviceContext.
//
// Every step is scheduled up front at its absolute virtual instant, so
// the same program drives a single-phone Testbed, every device of a
// fleet, and the fleet's serial reference. The executor owns the runtime
// handles the grammar speaks of abstractly (binding/wakelock/alarm/sensor
// stacks per actor) and is
// defensive at the pop sites: a handle reaped by a crash or an ANR kill
// makes the release a no-op, never an error, so fault ops and framework
// recovery can perturb state without ever making a valid program
// unreplayable. All legs replay identical call sequences, so those
// no-ops are identical across legs too.
//
// Optional per-step invariant checking (the fuzzer's first oracle): after
// each step the sampler is flushed and the full InvariantChecker runs.
// Flushing mid-run moves sample-window boundaries, so a checking run has
// a DIFFERENT (still deterministic) digest from an unchecked one — the
// oracle gives the invariant leg its own device and never digest-compares
// it against the differential legs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/invariants.h"
#include "fleet/device_context.h"
#include "fleet/install_plan.h"
#include "fuzz/program.h"

namespace eandroid::fuzz {

/// The fixed four-app cast every program runs against, by cast index:
/// victim (exported service + wakelock bug), messenger (push endpoint),
/// camera app, settings-privileged music app.
extern const char* const kCastPackages[kCastSize];

/// Installs the cast into a not-yet-started device (the Testbed path).
void install_cast(fleet::DeviceContext& bed);

/// One shared InstallPlan of the same cast (the fleet path); manifests
/// are frozen once and aliased into every device.
[[nodiscard]] std::shared_ptr<const fleet::InstallPlan> cast_install_plan();

class ProgramExecutor {
 public:
  struct Options {
    /// Flush + run the InvariantChecker after every step (see file
    /// comment for the digest caveat).
    bool check_invariants_each_step = false;
  };

  /// `bed` must have the cast installed and outlive the run; the program
  /// is copied. Call arm() after bed.start() and before advancing time.
  ProgramExecutor(fleet::DeviceContext& bed, const ScenarioProgram& program);
  ProgramExecutor(fleet::DeviceContext& bed, const ScenarioProgram& program,
                  Options options);

  /// Schedules every step at its absolute instant on the device's
  /// simulator. Checked error if any step is already in the past.
  void arm();

  /// Runs the whole program on a standalone device: arm, advance to the
  /// horizon, flush. (Fleet runs advance through Fleet::run_for instead.)
  void run();

  /// Flushes the sampler and runs the invariant checker now, labelling
  /// any violations with `label`. Called automatically per step when
  /// Options::check_invariants_each_step is set.
  void check_now(const std::string& label);

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t steps_applied() const { return applied_; }

 private:
  void apply(const Step& step);
  /// Records the `fault` trace mark of a fault op: named by the op's
  /// token, on the actor's uid (-1 for device-wide ops), arg `a`.
  void trace_fault(const Step& step);
  [[nodiscard]] framework::Context& ctx(int app);
  [[nodiscard]] kernelsim::Uid uid(int app);

  struct ActorHandles {
    std::vector<framework::BindingId> bindings;
    std::vector<framework::WakelockId> locks;
    std::vector<framework::AlarmId> alarms;
    std::vector<hw::SessionId> sessions[4];
  };

  fleet::DeviceContext& bed_;
  ScenarioProgram program_;
  Options options_;
  ActorHandles handles_[kCastSize];
  std::vector<std::string> violations_;
  std::uint64_t applied_ = 0;
};

}  // namespace eandroid::fuzz
