#include "fuzz/oracle.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "fleet/fleet.h"
#include "framework/system_server.h"
#include "fuzz/executor.h"
#include "sim/check.h"

namespace eandroid::fuzz {

namespace {

struct Observed {
  std::vector<std::string> digests;
  std::vector<std::string> traces;
  bool operator==(const Observed&) const = default;
};

/// One single-device replay; digests/traces have exactly one element.
Observed run_single(const ScenarioProgram& program, bool trace) {
  fleet::DeviceSpec spec;
  spec.seed = program.seed;
  spec.obs.trace = trace;
  fleet::DeviceContext bed(spec);
  install_cast(bed);
  bed.start();
  ProgramExecutor executor(bed, program);
  executor.run();
  Observed out;
  out.digests.push_back(bed.energy_digest());
  if (trace) out.traces.push_back(bed.trace_text());
  return out;
}

constexpr int kFleetDevices = 4;

fleet::FleetOptions fleet_options(const ScenarioProgram& program,
                                  bool trace) {
  fleet::FleetOptions options;
  options.device_count = kFleetDevices;
  options.base_seed = program.seed;
  options.seed_stride = 1;
  options.workers = 4;
  options.epoch = sim::seconds(1);
  options.obs.trace = trace;
  options.install_plan = cast_install_plan();
  return options;
}

/// The push campaign both fleet legs layer on top of the program, so
/// cross-device injection is in play. Instants sit off the 250 ms
/// sampling grid (broker contract).
fleet::PushCampaign fleet_campaign() {
  fleet::PushCampaign campaign;
  campaign.sender_package = kCastPackages[2];
  campaign.target_package = kCastPackages[kPushApp];
  campaign.start = sim::TimePoint{} + sim::millis(1501);
  campaign.period = sim::millis(673);
  campaign.pushes_per_device = 4;
  campaign.device_stagger = sim::millis(13);
  return campaign;
}

/// The fleet reference: each device built alone from the fleet's spec and
/// driven serially through the same causal windows.
Observed run_serial_fleet(const ScenarioProgram& program, bool trace) {
  const fleet::FleetOptions options = fleet_options(program, trace);
  fleet::PushBroker broker;
  broker.add_campaign(fleet_campaign());
  Observed out;
  for (int i = 0; i < kFleetDevices; ++i) {
    fleet::DeviceContext device(fleet::device_spec(options, i));
    device.start();
    ProgramExecutor executor(device, program);
    executor.arm();
    fleet::run_serially(device, i, broker,
                        sim::micros(program.horizon_us), options.epoch);
    device.finish();
    out.digests.push_back(device.energy_digest());
    if (trace) out.traces.push_back(device.trace_text());
  }
  return out;
}

/// Every device runs the same program (device rng seeds differ via
/// seed_stride, so the population is not N clones) on the multi-worker
/// fleet.
Observed run_fleet(const ScenarioProgram& program, bool trace) {
  fleet::Fleet f(fleet_options(program, trace));
  f.broker().add_campaign(fleet_campaign());
  f.start();
  // Arm between start() and the first run (driver-thread window). The
  // executors outlive the run: their closures fire on the fleet's
  // workers.
  std::vector<std::unique_ptr<ProgramExecutor>> executors;
  executors.reserve(kFleetDevices);
  for (int i = 0; i < kFleetDevices; ++i) {
    executors.push_back(
        std::make_unique<ProgramExecutor>(f.device(i), program));
    executors.back()->arm();
  }
  f.run_for(sim::micros(program.horizon_us));
  f.finish();

  Observed out;
  out.digests = f.energy_digests();
  if (trace) {
    for (int i = 0; i < kFleetDevices; ++i) {
      out.traces.push_back(f.device(i).trace_text());
    }
  }
  return out;
}

class Stopwatch {
 public:
  Stopwatch() : begin_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point begin_;
};

void compare(const char* leg, const Observed& reference, const Observed& got,
             OracleVerdict* verdict) {
  for (std::size_t i = 0; i < reference.digests.size(); ++i) {
    if (got.digests[i] != reference.digests[i]) {
      std::ostringstream msg;
      msg << leg << ": digest mismatch on device " << i;
      verdict->failures.push_back(msg.str());
      break;
    }
  }
  for (std::size_t i = 0; i < reference.traces.size(); ++i) {
    if (got.traces[i] != reference.traces[i]) {
      std::ostringstream msg;
      msg << leg << ": trace mismatch on device " << i;
      verdict->failures.push_back(msg.str());
      break;
    }
  }
}

template <typename Fn>
Observed timed(const char* leg, OracleVerdict* verdict, const Fn& fn) {
  const Stopwatch watch;
  Observed out = fn();
  verdict->timings.push_back({leg, watch.seconds()});
  return out;
}

}  // namespace

RecoveryCounts read_recovery(framework::SystemServer& server) {
  return {.service_restarts = server.services().restarts_total(),
          .anr_kills = server.anr_kills(),
          .binder_failures = server.binder().failed_total(),
          .broadcasts_dropped = server.broadcasts().dropped_total(),
          .alarms_delayed = server.alarms().delayed_total()};
}

std::string OracleVerdict::to_string() const {
  std::ostringstream out;
  for (const std::string& f : failures) out << f << "\n";
  for (const std::string& v : invariant_violations) out << v << "\n";
  return out.str();
}

OracleVerdict run_oracle(const ScenarioProgram& program,
                         const OracleOptions& options) {
  std::vector<std::string> problems;
  EANDROID_CHECK(validate(program, &problems),
                 "oracle input fails the grammar: "
                     << (problems.empty() ? std::string("?") : problems[0]));
  OracleVerdict verdict;
  const bool trace = options.trace;

  if (options.single_legs) {
    const Observed reference = timed("single.reference", &verdict, [&] {
      return run_single(program, trace);
    });
    compare("single.determinism", reference,
            timed("single.determinism", &verdict,
                  [&] { return run_single(program, trace); }),
            &verdict);

    // Invariant leg: its own device, digest never compared (per-step
    // flushes move window boundaries).
    const Stopwatch watch;
    {
      fleet::DeviceSpec spec;
      spec.seed = program.seed;
      fleet::DeviceContext bed(spec);
      install_cast(bed);
      bed.start();
      ProgramExecutor::Options exec_options;
      exec_options.check_invariants_each_step = true;
      ProgramExecutor executor(bed, program, exec_options);
      executor.run();
      executor.check_now("end state");
      verdict.invariant_violations = executor.violations();
      verdict.steps_applied = executor.steps_applied();
      verdict.recovery = read_recovery(bed.server());
    }
    verdict.timings.push_back({"single.invariants", watch.seconds()});
  }

  if (options.fleet_legs) {
    const Observed reference = timed("fleet.reference", &verdict, [&] {
      return run_serial_fleet(program, trace);
    });
    compare("fleet.parallel", reference,
            timed("fleet.parallel", &verdict,
                  [&] { return run_fleet(program, trace); }),
            &verdict);
  }
  return verdict;
}

}  // namespace eandroid::fuzz
