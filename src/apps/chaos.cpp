#include "apps/chaos.h"

#include <algorithm>
#include <cstdio>

#include "apps/testbed.h"
#include "apps/workload.h"
#include "core/invariants.h"
#include "fleet/fault_actions.h"
#include "sim/fault.h"

namespace eandroid::apps {

namespace {
/// Separates the workload's random stream from the fault plan's: both are
/// derived from the same user seed but must not be the same sequence.
constexpr std::uint64_t kWorkloadSalt = 0x9e3779b97f4a7c15ull;

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%llu ", key,
                static_cast<unsigned long long>(value));
  out += buf;
}

void append_f64(std::string& out, const char* key, double value) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s=%.17g ", key, value);
  out += buf;
}
}  // namespace

std::string ChaosResult::digest() const {
  std::string out;
  append_u64(out, "seed", seed);
  append_u64(out, "injected", faults_injected);
  append_u64(out, "skipped", faults_skipped);
  append_u64(out, "restarts", service_restarts);
  append_u64(out, "anr", anr_kills);
  append_u64(out, "binder_fail", binder_failures);
  append_u64(out, "bcast_drop", broadcasts_dropped);
  append_u64(out, "alarm_delay", alarms_delayed);
  append_u64(out, "steps", workload_steps);
  append_u64(out, "win_open", windows_opened);
  append_u64(out, "win_close", windows_closed);
  append_f64(out, "sim_s", sim_seconds);
  append_f64(out, "consumed_mj", consumed_mj);
  append_f64(out, "ea_mj", ea_total_mj);
  append_u64(out, "violations", violations.size());
  return out;
}

ChaosResult run_chaos(const ChaosOptions& options) {
  Testbed bed({.seed = options.seed, .obs = options.obs});
  RandomWorkload workload(bed, {.seed = options.seed ^ kWorkloadSalt});
  bed.start();

  framework::SystemServer& server = bed.server();
  const sim::FaultActions actions = fleet::default_fault_actions(server);

  const sim::FaultPlan plan =
      sim::FaultPlan::generate(options.seed, options.horizon,
                               options.fault_count);
  sim::FaultInjector injector(bed.sim(), actions);
  injector.arm(plan);

  workload.run(options.workload_steps);
  // Let in-flight recoveries settle before checking invariants: 70 s
  // covers the maximum restart backoff (64 s) and any pending ANR check.
  bed.run_for(sim::seconds(70));

  core::InvariantChecker checker(server);
  checker.attach(bed.eandroid());
  checker.attach(&bed.battery_stats());
  checker.attach(&bed.power_tutor());
  const core::InvariantReport report = checker.check();

  ChaosResult result;
  result.seed = options.seed;
  result.plan = plan.describe();
  result.faults_injected = injector.injected_total();
  result.faults_skipped = injector.skipped_total();
  result.service_restarts = server.services().restarts_total();
  result.anr_kills = server.anr_kills();
  result.binder_failures = server.binder().failed_total();
  result.broadcasts_dropped = server.broadcasts().dropped_total();
  result.alarms_delayed = server.alarms().delayed_total();
  result.workload_steps = workload.steps_taken();
  result.windows_opened = bed.eandroid()->tracker().opened_total();
  result.windows_closed = bed.eandroid()->tracker().closed_total();
  result.sim_seconds = bed.sim().now().seconds();
  result.consumed_mj = server.battery().consumed_total_mj();
  result.ea_total_mj = bed.eandroid()->engine().true_total_mj();
  result.violations = report.violations;
  result.trace_text = bed.trace_text();
  return result;
}

}  // namespace eandroid::apps
