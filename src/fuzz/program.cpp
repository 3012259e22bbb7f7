#include "fuzz/program.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace eandroid::fuzz {

namespace {

struct OpName {
  OpKind op;
  const char* name;
};

constexpr OpName kOpNames[] = {
    {OpKind::kUserLaunch, "user_launch"},
    {OpKind::kUserHome, "user_home"},
    {OpKind::kUserBack, "user_back"},
    {OpKind::kUserTap, "user_tap"},
    {OpKind::kUserUnlock, "user_unlock"},
    {OpKind::kIncomingCall, "incoming_call"},
    {OpKind::kStartActivity, "start_activity"},
    {OpKind::kFinishActivity, "finish_activity"},
    {OpKind::kStartService, "start_service"},
    {OpKind::kStopService, "stop_service"},
    {OpKind::kBindService, "bind_service"},
    {OpKind::kUnbindService, "unbind_service"},
    {OpKind::kStartForeground, "start_foreground"},
    {OpKind::kStopForeground, "stop_foreground"},
    {OpKind::kAcquireWakelock, "acquire_wakelock"},
    {OpKind::kReleaseWakelock, "release_wakelock"},
    {OpKind::kSetBrightness, "set_brightness"},
    {OpKind::kSetScreenMode, "set_screen_mode"},
    {OpKind::kRegisterReceiver, "register_receiver"},
    {OpKind::kSendBroadcast, "send_broadcast"},
    {OpKind::kSetAlarm, "set_alarm"},
    {OpKind::kCancelAlarm, "cancel_alarm"},
    {OpKind::kSendPush, "send_push"},
    {OpKind::kPostNotification, "post_notification"},
    {OpKind::kCpuBurst, "cpu_burst"},
    {OpKind::kSensorBegin, "sensor_begin"},
    {OpKind::kSensorEnd, "sensor_end"},
    {OpKind::kPlugCharger, "plug_charger"},
    {OpKind::kUnplugCharger, "unplug_charger"},
    {OpKind::kKillApp, "kill_app"},
    {OpKind::kHangToggle, "hang_toggle"},
    {OpKind::kBinderFailWindow, "binder_fail_window"},
    {OpKind::kDropBroadcasts, "drop_broadcasts"},
    {OpKind::kDelayAlarms, "delay_alarms"},
    {OpKind::kBatteryExhaust, "battery_exhaust"},
};

static_assert(sizeof(kOpNames) / sizeof(kOpNames[0]) == kOpKindCount,
              "op name table out of sync with OpKind");

/// Per-op parameter envelope: which fields the op uses and their ranges.
/// Unused fields must be zero — programs have exactly one canonical form,
/// so serialization round-trips and shrinker candidates stay comparable.
struct OpShape {
  bool has_actor = true;    // app names a cast member (else must be 0)
  int fixed_actor = -1;     // -1 = any cast index
  bool uses_other = false;  // `other` names a cast member (else 0)
  std::int32_t a_min = 0, a_max = 0;
  std::int32_t b_min = 0, b_max = 0;
};

OpShape shape_of(OpKind op) {
  switch (op) {
    case OpKind::kUserLaunch: return {};
    case OpKind::kUserHome: return {.has_actor = false};
    case OpKind::kUserBack: return {.has_actor = false};
    case OpKind::kUserTap:
      return {.has_actor = false, .a_max = 1079, .b_max = 1919};
    case OpKind::kUserUnlock: return {.has_actor = false};
    case OpKind::kIncomingCall:
      return {.has_actor = false, .a_min = 1, .a_max = 10};
    case OpKind::kStartActivity: return {.uses_other = true};
    case OpKind::kFinishActivity: return {};
    case OpKind::kStartService: return {};
    case OpKind::kStopService: return {};
    case OpKind::kBindService: return {};
    case OpKind::kUnbindService: return {};
    case OpKind::kStartForeground: return {.fixed_actor = kVictimApp};
    case OpKind::kStopForeground: return {.fixed_actor = kVictimApp};
    case OpKind::kAcquireWakelock: return {.a_max = 1};
    case OpKind::kReleaseWakelock: return {};
    case OpKind::kSetBrightness:
      return {.fixed_actor = kSettingsApp, .a_max = 255};
    case OpKind::kSetScreenMode:
      return {.fixed_actor = kSettingsApp, .a_max = 1};
    case OpKind::kRegisterReceiver: return {};
    case OpKind::kSendBroadcast: return {};
    case OpKind::kSetAlarm: return {.a_min = 1, .a_max = 30, .b_max = 1};
    case OpKind::kCancelAlarm: return {};
    case OpKind::kSendPush: return {.a_min = 1, .a_max = 65536};
    case OpKind::kPostNotification: return {.a_max = 1, .b_max = 1};
    case OpKind::kCpuBurst: return {.a_min = 1, .a_max = 1000};
    case OpKind::kSensorBegin: return {.a_max = 3};
    case OpKind::kSensorEnd: return {.a_max = 3};
    case OpKind::kPlugCharger: return {.has_actor = false};
    case OpKind::kUnplugCharger: return {.has_actor = false};
    case OpKind::kKillApp: return {};
    case OpKind::kHangToggle: return {};
    case OpKind::kBinderFailWindow:
      return {.has_actor = false, .a_min = 1, .a_max = 16};
    case OpKind::kDropBroadcasts:
      return {.has_actor = false, .a_min = 1, .a_max = 16};
    case OpKind::kDelayAlarms:
      return {.has_actor = false, .a_min = 1, .a_max = 10000};
    case OpKind::kBatteryExhaust: return {.has_actor = false};
  }
  return {};
}

/// Static (state-free) step checks: index ranges, parameter envelopes,
/// and the all-unused-fields-zero canonical-form rule.
bool step_in_shape(const Step& step, std::string* why) {
  const auto fail = [why](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (static_cast<int>(step.op) >= kOpKindCount) {
    return fail("unknown op");
  }
  const OpShape shape = shape_of(step.op);
  if (shape.has_actor) {
    if (step.app >= kCastSize) return fail("actor out of range");
    if (shape.fixed_actor >= 0 && step.app != shape.fixed_actor) {
      return fail("op requires its fixed actor");
    }
  } else if (step.app != 0) {
    return fail("actorless op must carry app=0");
  }
  if (shape.uses_other) {
    if (step.other >= kCastSize) return fail("other out of range");
  } else if (step.other != 0) {
    return fail("unused other must be 0");
  }
  if (step.a < shape.a_min || step.a > shape.a_max) {
    return fail("param a out of range");
  }
  if (step.b < shape.b_min || step.b > shape.b_max) {
    return fail("param b out of range");
  }
  if (step.op == OpKind::kPostNotification && step.a == 1 && step.b == 1) {
    return fail("full-screen notifications have no tap");
  }
  return true;
}

}  // namespace

const char* to_string(OpKind op) {
  return kOpNames[static_cast<int>(op)].name;
}

bool op_from_string(const std::string& token, OpKind* out) {
  for (const OpName& entry : kOpNames) {
    if (token == entry.name) {
      *out = entry.op;
      return true;
    }
  }
  return false;
}

bool op_has_actor(OpKind op) { return shape_of(op).has_actor; }

std::string ScenarioProgram::serialize() const {
  std::string out = "eandroid-fuzz-program v1\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "seed %" PRIu64 "\n", seed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "horizon_us %" PRId64 "\n", horizon_us);
  out += buf;
  std::snprintf(buf, sizeof(buf), "steps %zu\n", steps.size());
  out += buf;
  for (const Step& step : steps) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 " %s %d %d %d %d\n",
                  step.at_us, to_string(step.op),
                  static_cast<int>(step.app), static_cast<int>(step.other),
                  step.a, step.b);
    out += buf;
  }
  out += "end\n";
  return out;
}

bool ScenarioProgram::parse(const std::string& text, ScenarioProgram* out,
                            std::string* error) {
  const auto fail = [error](int line, const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line) + ": " + why;
    }
    return false;
  };
  ScenarioProgram program;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  const auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };

  if (!next_line() || line != "eandroid-fuzz-program v1") {
    return fail(line_no, "missing 'eandroid-fuzz-program v1' header");
  }
  std::size_t step_count = 0;
  {
    std::istringstream fields(next_line() ? line : "");
    std::string key;
    if (!(fields >> key >> program.seed) || key != "seed") {
      return fail(line_no, "expected 'seed <n>'");
    }
  }
  {
    std::istringstream fields(next_line() ? line : "");
    std::string key;
    if (!(fields >> key >> program.horizon_us) || key != "horizon_us") {
      return fail(line_no, "expected 'horizon_us <n>'");
    }
  }
  {
    std::istringstream fields(next_line() ? line : "");
    std::string key;
    if (!(fields >> key >> step_count) || key != "steps") {
      return fail(line_no, "expected 'steps <n>'");
    }
  }
  // No reserve(step_count): the count is untrusted input. A count larger
  // than the text fails on the first missing step line instead.
  for (std::size_t i = 0; i < step_count; ++i) {
    if (!next_line()) return fail(line_no, "unexpected end of steps");
    std::istringstream fields(line);
    Step step;
    std::string op_token;
    int app = 0;
    int other = 0;
    if (!(fields >> step.at_us >> op_token >> app >> other >> step.a >>
          step.b)) {
      return fail(line_no, "malformed step line");
    }
    if (!op_from_string(op_token, &step.op)) {
      return fail(line_no, "unknown op '" + op_token + "'");
    }
    if (app < 0 || app > 255 || other < 0 || other > 255) {
      return fail(line_no, "cast index out of byte range");
    }
    step.app = static_cast<std::uint8_t>(app);
    step.other = static_cast<std::uint8_t>(other);
    program.steps.push_back(step);
  }
  if (!next_line() || line != "end") {
    return fail(line_no, "missing 'end' terminator");
  }
  *out = std::move(program);
  return true;
}

GrammarState::GrammarState() = default;

bool GrammarState::step_valid(const Step& step) const {
  const OpShape shape = shape_of(step.op);
  if (shape.has_actor) {
    const AppState& actor = apps_[step.app];
    // A dead uid may only be the subject of its own revival.
    if (!actor.alive && step.op != OpKind::kUserLaunch) return false;
    // A hung main thread blocks everything except recovery and the kill
    // that an ANR would deliver anyway.
    if (actor.hung && step.op != OpKind::kHangToggle &&
        step.op != OpKind::kKillApp && step.op != OpKind::kUserLaunch) {
      return false;
    }
  }
  switch (step.op) {
    case OpKind::kUnbindService: return apps_[step.app].bindings > 0;
    case OpKind::kReleaseWakelock: return apps_[step.app].locks > 0;
    case OpKind::kCancelAlarm: return apps_[step.app].alarms > 0;
    case OpKind::kSensorEnd: return apps_[step.app].sessions[step.a] > 0;
    case OpKind::kPlugCharger: return !charging_;
    case OpKind::kUnplugCharger: return charging_;
    default: return true;
  }
}

void GrammarState::apply(const Step& step) {
  switch (step.op) {
    case OpKind::kUserLaunch:
      apps_[step.app].alive = true;
      break;
    case OpKind::kStartActivity:
      apps_[step.other].alive = true;  // target process spawns
      break;
    case OpKind::kStartService:
    case OpKind::kStartForeground:
      apps_[kVictimApp].alive = true;  // service host spawns
      break;
    case OpKind::kBindService:
      apps_[kVictimApp].alive = true;
      ++apps_[step.app].bindings;
      break;
    case OpKind::kUnbindService:
      --apps_[step.app].bindings;
      break;
    case OpKind::kAcquireWakelock:
      ++apps_[step.app].locks;
      break;
    case OpKind::kReleaseWakelock:
      --apps_[step.app].locks;
      break;
    case OpKind::kSetAlarm:
      ++apps_[step.app].alarms;
      break;
    case OpKind::kCancelAlarm:
      --apps_[step.app].alarms;
      break;
    case OpKind::kSensorBegin:
      ++apps_[step.app].sessions[step.a];
      break;
    case OpKind::kSensorEnd:
      --apps_[step.app].sessions[step.a];
      break;
    case OpKind::kPlugCharger:
      charging_ = true;
      break;
    case OpKind::kUnplugCharger:
      charging_ = false;
      break;
    case OpKind::kKillApp: {
      // The process takes its wakelocks, sensor sessions, bindings, and
      // hang flag with it. Alarms are system-held per-uid state and
      // survive (cancelling one later is still grammatical).
      AppState& victim = apps_[step.app];
      victim.alive = false;
      victim.hung = false;
      victim.bindings = 0;
      victim.locks = 0;
      for (int& s : victim.sessions) s = 0;
      break;
    }
    case OpKind::kHangToggle:
      apps_[step.app].hung = !apps_[step.app].hung;
      break;
    default:
      break;
  }
}

bool validate(const ScenarioProgram& program,
              std::vector<std::string>* problems) {
  bool ok = true;
  const auto flag = [&](std::size_t i, const std::string& why) {
    ok = false;
    if (problems != nullptr) {
      problems->push_back("step " + std::to_string(i) + ": " + why);
    }
  };

  GrammarState state;
  std::int64_t last_at = 0;
  for (std::size_t i = 0; i < program.steps.size(); ++i) {
    const Step& step = program.steps[i];
    std::string why;
    if (!step_in_shape(step, &why)) {
      flag(i, why);
      continue;  // the machine cannot be consulted on a malformed step
    }
    if (step.at_us <= last_at) {
      flag(i, "time not strictly increasing");
    }
    last_at = step.at_us;
    if (!state.step_valid(step)) {
      flag(i, std::string("precondition failed for ") + to_string(step.op));
    } else {
      state.apply(step);
    }
  }
  if (!program.steps.empty() &&
      program.horizon_us < program.steps.back().at_us) {
    flag(program.steps.size() - 1, "horizon ends before the last step");
  }
  if (program.horizon_us <= 0) {
    ok = false;
    if (problems != nullptr) problems->push_back("horizon must be positive");
  }
  return ok;
}

ScenarioProgram repair(const ScenarioProgram& program) {
  ScenarioProgram out;
  out.seed = program.seed;
  out.horizon_us = program.horizon_us;
  GrammarState state;
  std::int64_t last_at = 0;
  for (const Step& step : program.steps) {
    if (!step_in_shape(step, nullptr)) continue;
    if (step.at_us <= last_at) continue;
    if (!state.step_valid(step)) continue;
    state.apply(step);
    out.steps.push_back(step);
    last_at = step.at_us;
  }
  if (!out.steps.empty() && out.horizon_us < out.steps.back().at_us) {
    out.horizon_us = out.steps.back().at_us;
  }
  if (out.horizon_us <= 0) out.horizon_us = 1;
  return out;
}

}  // namespace eandroid::fuzz
