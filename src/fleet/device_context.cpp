#include "fleet/device_context.h"

#include <cstdio>

#include "obs/export.h"
#include "sim/check.h"

namespace eandroid::fleet {

namespace {
/// Fills the spec's null config slots with the stock shared instances so
/// member initializers can dereference unconditionally.
DeviceSpec with_defaults(DeviceSpec spec) {
  if (spec.params == nullptr) spec.params = hw::shared_nexus4_params();
  if (spec.engine_config == nullptr) {
    spec.engine_config = shared_default_engine_config();
  }
  return spec;
}

void append_f64(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g|", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu|",
                static_cast<unsigned long long>(v));
  out += buf;
}
}  // namespace

const std::shared_ptr<const core::EngineConfig>&
shared_default_engine_config() {
  static const std::shared_ptr<const core::EngineConfig> config =
      std::make_shared<const core::EngineConfig>();
  return config;
}

DeviceContext::DeviceContext(DeviceSpec spec)
    : spec_(with_defaults(std::move(spec))),
      sim_(spec_.seed),
      server_(sim_, spec_.params, spec_.obs),
      sampler_(server_, spec_.sample_period),
      battery_stats_(server_.packages()),
      power_tutor_(server_.packages()),
      pipeline_(sim_.metrics()) {
  if (spec_.with_eandroid) {
    eandroid_ = std::make_unique<core::EAndroid>(
        server_, spec_.eandroid_mode, *spec_.engine_config);
    eandroid_->attach_to(pipeline_);
  }
  pipeline_.set_battery_stats(&battery_stats_);
  pipeline_.set_power_tutor(&power_tutor_);
  sampler_.set_pipeline(&pipeline_);
  if (spec_.install_plan != nullptr) spec_.install_plan->apply(server_);
}

std::string DeviceContext::energy_digest() {
  std::string out;
  if (eandroid_ != nullptr) {
    const core::EAndroidEngine& engine = eandroid_->engine();
    for (const kernelsim::Uid uid : engine.known_uids()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "u%llu:",
                    static_cast<unsigned long long>(uid.value));
      out += buf;
      append_f64(out, engine.direct_mj(uid));
      append_f64(out, engine.collateral_mj(uid));
      append_f64(out, battery_stats_.app_energy_mj(uid));
      append_f64(out, power_tutor_.app_energy_mj(uid));
    }
    append_f64(out, engine.screen_row_mj());
    append_f64(out, engine.attributed_screen_mj());
    append_f64(out, engine.system_row_mj());
    append_f64(out, engine.true_total_mj());
    append_u64(out, eandroid_->tracker().opened_total());
    append_u64(out, eandroid_->tracker().closed_total());
  }
  append_f64(out, battery_stats_.total_mj());
  append_f64(out, power_tutor_.total_mj());
  append_f64(out, server_.battery().consumed_total_mj());
  append_u64(out, sampler_.slices_emitted());
  append_u64(out, server_.push().pushes_delivered());
  append_u64(out, static_cast<std::uint64_t>(sim_.now().micros()));
  return out;
}

std::string DeviceContext::trace_text() const {
  const obs::TraceRecorder* tr = server_.obs().trace();
  return tr == nullptr ? std::string() : obs::text_trace(*tr);
}

std::string DeviceContext::chrome_trace() const {
  const obs::TraceRecorder* tr = server_.obs().trace();
  return tr == nullptr ? std::string()
                       : obs::chrome_trace(*tr, spec_.device_index);
}

core::EngineReport DeviceContext::engine_report() {
  EANDROID_CHECK(eandroid_ != nullptr,
                 "engine_report needs a device with E-Android attached");
  return core::capture_engine_report(server_, *eandroid_);
}

}  // namespace eandroid::fleet
