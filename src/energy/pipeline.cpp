#include "energy/pipeline.h"

#include "energy/battery_stats.h"
#include "energy/power_tutor.h"

namespace eandroid::energy {

std::atomic<int> MeteringPipeline::test_skip_part_{-1};

MeteringPipeline::MeteringPipeline(obs::MetricsRegistry* metrics)
    : metrics_(metrics) {
  if (metrics_ != nullptr) {
    folds_metric_ = metrics_->counter("energy.pipeline.folds");
    cells_metric_ = metrics_->counter("energy.pipeline.fused_cells");
  }
}

void MeteringPipeline::run(const EnergySlice& slice) {
  if (battery_stats_ != nullptr) battery_stats_->bind_ids(slice.ids());
  if (power_tutor_ != nullptr) power_tutor_->bind_ids(slice.ids());

  // Stage 1: settle per-slice state (window-structure rebuild, accumulator
  // pre-sizing) before any cell is read.
  if (engine_stage_ != nullptr) engine_stage_->prepare_slice(slice);

  // Stage 2: the fused walk over the active apps, ascending. Each app's
  // five parts are loaded once and added into every accumulator with the
  // same per-cell association as slice.sum_at().
  const EnergySlice::TouchedView view = slice.touched_view();
  const double* const cpu_col = view.parts[0];
  const double* const camera_col = view.parts[1];
  const double* const gps_col = view.parts[2];
  const double* const wifi_col = view.parts[3];
  const double* const audio_col = view.parts[4];
  // The test-only fault seam (set_test_skip_part) reaches the engine's
  // store alone: loop-invariant, so the disarmed case costs one hoisted
  // compare per part.
  const int skip = test_skip_part_.load(std::memory_order_relaxed);
  // The engine's battery ground truth: total_mj()'s exact running sum.
  double running_total = slice.system_mj + slice.screen_mj;
  for (const kernelsim::AppIdx idx : *view.active) {
    const double cpu = cpu_col[idx];
    const double camera = camera_col[idx];
    const double gps = gps_col[idx];
    const double wifi = wifi_col[idx];
    const double audio = audio_col[idx];
    if (battery_stats_ != nullptr) {
      battery_stats_->fold_app(idx, cpu + camera + gps + wifi + audio);
    }
    if (power_tutor_ != nullptr) {
      power_tutor_->fold_app(idx, cpu, camera, gps, wifi, audio);
    }
    if (direct_ == nullptr) continue;
    const double d_cpu = skip == 0 ? 0.0 : cpu;
    const double d_camera = skip == 1 ? 0.0 : camera;
    const double d_gps = skip == 2 ? 0.0 : gps;
    const double d_wifi = skip == 3 ? 0.0 : wifi;
    const double d_audio = skip == 4 ? 0.0 : audio;
    running_total += d_cpu + d_camera + d_gps + d_wifi + d_audio;
    if (direct_->by_app.size() <= idx) direct_->by_app.resize(idx + 1);
    AppSliceEnergy& acc = direct_->by_app[idx];
    acc.cpu_mj += d_cpu;
    acc.camera_mj += d_camera;
    acc.gps_mj += d_gps;
    acc.wifi_mj += d_wifi;
    acc.audio_mj += d_audio;
    for (const kernelsim::RoutineIdx r : slice.routines_at(idx)) {
      acc.add_routine(r, slice.routine_mj_at(idx, r));
    }
  }
  if (direct_ != nullptr) direct_->true_total_mj += running_total;

  // Stage 3: per-slice tails (engine first — its collateral trace marks
  // precede the sampler's slice mark).
  if (engine_stage_ != nullptr) engine_stage_->fold_slice(slice);
  if (battery_stats_ != nullptr) battery_stats_->fold_tail(slice);
  if (power_tutor_ != nullptr) power_tutor_->fold_tail(slice);

  ++folds_;
  cells_ += view.active->size();
  if (metrics_ != nullptr) {
    metrics_->add(folds_metric_);
    metrics_->add(cells_metric_,
                  static_cast<std::uint64_t>(view.active->size()));
  }
}

}  // namespace eandroid::energy
