#include "energy/pipeline.h"

#include <algorithm>

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

std::uint64_t MeteringPipeline::accumulator_resets() const {
  return (battery_stats_ != nullptr ? battery_stats_->resets() : 0) +
         (power_tutor_ != nullptr ? power_tutor_->resets() : 0);
}

void MeteringPipeline::run(const EnergySlice& slice, bool slice_kept) {
  if (battery_stats_ != nullptr) battery_stats_->bind_ids(slice.ids());
  if (power_tutor_ != nullptr) power_tutor_->bind_ids(slice.ids());

  // Stage 1: settle per-slice state (window-structure rebuild, accumulator
  // pre-sizing) before any cell is read.
  const bool stage_settled =
      engine_stage_ == nullptr || engine_stage_->prepare_slice(slice);

  // The test-only fault seam (set_test_skip_part) reaches the engine's
  // store alone; it is read once per run.
  const int skip = test_skip_part_.load(std::memory_order_relaxed);
  const std::uint64_t resets = accumulator_resets();
  const bool unchanged = slice_kept && stage_settled && skip == last_skip_ &&
                         resets == last_resets_;
  last_skip_ = skip;
  last_resets_ = resets;
  unchanged_folds_ = unchanged ? std::min(unchanged_folds_ + 1, kReplay) : 0;

  if (unchanged_folds_ == kReplay) {
    tape_.replay(slice.end.micros());
    ++replayed_;
  } else if (unchanged_folds_ == kRecord) {
    tape_.clear();
    fold(slice, skip, &tape_);
  } else {
    fold(slice, skip, nullptr);
  }

  ++folds_;
  cells_ += slice.active().size();
  if (metrics_ != nullptr) {
    metrics_->add(folds_metric_);
    metrics_->add(cells_metric_,
                  static_cast<std::uint64_t>(slice.active().size()));
  }
}

void MeteringPipeline::fold(const EnergySlice& slice, int skip,
                            FoldTape* tape) {
  // Stage 2: the fused walk over the active apps, ascending. Each app's
  // five parts are loaded once and added into every accumulator with the
  // same per-cell association as slice.sum_at().
  const EnergySlice::TouchedView view = slice.touched_view();
  const double* const cpu_col = view.parts[0];
  const double* const camera_col = view.parts[1];
  const double* const gps_col = view.parts[2];
  const double* const wifi_col = view.parts[3];
  const double* const audio_col = view.parts[4];
  // The engine's battery ground truth: total_mj()'s exact running sum.
  double running_total = slice.system_mj + slice.screen_mj;
  for (const kernelsim::AppIdx idx : *view.active) {
    const double cpu = cpu_col[idx];
    const double camera = camera_col[idx];
    const double gps = gps_col[idx];
    const double wifi = wifi_col[idx];
    const double audio = audio_col[idx];
    if (battery_stats_ != nullptr) {
      battery_stats_->fold_app(idx, cpu + camera + gps + wifi + audio, tape);
    }
    if (power_tutor_ != nullptr) {
      power_tutor_->fold_app(idx, cpu, camera, gps, wifi, audio, tape);
    }
    if (direct_ == nullptr) continue;
    // The skip seam is loop-invariant: disarmed, it costs one hoisted
    // compare per part.
    const double d_cpu = skip == 0 ? 0.0 : cpu;
    const double d_camera = skip == 1 ? 0.0 : camera;
    const double d_gps = skip == 2 ? 0.0 : gps;
    const double d_wifi = skip == 3 ? 0.0 : wifi;
    const double d_audio = skip == 4 ? 0.0 : audio;
    running_total += d_cpu + d_camera + d_gps + d_wifi + d_audio;
    if (direct_->by_app.size() <= idx) direct_->by_app.resize(idx + 1);
    AppSliceEnergy& acc = direct_->by_app[idx];
    FoldTape::add(acc.cpu_mj, d_cpu, tape);
    FoldTape::add(acc.camera_mj, d_camera, tape);
    FoldTape::add(acc.gps_mj, d_gps, tape);
    FoldTape::add(acc.wifi_mj, d_wifi, tape);
    FoldTape::add(acc.audio_mj, d_audio, tape);
    for (const kernelsim::RoutineIdx r : slice.routines_at(idx)) {
      acc.add_routine(r, slice.routine_mj_at(idx, r), tape);
    }
  }
  if (direct_ != nullptr) {
    FoldTape::add(direct_->true_total_mj, running_total, tape);
  }

  // Stage 3: per-slice tails (engine first — its collateral trace marks
  // precede the sampler's slice mark).
  if (engine_stage_ != nullptr) engine_stage_->fold_slice(slice, tape);
  if (battery_stats_ != nullptr) battery_stats_->fold_tail(slice, tape);
  if (power_tutor_ != nullptr) power_tutor_->fold_tail(slice, tape);
}

}  // namespace eandroid::energy
