// Eprof re-implementation (Pathak et al., EuroSys 2012).
//
// "eprof specifically decomposes the energy consumption into the
// subroutine or thread level, enabling fine grained energy accounting on
// a single app" (paper §II). Our apps tag their CPU loads with routine
// names (Context::set_cpu_load's key; Binder/push handling lands under
// "ipc"), the scheduler carries the tags through each sampling window,
// and this sink accumulates a per-app, per-routine energy profile.
//
// Like eprof — and unlike E-Android — the decomposition is strictly
// within one app: it shows *where inside the app* energy went, not which
// other app caused it.
#pragma once

#include <string>
#include <vector>

#include "energy/slice.h"
#include "framework/package_manager.h"

namespace eandroid::energy {

struct RoutineEnergy {
  std::string routine;
  double energy_mj = 0.0;
  double percent_of_app = 0.0;
};

class Eprof : public AccountingSink {
 public:
  explicit Eprof(const framework::PackageManager& packages)
      : packages_(packages) {}

  void on_slice(const EnergySlice& slice) override;

  /// Per-routine CPU energy of one app, largest first.
  [[nodiscard]] std::vector<RoutineEnergy> profile_of(
      kernelsim::Uid uid) const;
  [[nodiscard]] double routine_mj(kernelsim::Uid uid,
                                  const std::string& routine) const;
  [[nodiscard]] double app_cpu_mj(kernelsim::Uid uid) const;

  /// Text report like eprof's output tables.
  [[nodiscard]] std::string render(kernelsim::Uid uid) const;

  void reset();

 private:
  const framework::PackageManager& packages_;
  /// Identifier table shared by every slice this sink has seen; bound on
  /// the first slice (all slices fed to one sink must share a table).
  const kernelsim::IdTable* ids_ = nullptr;
  /// Accumulated CPU energy, dense [AppIdx][RoutineIdx].
  std::vector<std::vector<double>> routines_;
};

}  // namespace eandroid::energy
