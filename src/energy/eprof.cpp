#include "energy/eprof.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace eandroid::energy {

void Eprof::on_slice(const EnergySlice& slice) {
  assert(ids_ == nullptr || ids_ == &slice.ids());
  ids_ = &slice.ids();
  for (const kernelsim::AppIdx idx : slice.active()) {
    const std::vector<kernelsim::RoutineIdx>& touched = slice.routines_at(idx);
    if (touched.empty()) continue;
    if (routines_.size() <= idx) routines_.resize(idx + 1);
    std::vector<double>& row = routines_[idx];
    for (const kernelsim::RoutineIdx r : touched) {
      if (row.size() <= r) row.resize(r + 1, 0.0);
      row[r] += slice.routine_mj_at(idx, r);
    }
  }
}

double Eprof::app_cpu_mj(kernelsim::Uid uid) const {
  const kernelsim::AppIdx idx =
      ids_ == nullptr ? kernelsim::kNoIdx : ids_->find_app(uid);
  if (idx >= routines_.size()) return 0.0;
  double total = 0.0;
  for (const double mj : routines_[idx]) total += mj;
  return total;
}

double Eprof::routine_mj(kernelsim::Uid uid,
                         const std::string& routine) const {
  if (ids_ == nullptr) return 0.0;
  const kernelsim::AppIdx idx = ids_->find_app(uid);
  if (idx >= routines_.size()) return 0.0;
  const kernelsim::RoutineIdx r = ids_->find_routine(routine);
  return r < routines_[idx].size() ? routines_[idx][r] : 0.0;
}

std::vector<RoutineEnergy> Eprof::profile_of(kernelsim::Uid uid) const {
  std::vector<RoutineEnergy> out;
  const kernelsim::AppIdx idx =
      ids_ == nullptr ? kernelsim::kNoIdx : ids_->find_app(uid);
  if (idx >= routines_.size()) return out;
  const double total = app_cpu_mj(uid);
  const std::vector<double>& row = routines_[idx];
  for (kernelsim::RoutineIdx r = 0; r < row.size(); ++r) {
    if (row[r] <= 0.0) continue;
    RoutineEnergy entry;
    entry.routine = ids_->routine_name(r);
    entry.energy_mj = row[r];
    entry.percent_of_app = total > 0.0 ? 100.0 * row[r] / total : 0.0;
    out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const RoutineEnergy& a, const RoutineEnergy& b) {
              if (a.energy_mj != b.energy_mj) return a.energy_mj > b.energy_mj;
              return a.routine < b.routine;
            });
  return out;
}

std::string Eprof::render(kernelsim::Uid uid) const {
  const framework::PackageRecord* pkg = packages_.find(uid);
  std::string out = "eprof profile: ";
  out += pkg != nullptr ? pkg->manifest->package
                        : "uid:" + std::to_string(uid.value);
  out += "\n";
  char line[128];
  for (const RoutineEnergy& entry : profile_of(uid)) {
    std::snprintf(line, sizeof(line), "  %-24s %10.1f mJ %6.1f%%\n",
                  entry.routine.c_str(), entry.energy_mj,
                  entry.percent_of_app);
    out += line;
  }
  return out;
}

void Eprof::reset() { routines_.clear(); }

}  // namespace eandroid::energy
