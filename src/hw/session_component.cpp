#include "hw/session_component.h"

#include <algorithm>

namespace eandroid::hw {

SessionId SessionComponent::begin_session(kernelsim::Uid uid) {
  const SessionId id{next_session_++};
  sessions_[id.id] = uid;
  ++generation_;
  return id;
}

void SessionComponent::end_session(SessionId id) {
  auto it = sessions_.find(id.id);
  if (it == sessions_.end()) return;
  last_owner_ = it->second;
  sessions_.erase(it);
  ++generation_;
  if (sessions_.empty() && tail_ > sim::Duration(0)) {
    tail_until_ = sim_.now() + tail_;
  }
}

void SessionComponent::end_sessions_of(kernelsim::Uid uid) {
  bool removed = false;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second == uid) {
      last_owner_ = uid;
      it = sessions_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  if (!removed) return;
  ++generation_;
  if (sessions_.empty() && tail_ > sim::Duration(0)) {
    tail_until_ = sim_.now() + tail_;
  }
}

PowerBreakdown SessionComponent::breakdown() const {
  PowerBreakdown out;
  breakdown_into(out);
  return out;
}

void SessionComponent::breakdown_into(PowerBreakdown& out) const {
  out.clear();
  if (!sessions_.empty()) {
    out.total_mw = active_mw_;
    const double share = active_mw_ / static_cast<double>(sessions_.size());
    // Sorted-vector accumulation: sessions are few, and emitting sorted
    // by uid gives downstream sums one canonical order.
    for (const auto& [id, uid] : sessions_) {
      auto it = std::lower_bound(
          out.by_uid.begin(), out.by_uid.end(), uid,
          [](const auto& entry, kernelsim::Uid u) { return entry.first < u; });
      if (it != out.by_uid.end() && it->first == uid) {
        it->second += share;
      } else {
        out.by_uid.insert(it, {uid, share});
      }
    }
    return;
  }
  if (tail_mw_ > 0.0 && sim_.now() < tail_until_) {
    out.total_mw = tail_mw_;
    if (last_owner_.valid()) out.by_uid.push_back({last_owner_, tail_mw_});
  }
}

}  // namespace eandroid::hw
