#include "fleet/push_broker.h"

#include <algorithm>

#include "sim/check.h"

namespace eandroid::fleet {

namespace {

/// floor(a / b) for b > 0, exact for negative a (C++ integer division
/// truncates toward zero, which rounds the wrong way below zero).
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/// Closed-form send window: the half-open k-range of
/// first + period*k (k in [0, pushes_per_device)) landing in
/// [begin, end). Empty ranges come back with k_lo >= k_hi.
struct SendRange {
  std::int64_t k_lo = 0;
  std::int64_t k_hi = 0;
};

SendRange send_range(const PushCampaign& campaign, int device_index,
                     sim::TimePoint begin, sim::TimePoint end) {
  SendRange range;
  if (campaign.pushes_per_device <= 0 || end <= begin) return range;
  if (campaign.device_stride > 1 &&
      device_index % campaign.device_stride != campaign.device_phase) {
    return range;
  }
  const sim::TimePoint first =
      campaign.start + campaign.device_stagger * device_index;
  const std::int64_t n = campaign.pushes_per_device;
  const std::int64_t period_us = campaign.period.micros();
  if (period_us <= 0) {
    // Degenerate period: all n sends land at `first`.
    if (first >= begin && first < end) range.k_hi = n;
    return range;
  }
  const std::int64_t lo_us = (begin - first).micros();
  const std::int64_t hi_us = (end - first).micros();
  // k_lo: smallest k with first + p*k >= begin  ⇔  k >= ceil(lo/p).
  // k_hi: one past the largest k with first + p*k < end
  //       ⇔  k <= floor((hi-1)/p).
  range.k_lo = std::max<std::int64_t>(0, floor_div(lo_us + period_us - 1,
                                                   period_us));
  range.k_hi = std::min<std::int64_t>(n, floor_div(hi_us - 1, period_us) + 1);
  return range;
}

}  // namespace

void PushBroker::add_campaign(PushCampaign campaign) {
  EANDROID_CHECK(!frozen_,
                 "PushBroker::add_campaign after freeze(): the fleet "
                 "reads campaigns from worker threads once started");
  campaigns_.push_back(std::move(campaign));
}

std::uint64_t PushBroker::inject(DeviceContext& device, int device_index,
                                 sim::TimePoint begin, sim::TimePoint end) {
  EANDROID_CHECK(device.sim().now() <= begin,
                 "PushBroker::inject: device clock "
                     << device.sim().now().micros()
                     << "us is past the window begin " << begin.micros()
                     << "us");
  framework::SystemServer& server = device.server();
  std::uint64_t scheduled_here = 0;
  for (std::size_t ci = 0; ci < campaigns_.size(); ++ci) {
    const PushCampaign& campaign = campaigns_[ci];
    const SendRange range = send_range(campaign, device_index, begin, end);
    if (range.k_lo >= range.k_hi) continue;
    // Resolve the campaign's packages on this device once and cache the
    // recipe; each delivery is then a two-word closure (device pointer +
    // slot index) that fits std::function's small-buffer optimisation, so
    // steady-state injection performs no heap allocation. Unresolvable
    // campaigns are retried every window, matching the old per-window
    // lookup for devices whose packages are installed mid-run.
    std::int32_t slot = device.prepared_send_slot(ci);
    if (slot < 0) {
      const framework::PackageRecord* sender =
          server.packages().find(campaign.sender_package);
      const framework::PackageRecord* target =
          server.packages().find(campaign.target_package);
      if (sender == nullptr || target == nullptr) continue;
      slot = device.cache_prepared_send(
          ci, DeviceContext::PreparedSend{sender->uid, target->uid,
                                          campaign.target_package,
                                          campaign.bytes});
    }
    const sim::TimePoint first =
        campaign.start + campaign.device_stagger * device_index;
    for (std::int64_t k = range.k_lo; k < range.k_hi; ++k) {
      const sim::TimePoint at = first + campaign.period * k;
      server.simulator().schedule_at(
          at, [dev = &device, s = static_cast<std::uint32_t>(slot)] {
            dev->deliver_prepared(s);
          });
      ++scheduled_here;
    }
  }
  scheduled_.fetch_add(scheduled_here, std::memory_order_relaxed);
  return scheduled_here;
}

bool PushBroker::may_send_in(int device_index, sim::TimePoint begin,
                             sim::TimePoint end) const {
  for (const PushCampaign& campaign : campaigns_) {
    const SendRange range = send_range(campaign, device_index, begin, end);
    if (range.k_lo < range.k_hi) return true;
  }
  return false;
}

}  // namespace eandroid::fleet
