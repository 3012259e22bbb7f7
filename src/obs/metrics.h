// MetricsRegistry: named monotonic counters and min/max/sum gauges.
//
// Subsystems register a metric once (a hash probe + possible allocation,
// always at attach time) and hold the returned dense MetricId; the hot
// operations add()/observe() are then a bounds-free vector index — no
// hashing, no allocation, safe inside the metering hot path.
//
// snapshot() renders the registry as a name-sorted table so that two
// registries fed the same simulation produce byte-identical output
// regardless of registration order — the fleet aggregator relies on this
// to fold per-device snapshots into one population table, and the
// differential tests rely on it to compare worker counts {1,4,8}
// bitwise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace eandroid::obs {

using MetricId = std::uint32_t;

/// One metric in a snapshot. Counters use only `count`; gauges carry the
/// full min/max/sum/count tuple of their observations.
struct MetricRow {
  std::string name;
  bool is_counter = true;
  std::uint64_t count = 0;  // counter value, or number of observations
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

struct MetricsSnapshot {
  std::vector<MetricRow> rows;  // sorted by name, unique

  /// Folds `other` in: counters add; gauges merge min/max/sum/count.
  /// Both operands must be sorted (as snapshot() produces).
  void merge(const MetricsSnapshot& other);

  /// Deterministic fixed-point table. Sums print with %.17g so the
  /// rendering is a faithful (bit-exact) transcript of the doubles.
  [[nodiscard]] std::string render() const;

  /// Row for `name`, or nullptr.
  [[nodiscard]] const MetricRow* find(std::string_view name) const;

  /// Builds a counters-only snapshot from (name, value) pairs — the shape
  /// subsystems that keep their hot counters outside a registry (e.g. the
  /// fleet scheduler) use to export them in mergeable, renderable form.
  /// Input order is irrelevant; rows come out name-sorted like snapshot().
  [[nodiscard]] static MetricsSnapshot of_counters(
      std::vector<std::pair<std::string, std::uint64_t>> counters);
};

class MetricsRegistry {
 public:
  /// Registers (or finds) a monotonic counter. Idempotent per name.
  MetricId counter(std::string_view name) {
    return id_of(name, /*is_counter=*/true);
  }
  /// Registers (or finds) a min/max/sum gauge. Idempotent per name.
  MetricId gauge(std::string_view name) {
    return id_of(name, /*is_counter=*/false);
  }

  /// Hot path: bump a counter. No allocation, no hashing. The bounds
  /// check is deliberate cheap insurance: an id minted by a *different*
  /// registry (e.g. a subsystem outliving the server that registered it)
  /// degrades to a dropped sample instead of an out-of-bounds write.
  void add(MetricId id, std::uint64_t delta = 1) {
    if (id < counts_.size()) counts_[id] += delta;
  }

  /// Hot path: feed one observation into a gauge.
  void observe(MetricId id, double value) {
    if (id >= gauges_.size()) return;
    Gauge& g = gauges_[id];
    g.sum += value;
    if (value < g.min) g.min = value;
    if (value > g.max) g.max = value;
    ++counts_[id];
  }

  [[nodiscard]] std::uint64_t count(MetricId id) const {
    return id < counts_.size() ? counts_[id] : 0;
  }
  [[nodiscard]] std::size_t size() const { return names_.size(); }

  /// Value of a counter by name; 0 if never registered.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const {
    auto it = index_.find(std::string(name));
    return it == index_.end() ? 0 : counts_[it->second];
  }

  /// Name-sorted copy of every metric (see file comment).
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Gauge {
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  MetricId id_of(std::string_view name, bool is_counter) {
    auto it = index_.find(std::string(name));
    if (it != index_.end()) return it->second;
    const MetricId id = static_cast<MetricId>(names_.size());
    names_.emplace_back(name);
    is_counter_.push_back(is_counter);
    counts_.push_back(0);
    gauges_.emplace_back();
    index_.emplace(names_.back(), id);
    return id;
  }

  std::unordered_map<std::string, MetricId> index_;
  std::vector<std::string> names_;
  std::vector<bool> is_counter_;
  std::vector<std::uint64_t> counts_;
  std::vector<Gauge> gauges_;
};

// --- inline cold-path definitions -----------------------------------------

inline MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.rows.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    MetricRow row;
    row.name = names_[i];
    row.is_counter = is_counter_[i];
    row.count = counts_[i];
    if (!row.is_counter) {
      row.sum = gauges_[i].sum;
      row.min = gauges_[i].min;
      row.max = gauges_[i].max;
    }
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return snap;
}

inline void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  std::vector<MetricRow> merged;
  merged.reserve(rows.size() + other.rows.size());
  std::size_t i = 0, j = 0;
  while (i < rows.size() || j < other.rows.size()) {
    if (j >= other.rows.size() ||
        (i < rows.size() && rows[i].name < other.rows[j].name)) {
      merged.push_back(rows[i++]);
    } else if (i >= rows.size() || other.rows[j].name < rows[i].name) {
      merged.push_back(other.rows[j++]);
    } else {
      MetricRow row = rows[i++];
      const MetricRow& b = other.rows[j++];
      row.count += b.count;
      if (!row.is_counter) {
        row.sum += b.sum;
        if (b.min < row.min) row.min = b.min;
        if (b.max > row.max) row.max = b.max;
      }
      merged.push_back(std::move(row));
    }
  }
  rows = std::move(merged);
}

inline MetricsSnapshot MetricsSnapshot::of_counters(
    std::vector<std::pair<std::string, std::uint64_t>> counters) {
  MetricsSnapshot snap;
  snap.rows.reserve(counters.size());
  for (auto& [name, value] : counters) {
    MetricRow row;
    row.name = std::move(name);
    row.is_counter = true;
    row.count = value;
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return snap;
}

inline const MetricRow* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricRow& row : rows)
    if (row.name == name) return &row;
  return nullptr;
}

inline std::string MetricsSnapshot::render() const {
  std::ostringstream out;
  char buf[160];
  for (const MetricRow& row : rows) {
    out << row.name;
    if (row.is_counter) {
      std::snprintf(buf, sizeof buf, " counter %llu\n",
                    static_cast<unsigned long long>(row.count));
    } else if (row.count == 0) {
      std::snprintf(buf, sizeof buf, " gauge n=0\n");
    } else {
      std::snprintf(buf, sizeof buf,
                    " gauge n=%llu sum=%.17g min=%.17g max=%.17g\n",
                    static_cast<unsigned long long>(row.count), row.sum,
                    row.min, row.max);
    }
    out << buf;
  }
  return out.str();
}

}  // namespace eandroid::obs
