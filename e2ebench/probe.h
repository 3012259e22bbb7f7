// Measurement helpers for the end-to-end benchmark: clocks, process CPU,
// RSS, a counting allocator, percentiles, and the in-memory span recorder
// whose spans become the Chrome trace file and the per-layer ledger.
//
// Everything here observes the program from outside: spans wrap calls the
// benchmark makes into the repository's public API, and nothing in src/ is
// aware of them.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

/// Monotonic wall clock, nanoseconds.
std::int64_t now_ns();
/// CPU time consumed by the whole process (all threads), nanoseconds.
std::int64_t process_cpu_ns();

/// A "Vm*:" field of /proc/self/status in KiB (VmRSS, VmHWM), 0 if absent.
std::int64_t status_kb(const char* field);
/// Resets VmHWM to the current RSS (Linux clear_refs); a no-op elsewhere.
void reset_peak_rss();

/// The benchmark binary replaces global operator new; allocations are
/// counted only while counting is on (the traced run), so untraced runs
/// pay one predictable branch per allocation.
void set_alloc_counting(bool on);
std::uint64_t allocations();

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One recorded span: a call into a layer, as seen from the benchmark.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  /// Request id: a paper_scenes job's index in its batch (a batch span
  /// carries the batch's index); 0 on fleet_campaign.
  std::int64_t request = 0;
  int tid = 0;  ///< track: 0 = the driver thread, 1.. = runner threads
};

/// Thread-safe, in-memory span store. Disabled recorders keep nothing,
/// so the same timing code serves the untraced and the traced run.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Starts a span and returns its id (-1 when disabled), so children
  /// can name it as their parent; close() records its end.
  int open(const char* name, std::int64_t start_ns, int parent,
           std::int64_t request);
  void close(int id, std::int64_t end_ns);

  /// Forgets every thread but the driver's (track 0), so the next batch
  /// of short-lived runner threads reuses tracks 1..threads instead of
  /// opening new ones.
  void recycle_thread_slots();

  /// Snapshot of every span, in id order.
  [[nodiscard]] std::vector<Span> all() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                 // guarded by mu_
  std::map<std::thread::id, int> tids_;     // guarded by mu_; 0 = driver
};

/// Times one call; records it as a span when the recorder is enabled.
/// stop() ends the span early and returns its length in seconds.
class Timed {
 public:
  Timed(Spans& spans, const char* name, int parent, std::int64_t request = 0)
      : spans_(spans),
        start_(now_ns()),
        id_(spans.open(name, start_, parent, request)) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  [[nodiscard]] int id() const { return id_; }
  double stop() {
    if (end_ == 0) {
      end_ = now_ns();
      spans_.close(id_, end_);
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }

 private:
  Spans& spans_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  int id_;
};

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// track per thread) — the format obs/export.h emits for sim-time traces,
/// so the file opens in ui.perfetto.dev. Returns false on an I/O error.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace e2e
