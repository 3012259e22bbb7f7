// TraceRecorder: a per-device, fixed-capacity ring buffer of POD trace
// events — the simulator's flight recorder.
//
// Every load-bearing seam (event dispatch, lifecycle transitions, binder
// calls, wakelocks, sampler slices, engine collateral, fault injection,
// service-manager backoff, fleet epochs) drops a 32-byte TraceEvent here
// via the EANDROID_TRACE macros below. Design constraints, in order:
//
//   1. Allocation-free when recording. Events are PODs written into a
//      pre-sized ring; names are interned through a *recorder-private*
//      kernelsim::IdTable, so a steady-state record() is one branch, one
//      hash probe avoided entirely (hot seams intern once and cache the
//      NameIdx), and one store.
//   2. Deterministic. The recorder never reads wall clocks and the name
//      table is private precisely so tracing cannot perturb the shared
//      SystemServer IdTable's first-seen index order — enabling tracing
//      must not move a single bit of any energy digest.
//   3. Zero-cost when compiled out. -DEANDROID_TRACE=OFF turns every
//      EANDROID_TRACE(...) expansion into ((void)0); not even the null
//      check survives.
//
// The ring keeps the newest `capacity` events; `dropped()` counts the
// overwritten prefix so exporters can say what the window missed. It is
// allocated once, at construction, and left unwritten: a traced device
// touches only the pages its events land on, so building, filling and
// freeing a ring costs in proportion to the events recorded, not to the
// capacity. record() stays one slot store plus the wrap, with no
// first-lap branch: it is inlined into every instrumented seam, the
// event loop's dispatch included, so its size costs even untraced runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>

#include "kernel/interner.h"

namespace eandroid::obs {

/// Coarse event taxonomy; one track colour per category in exporters.
enum class TraceCategory : std::uint8_t {
  kSim = 0,    // event-loop dispatch
  kLifecycle,  // activity/service/process transitions
  kBinder,     // IPC transactions
  kPower,      // wakelocks, screen
  kEnergy,     // sampler slices, engine attribution
  kFault,      // injected faults
  kRecovery,   // restarts, backoff, ANR/LMK kills
  kFleet,      // epochs, push campaigns
};
inline constexpr int kTraceCategoryCount = 8;

[[nodiscard]] constexpr const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kLifecycle: return "lifecycle";
    case TraceCategory::kBinder: return "binder";
    case TraceCategory::kPower: return "power";
    case TraceCategory::kEnergy: return "energy";
    case TraceCategory::kFault: return "fault";
    case TraceCategory::kRecovery: return "recovery";
    case TraceCategory::kFleet: return "fleet";
  }
  return "?";
}

/// Dense index into the recorder's private name table.
using NameIdx = kernelsim::RoutineIdx;

/// One trace point: 32 bytes, trivial. Trivial (no member initialisers)
/// so the ring's storage can be allocated without writing it; only
/// record() ever fills a slot.
struct TraceEvent {
  std::int64_t t_us;        // virtual time, microseconds
  std::int64_t arg;         // event-specific payload (µJ, delay, handle…)
  NameIdx name;             // index into TraceRecorder::names()
  std::int32_t uid;         // owning uid, -1 for system/device-wide
  TraceCategory category;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(std::is_trivial_v<TraceEvent>);

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1u << 16)
      : ring_(std::make_unique_for_overwrite<TraceEvent[]>(
            capacity == 0 ? 1 : capacity)),
        cap_(capacity == 0 ? 1 : capacity) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Interns `name` into the recorder-private table. Cold-path: hot
  /// seams call this once at attach time and cache the index.
  NameIdx intern(std::string_view name) { return names_.routine_of(name); }

  [[nodiscard]] const kernelsim::IdTable& names() const { return names_; }

  /// Master switch; record() is a no-op while false. Toggling does not
  /// clear the ring.
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }

  /// Appends one event. Allocation-free: a wrapped index store into the
  /// ring allocated at construction. Silently overwrites the oldest event
  /// when full.
  void record(TraceCategory category, NameIdx name, std::int32_t uid,
              std::int64_t arg, std::int64_t t_us) {
    if (!recording_) return;
    TraceEvent& slot = ring_[head_];
    slot.t_us = t_us;
    slot.arg = arg;
    slot.name = name;
    slot.uid = uid;
    slot.category = category;
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    ++total_;
  }

  /// Cold-path convenience: interns the literal on every call.
  void record_lit(TraceCategory category, std::string_view name,
                  std::int32_t uid, std::int64_t arg, std::int64_t t_us) {
    if (!recording_) return;
    record(category, intern(name), uid, arg, t_us);
  }

  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// Events currently held (≤ capacity).
  [[nodiscard]] std::size_t size() const {
    return total_ < cap_ ? static_cast<std::size_t>(total_) : cap_;
  }
  /// Lifetime events recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  /// Events lost to ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const {
    return total_ < cap_ ? 0 : total_ - cap_;
  }

  /// Visits held events oldest→newest. Reads only slots written since
  /// construction or the last clear(): below one lap that is [0, total),
  /// and once the ring has wrapped every slot has been written.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    const std::size_t start = total_ < cap_ ? 0 : head_;  // oldest slot
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t at = start + i;
      if (at >= cap_) at -= cap_;
      fn(ring_[at]);
    }
  }

  /// Forgets all events (names stay interned; indices are stable).
  void clear() {
    head_ = 0;
    total_ = 0;
  }

 private:
  std::unique_ptr<TraceEvent[]> ring_;  // cap_ slots, unwritten until recorded
  std::size_t cap_;
  std::size_t head_ = 0;                // next write position
  std::uint64_t total_ = 0;             // lifetime count
  bool recording_ = true;
  kernelsim::IdTable names_;  // private: see header comment, point 2
};

// --- Instrumentation macros -----------------------------------------------
//
// EANDROID_TRACE(rec, t_us, cat, name_idx, uid, arg)   hot seams, cached idx
// EANDROID_TRACE_LIT(rec, t_us, cat, "name", uid, arg) cold seams, literal
//
// `rec` is a TraceRecorder* that may be null (the common case: tracing not
// requested). Configure with -DEANDROID_TRACE=OFF to compile every site
// down to ((void)0).
#if !defined(EANDROID_TRACE_COMPILED_OUT)
#define EANDROID_TRACE(rec, t_us, cat, name_idx, uid, arg)            \
  do {                                                                \
    ::eandroid::obs::TraceRecorder* ea_tr_ = (rec);                   \
    if (ea_tr_ != nullptr)                                            \
      ea_tr_->record((cat), (name_idx), (uid), (arg), (t_us));        \
  } while (0)
#define EANDROID_TRACE_LIT(rec, t_us, cat, name, uid, arg)            \
  do {                                                                \
    ::eandroid::obs::TraceRecorder* ea_tr_ = (rec);                   \
    if (ea_tr_ != nullptr)                                            \
      ea_tr_->record_lit((cat), (name), (uid), (arg), (t_us));        \
  } while (0)
#else
#define EANDROID_TRACE(rec, t_us, cat, name_idx, uid, arg) ((void)0)
#define EANDROID_TRACE_LIT(rec, t_us, cat, name, uid, arg) ((void)0)
#endif

}  // namespace eandroid::obs
