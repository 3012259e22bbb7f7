// Time-ordered event queue for the discrete-event simulator.
//
// Events scheduled at the same virtual instant fire in insertion order
// (FIFO), which keeps framework call/callback sequences deterministic.
// Events can be cancelled via the handle returned by push().
//
// Layout: a hand-rolled 4-ary min-heap of small {when, seq, slot} nodes
// over a slot table. The callback and the period live in the slot, so a
// sift moves 24-byte nodes, never a std::function. A slot carries a
// generation counter and the handle's id packs (generation, slot), so
// checking whether a handle is still scheduled is an array load, not a
// hash lookup; the generation moves on every reuse of the slot, which
// keeps ids unique for the queue's lifetime (a slot whose generation
// would wrap is retired instead of reused).
//
// Periodic events (push_periodic / Simulator::every) are first-class: one
// slot and one id live for the whole lifetime of the timer, and each
// firing re-keys the same node IN PLACE. The node stays at the heap root
// while its callback runs; afterwards it takes `when + period` and a
// fresh sequence number, and one sift_down(0) moves it to its place — no
// pop, no push, no fresh std::function. This is safe because the running
// node is the unique minimum by (when, seq): everything the callback
// schedules sorts after it (same instant, later seq, or later), and
// compact()'s heapify leaves the minimum at index 0. Scheduling before
// the running node's instant is therefore a checked error, as is
// re-entering the run loop (fire_front) from the callback. The 250 ms
// metering timer is one such event.
//
// Memory stays proportional to the LIVE event count: cancel() marks the
// slot dead and leaves its node in the heap, and when dead nodes buried
// in the heap — e.g. cancelled far-future timeouts that would otherwise
// sit there until their instant arrived — outnumber the live ones, the
// heap is compacted in place and their slots return to the free list.
// The head is never dead: a cancelled head is removed at once, and a dead
// node that surfaces at the head is dropped there and then, so reading
// the next event is one load and firing it needs no dead-head skip.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace eandroid::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
struct EventHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` to run at absolute time `when`. While a periodic
  /// callback runs, `when` before its instant is a checked error.
  EventHandle push(TimePoint when, Callback cb);

  /// Schedules `cb` to run at `first` and then every `period` after, until
  /// cancelled. The node is re-keyed in place by fire_front(): the
  /// callback object and the id are allocated once, at registration.
  EventHandle push_periodic(TimePoint first, Duration period, Callback cb);

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled before. Cancelling a periodic event stops it; cancelling it
  /// from inside its own callback suppresses the pending reschedule.
  bool cancel(EventHandle h);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Scheduled-and-not-cancelled events (a periodic event counts while
  /// its callback runs).
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event (inside a periodic callback, the
  /// running event's own instant). Precondition: !empty().
  [[nodiscard]] TimePoint next_time() const { return heap_.front().when; }

  /// Runs the earliest pending event. One-shot events are consumed
  /// before they run. A periodic event's node stays at the root while
  /// its callback runs, marked running so that cancel() and compact()
  /// leave it alone; it is then re-keyed in place — same callback
  /// object, same id, next instant — or released if the callback
  /// cancelled it. A throwing callback is consumed like a one-shot.
  /// Precondition: !empty(); a checked error inside a periodic callback.
  void fire_front();

 private:
  /// A heap node: the ordering key plus the slot holding the event.
  struct Node {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    Callback cb;
    /// Zero for one-shot events; the reschedule interval for periodic.
    Duration period{0};
    /// Moves on every release; a handle is current iff its generation
    /// matches. Starts at 1 so no id is 0.
    std::uint32_t gen = 1;
    /// Scheduled and not cancelled: cancel() succeeds exactly when set.
    bool live = false;
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Min-heap order: earlier instant first, FIFO (seq) within an instant.
  [[nodiscard]] static bool earlier(const Node& a, const Node& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // 4-ary heap primitives over heap_.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes the root node (heap_[0]) keeping the heap shape.
  void pop_root();
  /// Removes the root node, then drops the dead nodes that surface there.
  void remove_root();

  EventHandle schedule(TimePoint when, Duration period, Callback cb);
  /// Destroys the slot's callback, moves its generation and returns it to
  /// the free list.
  void release(std::uint32_t slot);

  /// Drops dead (cancelled) nodes sitting at the head of the heap, so the
  /// head is live again.
  void skip_cancelled();

  /// Rebuilds the heap keeping only live nodes and the running one;
  /// O(size) but amortised free because it runs only when dead nodes
  /// dominate.
  void compact();

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  /// Released slots, reused last-in first-out.
  std::vector<std::uint32_t> free_;
  /// Live events (what size() reports).
  std::size_t live_ = 0;
  /// Cancelled nodes still buried in heap_ (a cancelled running periodic
  /// is not one: fire_front() removes it).
  std::size_t dead_ = 0;
  /// Slot of the periodic event whose callback runs, its node at the root
  /// of heap_; kNoSlot otherwise.
  std::uint32_t running_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eandroid::sim
