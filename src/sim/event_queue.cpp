#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/check.h"

namespace eandroid::sim {

void EventQueue::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) return;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], heap_[i])) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void EventQueue::pop_root() {
  if (heap_.size() > 1) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
}

void EventQueue::remove_root() {
  pop_root();
  skip_cancelled();
}

EventHandle EventQueue::schedule(TimePoint when, Duration period,
                                 Callback cb) {
  // The running periodic's node must stay the heap minimum until it is
  // re-keyed.
  EANDROID_CHECK(running_ == kNoSlot || !(when < heap_.front().when),
                 "event scheduled at " << when.micros()
                                       << "us, before the running periodic "
                                          "event's instant "
                                       << heap_.front().when.micros() << "us");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.period = period;
  s.live = true;
  heap_.push_back(Node{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventHandle{(static_cast<std::uint64_t>(s.gen) << 32) | slot};
}

EventHandle EventQueue::push(TimePoint when, Callback cb) {
  return schedule(when, Duration(0), std::move(cb));
}

EventHandle EventQueue::push_periodic(TimePoint first, Duration period,
                                      Callback cb) {
  assert(period > Duration(0));
  return schedule(first, period, std::move(cb));
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.live = false;
  // A generation that wraps to 0 would let an ancient handle alias a new
  // event: retire the slot instead.
  if (++s.gen != 0) free_.push_back(slot);
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(h.id);
  // Only events that are actually still scheduled can be cancelled;
  // handles of fired or already-cancelled events are a safe no-op.
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != static_cast<std::uint32_t>(h.id >> 32) || !s.live) {
    return false;
  }
  s.live = false;
  --live_;
  // A periodic event cancelled from inside its own callback keeps its
  // node at the root; fire_front() removes it once the callback returns.
  if (slot == running_) return true;
  // Any other cancelled head goes at once: the head is never dead.
  if (heap_.front().slot == slot) {
    release(slot);
    remove_root();
    return true;
  }
  // The node cannot be removed from the middle of the heap; it is
  // discarded when it reaches the head, or eagerly by compact() once dead
  // nodes outnumber live ones (the 64 floor keeps tiny queues from
  // compacting on every other cancel).
  ++dead_;
  if (dead_ > 64 && dead_ > live_) compact();
  return true;
}

void EventQueue::compact() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Node node = heap_[i];
    if (slots_[node.slot].live || node.slot == running_) {
      heap_[kept++] = node;
    } else {
      release(node.slot);
    }
  }
  heap_.resize(kept);
  // Floyd heapify: sift_down the internal nodes bottom-up. A running
  // periodic's node was kept at index 0 and is the minimum, so it stays
  // there.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
  dead_ = 0;
}

void EventQueue::skip_cancelled() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    release(heap_.front().slot);
    pop_root();
    --dead_;
  }
}

void EventQueue::fire_front() {
  EANDROID_CHECK(running_ == kNoSlot,
                 "event loop re-entered from inside a periodic event's "
                 "callback");
  assert(!heap_.empty());
  const std::uint32_t slot = heap_.front().slot;
  // The callback runs from a local: events it schedules may grow slots_,
  // which must not move a running std::function.
  Callback cb = std::move(slots_[slot].cb);
  if (slots_[slot].period <= Duration(0)) {
    // One-shot: consume the event before running, so a callback
    // cancelling its own handle stays a no-op.
    --live_;
    release(slot);
    remove_root();
    cb();
    return;
  }
  // Periodic: the node stays at the root, and the slot stays reserved
  // and live while the callback runs; cancel() from inside the callback
  // is how a periodic timer stops itself.
  running_ = slot;
  try {
    cb();
  } catch (...) {
    // Propagating an exception consumes the event like a one-shot would.
    running_ = kNoSlot;
    if (slots_[slot].live) --live_;
    release(slot);
    remove_root();
    throw;
  }
  running_ = kNoSlot;
  Slot& s = slots_[slot];
  if (!s.live) {
    release(slot);
    remove_root();
    return;
  }
  s.cb = std::move(cb);
  assert(heap_.front().slot == slot);
  Node& node = heap_.front();
  node.when = node.when + s.period;
  node.seq = next_seq_++;
  sift_down(0);
  skip_cancelled();
}

}  // namespace eandroid::sim
