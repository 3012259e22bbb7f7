// Device hibernation: the compact parked form of a DeviceContext.
//
// A live device is hundreds of kilobytes of mutable simulation state
// (event queue, process table, per-uid energy ledgers, trace ring). A
// parked device is this struct: a few strings and counters. The trick is
// that the fleet never serializes the mutable state at all —
//
//   snapshot = results + position, restore = deterministic replay.
//
// Every device is a pure function of its DeviceSpec and the frozen
// campaign list (the determinism contract the serial-reference
// differential tests pin), and the spec itself is nearly weightless: its
// heavy fields are shared_ptr<const> aliases of fleet-wide immutable tables
// (PowerParams, frozen manifests, EngineConfig), interned once per
// fleet. So hibernating a quiescent device means: record the outputs a
// caller could still ask for (the full-precision energy digest, delivery
// counters), record how many causal windows the timeline has folded in,
// and destroy the context. Restoring rebuilds the context from the spec
// and replays the SAME construct → boot → inject/advance window sequence
// the device ran the first time; bit-identical state follows from
// determinism, which the eviction-schedule differential tests verify
// digest-for-digest.
//
// Corollary: a device mutated from outside the replay path (scenario
// programs armed on it, processes spawned by a driver-thread poke)
// cannot be reconstructed by replay — the fleet PINS such devices
// (Fleet::device marks them) so they are never evicted.
#pragma once

#include <cstdint>
#include <string>

namespace eandroid::fleet {

/// The parked form of one device. Produced when the fleet snapshots a
/// quiescent, flushed device; all fields are plain data so a parked
/// population is a flat, cache-friendly array.
struct DeviceSnapshot {
  /// Full-precision energy digest at snapshot time — the value
  /// Fleet::energy_digests() serves without waking the device.
  std::string energy_digest;
  /// Push deliveries the device had absorbed (PushService counter).
  std::uint64_t pushes_delivered = 0;
  /// Device virtual clock at snapshot time, microseconds.
  std::int64_t sim_end_us = 0;
  /// Causal windows folded into this snapshot; a restore replays exactly
  /// windows [0, windows_done) before the device is considered current.
  std::uint64_t windows_done = 0;
};

}  // namespace eandroid::fleet
