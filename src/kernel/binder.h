// Simulated Binder driver.
//
// Binder is Android's kernel IPC transport; every Intent, service binding,
// and wakelock request ultimately crosses it. Two of its properties matter
// for the paper and are modeled faithfully:
//
//  * transactions carry a caller identity (pid/uid) that the framework can
//    trust — this is what lets E-Android attribute a collateral event to
//    the *driving* app;
//  * link-to-death: a holder can attach a death recipient to a token, and
//    the driver dispatches a notification when the owning process dies —
//    this is how PowerManagerService releases wakelocks of dead apps and
//    how ServiceManager drops bindings of dead clients.
//
// Transactions also charge a small CPU cost to both ends so that heavy IPC
// shows up in the utilization-based energy model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/process_table.h"
#include "kernel/types.h"
#include "sim/simulator.h"

namespace eandroid::kernelsim {

/// A Binder token: an object reference whose lifetime is tied to the
/// process that owns it.
struct BinderToken {
  std::uint64_t id = 0;
  constexpr auto operator<=>(const BinderToken&) const = default;
  [[nodiscard]] constexpr bool valid() const { return id != 0; }
};

struct TransactionStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

class BinderDriver {
 public:
  using DeathRecipient = std::function<void(BinderToken)>;

  BinderDriver(sim::Simulator& sim, ProcessTable& processes);

  /// Creates a token owned by `owner`; dies with the process.
  BinderToken mint_token(Pid owner);

  /// Registers `recipient` to run when the token's owner process dies.
  /// Returns false if the token is unknown or its owner is already dead
  /// (in which case the recipient fires immediately, matching Binder's
  /// behaviour of delivering the obituary on link).
  bool link_to_death(BinderToken token, DeathRecipient recipient);

  /// Removes the death link, e.g. after a clean wakelock release.
  void unlink_to_death(BinderToken token);

  /// Records an IPC transaction from `from` to `to` of `bytes` payload.
  /// Costs a fixed per-transaction CPU time on both sides, tracked by the
  /// caller via the returned duration (the scheduler applies it).
  sim::Duration transact(Pid from, Pid to, std::uint64_t bytes);

  /// Like transact(), but honours injected failures: when a failure
  /// budget is armed (fail_next), the transaction is consumed by the
  /// budget, costs nothing, and returns false — the caller sees the
  /// equivalent of DeadObjectException and must handle it. Framework
  /// paths that can survive a failed IPC (service start/bind, broadcast
  /// delivery) route through this entry point.
  bool try_transact(Pid from, Pid to, std::uint64_t bytes,
                    sim::Duration* cost = nullptr);

  /// Fault injection: the next `n` try_transact() calls fail.
  void fail_next(std::uint64_t n) { fail_budget_ += n; }
  [[nodiscard]] std::uint64_t failed_total() const { return failed_; }

  /// Invariant hook: true when every live token's owner process is alive
  /// (death must reap tokens synchronously).
  [[nodiscard]] bool tokens_consistent() const;
  [[nodiscard]] std::size_t token_count() const { return token_owner_.size(); }

  [[nodiscard]] const TransactionStats& stats_for(Pid pid) const;
  [[nodiscard]] std::uint64_t total_transactions() const { return total_.count; }

 private:
  void on_process_death(const ProcessInfo& info);

  sim::Simulator& sim_;
  ProcessTable& processes_;
  std::unordered_map<std::uint64_t, Pid> token_owner_;
  std::unordered_map<std::uint64_t, std::vector<DeathRecipient>> recipients_;
  std::unordered_map<Pid, std::vector<std::uint64_t>> tokens_by_pid_;
  std::unordered_map<Pid, TransactionStats> per_pid_stats_;
  TransactionStats total_;
  std::uint64_t next_token_ = 1;
  std::uint64_t fail_budget_ = 0;
  std::uint64_t failed_ = 0;
  /// Observability ids, interned/registered at construction (the server
  /// binds obs into the sim before building its kernel members).
  std::uint32_t txn_trace_name_ = 0;
  std::uint32_t txn_metric_ = 0;
  std::uint32_t fail_metric_ = 0;
};

}  // namespace eandroid::kernelsim

namespace std {
template <>
struct hash<eandroid::kernelsim::BinderToken> {
  size_t operator()(const eandroid::kernelsim::BinderToken& t) const noexcept {
    return std::hash<std::uint64_t>{}(t.id);
  }
};
}  // namespace std
