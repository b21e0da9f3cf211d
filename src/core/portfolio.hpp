#pragma once
// Engine-portfolio race: try heterogeneous engines on one proof obligation
// in priority order and keep the first conclusive verdict.
//
// The paper runs its engines as a fixed sequence (BDD fixpoint, then the
// hybrid trace engine, then guided sequential ATPG); a race generalizes that
// sequence to a list of jobs. Each engine is wrapped as a closure that polls
// a CancelToken at its step boundaries and returns true when it reached a
// conclusive verdict (storing its payload wherever the closure captured it).
// race() runs the jobs one after another on the calling thread, each under
// its own budget chained to the caller's token, and stops at the first
// conclusive one: the jobs behind it never start. List order is therefore
// the engine priority order.
//
// Ownership rule: BDD managers are single-owner. A job that needs BDDs
// creates (or exclusively borrows) its own BddMgr. Netlists are immutable
// after construction and safe to share read-only.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/cancel.hpp"

namespace rfn {

struct PortfolioJob {
  /// Engine name for the winner histogram and logs.
  std::string name;
  /// Per-job wall-clock budget (seconds); negative = unlimited. The budget
  /// starts when the job starts running.
  double time_limit_s = -1.0;
  /// The engine closure. Must poll `cancel` at step boundaries and return
  /// true iff it reached a conclusive verdict.
  std::function<bool(const CancelToken&)> run;
};

struct RaceResult {
  /// True when some job reported a conclusive verdict.
  bool conclusive = false;
  /// Name of the winning job (empty when none was conclusive).
  std::string winner_name;
  double seconds = 0.0;
  /// Thread-CPU seconds summed over every launched job (winner and
  /// inconclusive alike), measured per job via CLOCK_THREAD_CPUTIME_ID.
  double cpu_seconds = 0.0;
  size_t launched = 0;
  size_t cancelled = 0;
};

/// Runs `jobs` in order until one reports a conclusive verdict. Jobs behind
/// the winner are skipped and count as cancelled, as are jobs skipped
/// because the optional `parent` token was cancelled from outside; a job
/// that ends inconclusive while `parent` is cancelled counts as cancelled
/// too. Records the portfolio.* counters and engine.cpu.* timers.
RaceResult race(const std::vector<PortfolioJob>& jobs,
                const CancelToken* parent = nullptr);

}  // namespace rfn
