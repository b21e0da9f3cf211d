#pragma once
// Batch verification sessions: many unreachability properties of one design
// answered by one call (the paper's industrial workload — Table 1 verifies
// whole property suites on a single gate-level netlist).
//
// A VerifySession accepts a design plus a list of PropertyRequests and
// returns per-property PropertyResults. Every property runs solo: one
// abstraction-refinement run (run_property) on the session's design, whose
// abstraction grows from that property's own fanin, as in the paper (Table 1:
// mutex ends at 21 registers, error_flag at 8). Properties share solver
// state, never runs:
//
//   1. each property job carries a ReuseCache — memoized subcircuit
//      extraction keyed by (roots, register set), pooled incremental SAT BMC
//      instances, the final BDD variable order of the previous run, and the
//      crucial registers earlier runs refined with, which seed the next
//      run's initial abstraction. A job gets a fresh cache unless the caller
//      hands in a warm one (SessionOptions::shared_cache, the server's
//      per-design entry), which then carries from property to property and
//      from request to request. The cache carries *hints* only (orders,
//      refinement seeds, learned clauses), never verdicts, so disabling it
//      can only change wall time, not results;
//   2. property jobs run across util/executor with a fair-share wall
//      budget per property (enforced by the per-run resource watchdog), so
//      one hard property cannot starve the batch.
//
// run_property() is the one-property engine behind every session job, and
// the only way into the abstraction-refinement loop.

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/abstraction.hpp"
#include "core/rfn.hpp"
#include "netlist/netlist.hpp"
#include "netlist/subcircuit.hpp"
#include "sat/bmc.hpp"

namespace rfn {

/// One unreachability obligation handed to a VerifySession: "`bad` never
/// rises on any trace of the session's design".
struct PropertyRequest {
  /// Label used in results, the batch trace, and logs. Empty: the signal's
  /// design name, or "p<index>" when the signal is unnamed.
  std::string name;
  /// Property signal of the session's design.
  GateId bad = kNullGate;
  /// Per-property overrides on top of SessionOptions::defaults; unset
  /// fields inherit.
  struct Overrides {
    std::optional<double> time_limit_s;
    std::optional<size_t> max_iterations;
    std::optional<size_t> traces_per_iteration;
    std::optional<double> budget_ms;
    std::optional<int64_t> budget_bdd_nodes;
    std::optional<int64_t> budget_mem_mb;

    bool any() const {
      return time_limit_s || max_iterations || traces_per_iteration ||
             budget_ms || budget_bdd_nodes || budget_mem_mb;
    }
    /// `base` with every set field replaced: the one override merge, used
    /// by VerifySession and request validation.
    RfnOptions apply(RfnOptions base) const;
  } overrides;
};

/// Per-property outcome of a session run.
struct PropertyResult {
  std::string name;
  GateId bad = kNullGate;
  Verdict verdict = Verdict::Unknown;
  /// Error trace on the session's design (Fails only).
  Trace trace;
  /// The full record of this property's own run (iterations, budget trip,
  /// reuse-cache seeding).
  RfnResult stats;
};

struct ReuseCache;

struct SessionOptions {
  /// Baseline RfnOptions each property run starts from.
  RfnOptions defaults;
  /// Worker threads running property jobs concurrently (0 = inline, in
  /// request order). Each property run keeps its engine races on its own
  /// thread.
  size_t workers = 0;
  /// Whole-batch wall budget, split fair-share across properties: each
  /// property run gets budget / #properties, enforced through
  /// the per-run resource watchdog, so one hard property cannot starve the
  /// batch. <= 0: no batch budget (defaults.budget_ms still applies per
  /// run).
  double batch_budget_ms = -1.0;
  /// Enables the cross-property reuse cache (subcircuit memo, variable-
  /// order seeding, crucial-register hints). Hints only — never verdicts —
  /// so this is a performance switch, not a soundness one.
  bool reuse = true;
  /// Invoked once per property, as its result is finalized (completion
  /// order, which for workers == 0 is request order).
  /// Runs under the session's emission mutex, so the callback itself needs
  /// no locking. This is how rfn_serve streams rfn-trace-v2 property
  /// records mid-run; null keeps the historical collect-then-report shape.
  std::function<void(const PropertyResult&)> on_property;
  /// Cross-request warm state (the server's per-design cache entry): every
  /// property job reads and writes this ReuseCache instead of a fresh
  /// per-property one, so SavedOrder / SatBmcPool / SubcircuitMemo and the
  /// crucial-register hints carry from property to property and survive
  /// into the next session on the same design. Honored only when
  /// workers == 0 (the memo, pool, and order are single-threaded by design).
  /// The caller must construct every warmed session over the SAME Netlist
  /// instance (pool entries are keyed by address).
  ReuseCache* shared_cache = nullptr;
};

/// Pool of long-lived incremental SAT BMC instances keyed by design
/// identity. One instance accumulates learned clauses and unrolled frames
/// across every solve it answers, so handing the same instance to every run
/// on a design is where the incremental formulation pays off. Like
/// SubcircuitMemo it is single-threaded by design: one property job at a
/// time owns a pool, and within a run the portfolio's race barrier is the
/// happens-before edge between uses (same single-owner rule as a BddMgr).
class SatBmcPool {
 public:
  /// Returns the pooled instance for `m`, creating it on first use. The
  /// netlist is keyed by address and must stay alive, unchanged, for the
  /// pool's lifetime.
  SatBmc& get(const Netlist& m);

  size_t size() const { return map_.size(); }

  /// Byte-exact heap footprint of the pooled solvers (sum of each
  /// instance's tracked clause-arena + watch-list bytes; see
  /// sat::Solver::heap_bytes). The dominant term of a warm cache entry.
  int64_t heap_bytes() const;

 private:
  std::unordered_map<const Netlist*, std::unique_ptr<SatBmc>> map_;
};

/// Cross-property reuse state: one per property job, or the caller's warm
/// cache carried across properties and requests.
struct ReuseCache {
  SubcircuitMemo subcircuits;
  /// Incremental SAT BMC instances shared across the runs using the cache.
  SatBmcPool sat_bmc;
  /// Final variable order of the previous run (design-level ids, so it
  /// carries over between the abstractions of one design).
  SavedOrder order;
  /// Union of crucial registers identified by refinement so far, in
  /// discovery order.
  std::vector<GateId> crucial_hints;

  /// Resident-byte estimate of the whole cache: exact solver arenas plus
  /// structural estimates for the memo, order, and hints. The server's
  /// WarmStateCache charges each design entry by this figure.
  int64_t approx_bytes() const;
};

/// The single-property abstraction-refinement engine and the only entry to
/// the loop. Verifies "`bad` never rises" on `m` under `opt`. A non-null
/// `cache` is read and written by the run: Step 1 extracts through its
/// memo, SAT BMC comes from its pool, its saved order seeds the first BDD
/// manager and receives the final one, its crucial-register hints inside
/// the property's cone seed the initial abstraction, and Step 4 appends the
/// registers it refines with. Invalid options (RfnOptions::validate) are a
/// caller bug: the run aborts with the collected messages before any engine
/// starts.
RfnResult run_property(const Netlist& m, GateId bad, const RfnOptions& opt = {},
                       ReuseCache* cache = nullptr);

class VerifySession {
 public:
  /// `m` must outlive the session.
  explicit VerifySession(const Netlist& m, SessionOptions opt = {});

  /// Verifies the batch and returns one result per request, in request
  /// order. Each property's merged options are checked by run_property,
  /// which aborts on invalid ones; front doors validate first
  /// (api::VerifyRequest::validate).
  std::vector<PropertyResult> run(const std::vector<PropertyRequest>& props);

 private:
  /// One property job: a solo run_property on the session's design.
  void run_one(const PropertyRequest& p, double share_ms,
               PropertyResult& out) const;

  /// Fires SessionOptions::on_property under emit_mu_ (no-op when unset).
  void notify(const PropertyResult& r) const;

  const Netlist* m_;
  SessionOptions opt_;
  /// Serializes SessionOptions::on_property across property jobs.
  mutable std::mutex emit_mu_;
};

}  // namespace rfn
