#include "core/session.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "core/concretize.hpp"
#include "core/portfolio.hpp"
#include "core/refine.hpp"
#include "mc/approx_reach.hpp"
#include "mc/image.hpp"
#include "netlist/analysis.hpp"
#include "pdr/pdr.hpp"
#include "util/executor.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace rfn {

// ---------------------------------------------------------------------------
// SatBmcPool

SatBmc& SatBmcPool::get(const Netlist& m) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const auto it = map_.find(&m);
  if (it != map_.end()) {
    reg.counter("session.sat_pool.hits").add(1);
    return *it->second;
  }
  reg.counter("session.sat_pool.misses").add(1);
  return *map_.emplace(&m, std::make_unique<SatBmc>(m)).first->second;
}

int64_t SatBmcPool::heap_bytes() const {
  int64_t total = 0;
  for (const auto& [net, bmc] : map_)
    total += static_cast<int64_t>(bmc->solver_heap_bytes());
  return total;
}

// ---------------------------------------------------------------------------
// ReuseCache

int64_t ReuseCache::approx_bytes() const {
  return sat_bmc.heap_bytes() + subcircuits.approx_bytes() +
         static_cast<int64_t>(order.tokens.size() * sizeof(SavedOrder::Token)) +
         static_cast<int64_t>(crucial_hints.size() * sizeof(GateId));
}

// ---------------------------------------------------------------------------
// The single-property engine.

namespace {

// Fixed engine settings: one value serves every caller, so they are not
// options. Dynamic variable reordering is always on in Step 2, and each
// iteration's final variable order seeds the next (paper Section 2.2).
// The Step-2 SAT BMC probe's depth bound. (The Step-3 SAT check is bounded
// by the abstract trace length instead.)
constexpr size_t kRaceSatMaxDepth = 48;
// Block sizing of the overlapping-partition approximate traversal (the
// fallback after an inconclusive Step 2).
constexpr size_t kApproxBlockSize = 12;
constexpr size_t kApproxOverlap = 4;

std::string join_errors(const std::vector<std::string>& errors) {
  std::string s;
  for (const auto& e : errors) {
    if (!s.empty()) s += "; ";
    s += e;
  }
  return s;
}

// What an engine race concluded about its obligation. Each race job writes
// its own outcome here, so the step that ran the race reads one answer and
// never asks which engine produced it.
struct RaceAnswer {
  enum class Kind {
    None,      // no job was conclusive
    Holds,     // the obligation is proved
    Trace,     // error trace(s) found
    Spurious,  // Step 3: the abstract trace has no concrete counterpart
  };
  Kind kind = Kind::None;
  /// Holds: PDR's inductive frame when PDR proved it (absent for a BDD
  /// fixpoint).
  PdrInvariantWitness invariant;
  /// Trace: error traces in original-design ids.
  std::vector<Trace> traces;
  /// Spurious: the registers of SAT BMC's bounded-UNSAT assumption core,
  /// when SAT BMC refuted the trace (unset when guided ATPG did).
  std::optional<std::vector<GateId>> core;
};

// The state of one run that outlives its iterations: the design and its
// options, the register set the loop grows and shrinks, the variable order
// carried from iteration to iteration, and the engines every iteration
// shares.
struct RunState {
  const Netlist& m;
  GateId bad;
  const RfnOptions& opt;
  const Deadline& deadline;
  const CancelToken* cancel;
  ReuseCache* cache;  // null: nothing is reused across runs
  SatBmc* sat_bmc;    // null when "sat" is disabled
  RfnResult& result;
  std::vector<GateId> roots;
  std::vector<GateId> all_regs;  // ascending = sorted
  std::vector<GateId> included;  // sorted at the start of each iteration
  SavedOrder saved_order;
  // Proof-shrink bookkeeping: registers of the initial (seeded) abstraction
  // are never dropped, and a register dropped once becomes sticky if
  // refinement ever re-adds it — shrink_abstraction marks drops in this same
  // bitmap, so the grow/shrink alternation cannot oscillate on any single
  // register.
  std::vector<bool> shrink_sticky;
};

// The state Steps 2-4 of one iteration share: the run, Step 1's model and
// the bad states on it, this iteration's engine budgets, and the
// per-iteration record the steps write their effort into.
struct IterationContext {
  IterationContext(RunState& r, AbstractModel& model_, RfnIteration& it_,
                   size_t iter_)
      : run(r), model(model_), it(it_), iter(iter_), reach_opt(r.opt.reach) {
    const RfnOptions& opt = run.opt;
    const GateId bad_new = model.sub().to_new(run.bad);
    RFN_CHECK(bad_new != kNullGate, "property signal missing from abstraction");
    // Bad states: states from which some input valuation raises the signal.
    if (Encoder* enc = model.enc())
      bad_set = model.mgr().exists(enc->signal_fn(bad_new), enc->input_vars());
    // A budget (negative = none) capped by what is left of the time limit.
    const auto cap = [&](double budget) {
      if (opt.time_limit_s < 0.0) return budget;
      const double rem = run.deadline.remaining_seconds();
      return budget < 0.0 ? rem : std::min(budget, rem);
    };
    reach_opt.time_limit_s = cap(reach_opt.time_limit_s);
    probe_budget = cap(opt.race_probe_time_s);
    // PDR can conclude Holds, but an unlimited PDR job in an otherwise
    // winnerless race would stall the loop, so it runs under its own wall
    // limit (0 = unlimited).
    pdr_budget = cap(opt.race_pdr_time_s > 0.0 ? opt.race_pdr_time_s : -1.0);
  }

  RunState& run;
  AbstractModel& model;
  RfnIteration& it;
  size_t iter;
  Bdd bad_set;  // null when "bdd" is disabled
  ReachOptions reach_opt;
  double probe_budget;
  double pdr_budget;
};

// The SAT BMC job of either race: a check of `bad` up to `depth` frames
// with `scope` enabled, every other register left a free pseudo-input (the
// enable-assumption formulation of the extracted subcircuit's semantics).
// Sat is a real trace of that obligation, already in original-design ids.
// A bounded Unsat proves nothing unbounded; it settles only Step 3's
// check at the abstract trace's length (`refutes`), naming its core.
PortfolioJob sat_job(IterationContext& cx, size_t depth,
                     const std::vector<GateId>& scope, double budget,
                     bool refutes, RaceAnswer& ans) {
  return {"sat-bmc", budget,
          [&cx, depth, &scope, refutes, &ans](const CancelToken& token) {
            SatBmcResult r = cx.run.sat_bmc->check(cx.run.bad, depth, scope, &token);
            cx.it.sat_depth = std::max(cx.it.sat_depth, r.depth);
            if (r.status == AtpgStatus::Sat) {
              ans.kind = RaceAnswer::Kind::Trace;
              ans.traces.push_back(std::move(r.trace));
            } else if (refutes && r.status == AtpgStatus::Unsat) {
              ans.kind = RaceAnswer::Kind::Spurious;
              ans.core = std::move(r.core_registers);
            }
            return ans.kind != RaceAnswer::Kind::None;
          }};
}

// The IC3/PDR job of either race: the engine runs on the original design
// with only `scope` as state (the pseudo-input semantics the extracted
// subcircuit gives every other register), so Holds is an UNBOUNDED proof of
// that obligation and Cex a real trace of it, already in original-design
// ids.
PortfolioJob pdr_job(IterationContext& cx, const std::vector<GateId>& scope,
                     RaceAnswer& ans) {
  return {"pdr", cx.pdr_budget, [&cx, &scope, &ans](const CancelToken& token) {
            Pdr engine(cx.run.m, cx.run.bad, scope);
            PdrOptions po;
            po.max_frames = cx.run.opt.race_pdr_max_frames;
            PdrResult r = engine.run(po, &token);
            cx.it.pdr_obligations += r.stats.obligations;
            cx.it.pdr_clauses += r.stats.clauses;
            cx.it.pdr_frames = std::max(cx.it.pdr_frames, r.stats.frames);
            if (r.status == PdrStatus::Holds) {
              ans.kind = RaceAnswer::Kind::Holds;
              ans.invariant = {true, std::move(r.scope), std::move(r.clauses)};
            } else if (r.status == PdrStatus::Cex) {
              ans.kind = RaceAnswer::Kind::Trace;
              ans.traces.push_back(std::move(r.trace));
            }
            return ans.kind != RaceAnswer::Kind::None;
          }};
}

// Step 2: prove the abstract model or find abstract error traces, racing
// bdd-reach -> sat-bmc -> pdr. BDD reachability and PDR can prove; SAT BMC
// can only find a trace, but a trace it finds is exact, so it still drives
// Steps 3-4 after an inconclusive fixpoint. A fixpoint that reaches the bad
// states leaves its traces in the onion rings, where the BDD-ATPG hybrid
// engine extracts them: an answer of Trace with no trace means the hybrid
// engine exhausted its candidates.
RaceAnswer abstract_step(IterationContext& cx) {
  RaceAnswer ans;
  ReachResult reach;
  Encoder* enc = cx.model.enc();
  const RfnOptions& opt = cx.run.opt;
  std::vector<PortfolioJob> jobs;
  if (enc != nullptr) {
    jobs.push_back({"bdd-reach", -1.0, [&](const CancelToken& token) {
                      ReachOptions ro = cx.reach_opt;
                      ro.cancel = &token;
                      reach = forward_reach(*cx.model.img(), enc->initial_states(),
                                            cx.bad_set, ro);
                      if (reach.status == ReachStatus::Proved)
                        ans.kind = RaceAnswer::Kind::Holds;
                      else if (reach.status == ReachStatus::BadReachable)
                        ans.kind = RaceAnswer::Kind::Trace;
                      return ans.kind != RaceAnswer::Kind::None;
                    }});
  }
  if (cx.run.sat_bmc != nullptr)
    jobs.push_back(sat_job(cx, kRaceSatMaxDepth, cx.run.included,
                           cx.probe_budget, false, ans));
  if (opt.engine_enabled("pdr")) jobs.push_back(pdr_job(cx, cx.run.included, ans));
  const RaceResult res = race(jobs, cx.run.cancel);
  cx.it.abstract_engine = res.winner_name;
  cx.it.abstract_race_seconds = res.seconds;
  cx.it.abstract_race_cpu_seconds = res.cpu_seconds;
  cx.it.reach_steps = reach.steps;
  if (ans.kind == RaceAnswer::Kind::None) {
    cx.it.reach_status = enc != nullptr ? reach.status : ReachStatus::ResourceOut;
    return ans;
  }
  cx.it.reach_status = ans.kind == RaceAnswer::Kind::Holds
                           ? ReachStatus::Proved
                           : ReachStatus::BadReachable;
  if (ans.kind == RaceAnswer::Kind::Trace && ans.traces.empty()) {
    HybridTraceOptions hybrid_opt = opt.hybrid;
    if (hybrid_opt.cancel == nullptr) hybrid_opt.cancel = cx.run.cancel;
    const Subcircuit& sub = cx.model.sub();
    for (const Trace& t :
         hybrid_error_traces(*enc, sub.net, reach, cx.bad_set,
                             opt.traces_per_iteration, hybrid_opt, &cx.it.hybrid))
      ans.traces.push_back(sub.trace_to_old(t));
  }
  if (enc != nullptr) cx.run.saved_order = cx.model.saved_order();
  return ans;
}

// After an inconclusive Step 2, the overlapping-partition approximate
// traversal (the paper's future-work engine) may still prove the property
// when the exact fixpoint cannot complete on a large abstract model.
enum class ApproxOutcome { Proved, BlindRefined, Inconclusive };
ApproxOutcome approx_step(IterationContext& cx) {
  RunState& run = cx.run;
  if (cx.model.enc() == nullptr || run.deadline.expired() ||
      should_stop(run.cancel))
    return ApproxOutcome::Inconclusive;
  cx.it.approx_used = true;
  ApproxReachOptions aopt;
  aopt.block_size = kApproxBlockSize;
  aopt.overlap = kApproxOverlap;
  aopt.time_limit_s = run.opt.time_limit_s >= 0.0
                          ? run.deadline.remaining_seconds()
                          : cx.reach_opt.time_limit_s;
  aopt.max_live_nodes = cx.reach_opt.max_live_nodes;
  Encoder& enc = *cx.model.enc();
  const ApproxReachResult approx =
      approx_forward_reach(enc, enc.initial_states(), cx.bad_set, aopt);
  if (approx.status == ApproxStatus::Proved) {
    cx.it.approx_proved = true;
    return ApproxOutcome::Proved;
  }
  // Inconclusive: there is no error trace to drive Step 4, but the loop can
  // still make progress topologically — pull in the next batch of registers
  // closest to the property and retry. This bottoms out at the full-COI
  // abstraction, where the approximate traversal is as strong as it gets.
  std::vector<bool> have(run.m.size(), false);
  for (GateId r : run.included) have[r] = true;
  size_t added = 0;
  for (GateId r : closest_registers(run.m, run.roots, run.included.size() + 8)) {
    if (have[r]) continue;
    run.included.push_back(r);
    ++added;
  }
  if (added == 0) return ApproxOutcome::Inconclusive;
  RFN_INFO("iter %zu: approx inconclusive; blind-refining with %zu registers",
           cx.iter, added);
  return ApproxOutcome::BlindRefined;
}

// Step 3: concretize the abstract error traces on the original design,
// racing guided-atpg -> sat-bmc -> pdr. Guided sequential ATPG is
// conclusive both ways (Sat = real trace, Unsat = spurious). SAT BMC with
// every register enabled is too, at the abstract trace's length: Sat is a
// real error trace (possibly shorter), Unsat proves no trace that short
// exists, and its assumption core names the registers the refutation
// needed (the refinement hints). With every register as state, PDR's Cex is
// a real error trace and its Holds a proof on the FULL design, which ends
// the whole loop, not just this trace.
RaceAnswer concrete_step(IterationContext& cx, const std::vector<Trace>& traces) {
  RaceAnswer ans;
  const RunState& run = cx.run;
  std::vector<PortfolioJob> jobs;
  if (run.opt.engine_enabled("atpg")) {
    jobs.push_back({"guided-atpg", -1.0, [&](const CancelToken& token) {
                      AtpgOptions ao = run.opt.concretize_atpg;
                      ao.cancel = &token;
                      ConcretizeResult conc =
                          concretize_with_traces(run.m, traces, run.bad, ao);
                      if (conc.status == AtpgStatus::Sat) {
                        ans.kind = RaceAnswer::Kind::Trace;
                        ans.traces.push_back(std::move(conc.trace));
                      } else if (conc.status == AtpgStatus::Unsat) {
                        ans.kind = RaceAnswer::Kind::Spurious;
                      }
                      return ans.kind != RaceAnswer::Kind::None;
                    }});
  }
  if (run.sat_bmc != nullptr)
    jobs.push_back(
        sat_job(cx, traces.front().cycles(), run.all_regs, -1.0, true, ans));
  if (run.opt.engine_enabled("pdr")) jobs.push_back(pdr_job(cx, run.all_regs, ans));
  const RaceResult res = race(jobs, run.cancel);
  cx.it.concretize_engine = res.winner_name;
  cx.it.concretize_race_seconds = res.seconds;
  cx.it.concretize_race_cpu_seconds = res.cpu_seconds;
  cx.it.concretize_status = ans.kind == RaceAnswer::Kind::Trace ? AtpgStatus::Sat
                            : ans.kind == RaceAnswer::Kind::None
                                ? AtpgStatus::Abort
                                : AtpgStatus::Unsat;
  if (ans.core) cx.it.sat_core_size = ans.core->size();
  return ans;
}

// Step 4: refine after a spurious trace. A bounded-UNSAT assumption core
// from Step 3 does two things. Its registers that the abstraction lacks go
// to the front of the refinement candidates: hints only, since
// identify_crucial_registers still vets every one of them. And included
// registers outside it contributed nothing to refuting this trace, so they
// are dropped before the crucial set grows the abstraction (proof-driven
// shrink, Eén/Mishchenko/Amla). Shrink is sound for any included set — the
// abstract check over-approximates for every scope and concrete checks
// always run on the full design — so it changes which abstractions the loop
// visits, never a verdict. False when refinement found no crucial register.
bool refine_step(IterationContext& cx, const Trace& abs_trace,
                 const RaceAnswer& conc) {
  RunState& run = cx.run;
  RefineOptions refine_opt = run.opt.refine;
  if (conc.core) {
    for (GateId r : *conc.core)
      if (!std::binary_search(run.included.begin(), run.included.end(), r))
        refine_opt.hints.push_back(r);
    if (!refine_opt.hints.empty())
      MetricsRegistry::global()
          .counter("rfn.sat_hint_registers")
          .add(refine_opt.hints.size());
  }
  const std::vector<GateId> crucial = identify_crucial_registers(
      run.m, run.roots, run.bad, run.included, abs_trace, refine_opt,
      &cx.it.refine);
  if (conc.core) {
    cx.it.shrunk_registers =
        shrink_abstraction(&run.included, *conc.core, &run.shrink_sticky);
    if (cx.it.shrunk_registers > 0) {
      MetricsRegistry::global()
          .counter("rfn.shrink_registers")
          .add(cx.it.shrunk_registers);
      RFN_INFO("iter %zu: proof shrink dropped %zu registers (now %zu)",
               cx.iter, cx.it.shrunk_registers, run.included.size());
    }
  }
  if (crucial.empty()) {
    run.result.note = "refinement produced no crucial registers";
    return false;
  }
  RFN_INFO("iter %zu: refining with %zu crucial registers", cx.iter,
           crucial.size());
  if (run.cache != nullptr) {
    std::vector<GateId>& hints = run.cache->crucial_hints;
    const std::unordered_set<GateId> seen(hints.begin(), hints.end());
    for (GateId r : crucial)
      if (seen.find(r) == seen.end()) hints.push_back(r);
  }
  for (GateId r : crucial) run.included.push_back(r);
  return true;
}

// Steps 2-4 of one iteration on Step 1's model. True: the abstraction grew,
// so iterate again. False: the run ends, with its verdict or a note saying
// why in the result.
bool steps_2_to_4(IterationContext& cx) {
  RfnResult& result = cx.run.result;
  if (cx.model.enc() != nullptr &&
      (cx.model.img()->aborted() || cx.bad_set.is_null())) {
    cx.it.reach_status = ReachStatus::ResourceOut;
    result.note = "abstract model exceeded the BDD node budget";
    return false;
  }

  RaceAnswer abs = abstract_step(cx);
  RFN_INFO("iter %zu: abstract race won by %s", cx.iter,
           cx.it.abstract_engine.empty() ? "(none)" : cx.it.abstract_engine.c_str());
  if (abs.kind == RaceAnswer::Kind::Holds) {
    // Subcircuit over-approximation lifts the abstract proof to the original
    // design. A PDR frame travels out as the certification witness: a BDD
    // fixpoint over this register scope may never have run.
    result.pdr_invariant = std::move(abs.invariant);
    result.verdict = Verdict::Holds;
    return false;
  }
  if (abs.kind == RaceAnswer::Kind::None) {
    // The exact fixpoint ran out of resources and the other engines
    // concluded nothing within their budgets.
    switch (approx_step(cx)) {
      case ApproxOutcome::Proved:
        result.verdict = Verdict::Holds;
        result.note = "proved by overlapping-partition approximation";
        return false;
      case ApproxOutcome::BlindRefined:
        return true;
      case ApproxOutcome::Inconclusive:
        result.note = "abstract fixpoint exceeded resources";
        return false;
    }
  }
  if (abs.traces.empty()) {
    result.note = "hybrid trace engine exhausted candidates";
    return false;
  }
  const Trace& abs_trace = abs.traces.front();
  cx.it.trace_cycles = abs_trace.cycles();
  RFN_INFO("iter %zu: %zu abstract error trace(s), first %zu cycles", cx.iter,
           abs.traces.size(), abs_trace.cycles());

  RaceAnswer conc = concrete_step(cx, abs.traces);
  if (conc.kind == RaceAnswer::Kind::Trace) {
    result.verdict = Verdict::Fails;
    result.error_trace = std::move(conc.traces.front());
    return false;
  }
  if (conc.kind == RaceAnswer::Kind::Holds) {
    // PDR proved the full design: the property holds outright, no matter
    // what the abstract trace suggested.
    result.pdr_invariant = std::move(conc.invariant);
    result.verdict = Verdict::Holds;
    return false;
  }
  if (should_stop(cx.run.cancel)) {
    result.note = "cancelled";
    return false;
  }
  return refine_step(cx, abs_trace, conc);
}

// The initial abstraction: the property's fanin registers, unioned with the
// crucial registers earlier runs on the cache refined with, as far as they
// lie in this property's register cone (hints outside it could only bloat
// the abstraction). A larger register set only tightens the
// over-approximation, so seeding shapes which abstractions the run visits,
// never what a verdict means.
std::vector<GateId> initial_registers(const Netlist& m, GateId bad,
                                      const ReuseCache* cache,
                                      RfnResult& result) {
  std::vector<GateId> included = initial_abstraction_registers(m, {bad});
  if (cache == nullptr || cache->crucial_hints.empty()) return included;
  std::vector<GateId> cone = coi_registers(m, {bad});
  std::sort(cone.begin(), cone.end());
  std::vector<bool> have(m.size(), false);
  for (GateId r : included) have[r] = true;
  for (GateId r : cache->crucial_hints) {
    if (!std::binary_search(cone.begin(), cone.end(), r)) continue;
    ++result.seeded_registers;
    if (have[r]) continue;
    have[r] = true;
    included.push_back(r);
  }
  return included;
}

// Closes one iteration's record, on every way out of it: the BDD manager's
// internals, the shared solver's deltas and the wall time, into the result
// and the loop's own "rfn.*" metrics.
void finish_iteration(RunState& run, AbstractModel& model,
                      const sat::SolverStats& sat_before, double seconds,
                      RfnIteration& it) {
  const BddStats& bs = model.mgr().stats();
  it.bdd_peak_nodes = bs.peak_live_nodes;
  it.bdd_cache_lookups = bs.cache_lookups;
  it.bdd_cache_hits = bs.cache_hits;
  it.bdd_reorderings = bs.reorderings;
  if (run.sat_bmc != nullptr) {
    const sat::SolverStats& ss = run.sat_bmc->solver_stats();
    it.sat_conflicts = ss.conflicts - sat_before.conflicts;
    it.sat_propagations = ss.propagations - sat_before.propagations;
  }
  it.seconds = seconds;
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("rfn.iterations").add(1);
  reg.timer("rfn.iteration").record(it.seconds);
  reg.gauge("rfn.abstract_regs").set(static_cast<int64_t>(it.abstract_regs));
  reg.counter("rfn.refined_registers").add(it.refine.final_count);
  reg.counter("rfn.abstract_trace_cycles").add(it.trace_cycles);
  run.result.per_iteration.push_back(std::move(it));
}

}  // namespace

RfnResult run_property(const Netlist& m, GateId bad, const RfnOptions& opt,
                       ReuseCache* cache) {
  RFN_CHECK(bad < m.size(), "bad signal out of range");
  const std::vector<std::string> errors = opt.validate();
  RFN_CHECK(errors.empty(), "invalid options: %s", join_errors(errors).c_str());
  RfnResult result;
  Span run_span("rfn.run");
  const Deadline deadline(opt.time_limit_s);
  // CPU attribution: every engine race runs on this thread, so its CPU over
  // the whole run covers them.
  const int64_t run_cpu0 = prof::thread_cpu_ns();

  // Engine selection: empty opt.engines enables everything. "bdd" gates the
  // exact fixpoint (Step 2) and the approximate fallback; "atpg" gates
  // guided concretization (Step 3); "sat" gates the incremental BMC engine
  // and "pdr" the IC3 engine, both in both races. validate() demands a
  // Step-2 engine (bdd, sat or pdr). Only "bdd" and "pdr" can prove Holds,
  // so a list with neither restricts the loop to falsification.
  const bool use_bdd = opt.engine_enabled("bdd");
  // The pooled SAT instance carries learned clauses and unrolled frames
  // across runs; without a cache the instance still persists across this
  // run's iterations and races (single-owner, like a BddMgr).
  std::unique_ptr<SatBmc> sat_owned;
  SatBmc* sat_bmc = nullptr;
  if (opt.engine_enabled("sat")) {
    if (cache == nullptr) sat_owned = std::make_unique<SatBmc>(m);
    sat_bmc = cache != nullptr ? &cache->sat_bmc.get(m) : sat_owned.get();
  }

  // Resource watchdog: when a budget is set, the run is cancelled through
  // run_token (chaining any external token), and every cancellation point
  // polls run.cancel instead of opt.cancel directly.
  CancelToken run_token(-1.0, opt.cancel);
  WatchdogOptions wd_opt;
  wd_opt.wall_budget_s = opt.budget_ms > 0.0 ? opt.budget_ms * 1e-3 : -1.0;
  wd_opt.bdd_node_budget = opt.budget_bdd_nodes;
  wd_opt.mem_budget_mb = opt.budget_mem_mb;
  wd_opt.sample_rss = opt.sample_rss;
  Watchdog watchdog(wd_opt, &run_token);
  const bool budgeted = wd_opt.wall_budget_s > 0.0 ||
                        wd_opt.bdd_node_budget > 0 || wd_opt.mem_budget_mb > 0;
  // With sample_rss but no budget the monitor thread still runs, purely as
  // the profiler's RSS sampler: it can never trip, so cancellation stays on
  // the caller's token.
  if (budgeted || wd_opt.sample_rss) watchdog.start();

  // Session seeding: the saved variable order and crucial-register hints of
  // earlier runs on the cache. Both are hints — they shape which abstract
  // models and orders the run visits, never what a verdict means.
  RunState run{.m = m,
               .bad = bad,
               .opt = opt,
               .deadline = deadline,
               .cancel = budgeted ? &run_token : opt.cancel,
               .cache = cache,
               .sat_bmc = sat_bmc,
               .result = result,
               .roots = {bad},
               .all_regs = m.regs(),
               .included = initial_registers(m, bad, cache, result),
               .saved_order = cache != nullptr ? cache->order : SavedOrder{},
               .shrink_sticky = std::vector<bool>(m.size(), false)};
  result.order_seeded = !run.saved_order.empty();
  for (GateId r : run.included) run.shrink_sticky[r] = true;

  for (size_t iter = 0; iter < opt.max_iterations; ++iter) {
    if (deadline.expired()) {
      result.note = "time limit exceeded";
      break;
    }
    if (should_stop(run.cancel)) {
      result.note = "cancelled";
      break;
    }
    Span iter_span("rfn.iteration");
    iter_span.annotate("iter", static_cast<double>(iter));
    const Stopwatch iter_watch;
    ++result.iterations;
    // The stat snapshot turns the shared incremental solver's cumulative
    // counters into per-iteration deltas.
    const sat::SolverStats sat_before =
        sat_bmc != nullptr ? sat_bmc->solver_stats() : sat::SolverStats{};

    // --- Step 1: the abstract model of the current register set ---
    std::sort(run.included.begin(), run.included.end());
    AbstractModel model(m, run.roots, run.included,
                        cache != nullptr ? &cache->subcircuits : nullptr,
                        run.saved_order, opt.reach.max_live_nodes, use_bdd,
                        budgeted ? watchdog.node_probe() : nullptr);
    RfnIteration it;
    it.abstract_regs = model.sub().net.num_regs();
    it.abstract_inputs = model.sub().net.num_inputs();
    it.abstract_gates = model.sub().net.num_gates();
    RFN_INFO("iter %zu: abstract model regs=%zu inputs=%zu gates=%zu", iter,
             it.abstract_regs, it.abstract_inputs, it.abstract_gates);

    // --- Steps 2-4: prove, concretize, refine ---
    IterationContext cx(run, model, it, iter);
    const bool refined = steps_2_to_4(cx);
    finish_iteration(run, model, sat_before, iter_watch.seconds(), it);
    if (!refined) break;
  }

  std::sort(run.included.begin(), run.included.end());
  result.final_registers = std::move(run.included);
  result.final_abstract_regs = result.final_registers.size();
  result.seconds = deadline.elapsed_seconds();
  result.cpu_seconds =
      static_cast<double>(prof::thread_cpu_ns() - run_cpu0) * 1e-9;
  if (cache != nullptr) cache->order = std::move(run.saved_order);

  // Joining the monitor thread is the happens-before edge for reading the
  // trip state (and, in the CLI, for exporting the span trace).
  watchdog.stop();
  if (watchdog.tripped()) {
    result.budget_trip.tripped = true;
    result.budget_trip.reason = watchdog.trip_reason();
    result.budget_trip.at_seconds = watchdog.trip_seconds();
    result.budget_trip.bdd_nodes = watchdog.trip_bdd_nodes();
    result.budget_trip.rss_bytes = watchdog.trip_rss_bytes();
    // A verdict reached before the trip landed is still sound; only an
    // undecided run degrades to resource-out.
    if (result.verdict == Verdict::Unknown) {
      result.verdict = Verdict::ResourceOut;
      result.note = "budget exceeded: " + result.budget_trip.reason;
    }
  }

  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("rfn.runs").add(1);
  reg.timer("rfn.run").record(result.seconds);
  switch (result.verdict) {
    case Verdict::Holds: reg.counter("rfn.verdict.holds").add(1); break;
    case Verdict::Fails: reg.counter("rfn.verdict.fails").add(1); break;
    case Verdict::Unknown: reg.counter("rfn.verdict.unknown").add(1); break;
    case Verdict::ResourceOut:
      reg.counter("rfn.verdict.resource_out").add(1);
      break;
  }
  run_span.annotate("verdict", to_string(result.verdict));
  return result;
}

// ---------------------------------------------------------------------------
// VerifySession

RfnOptions PropertyRequest::Overrides::apply(RfnOptions base) const {
  if (time_limit_s) base.time_limit_s = *time_limit_s;
  if (max_iterations) base.max_iterations = *max_iterations;
  if (traces_per_iteration) base.traces_per_iteration = *traces_per_iteration;
  if (budget_ms) base.budget_ms = *budget_ms;
  if (budget_bdd_nodes) base.budget_bdd_nodes = *budget_bdd_nodes;
  if (budget_mem_mb) base.budget_mem_mb = *budget_mem_mb;
  return base;
}

namespace {

/// Applies the fair-share wall budget: a property run may never exceed its
/// share of the batch budget (an explicit per-run budget can only tighten it
/// further).
void apply_fair_share(RfnOptions& opt, double share_ms) {
  if (share_ms <= 0.0) return;
  opt.budget_ms = opt.budget_ms > 0.0 ? std::min(opt.budget_ms, share_ms)
                                      : share_ms;
}

}  // namespace

VerifySession::VerifySession(const Netlist& m, SessionOptions opt)
    : m_(&m), opt_(std::move(opt)) {}

void VerifySession::notify(const PropertyResult& r) const {
  if (!opt_.on_property) return;
  std::lock_guard<std::mutex> lk(emit_mu_);
  opt_.on_property(r);
}

void VerifySession::run_one(const PropertyRequest& p, double share_ms,
                            PropertyResult& out) const {
  RfnOptions ro = p.overrides.apply(opt_.defaults);
  apply_fair_share(ro, share_ms);
  // The caller's warm cache, when the session runs inline; otherwise a
  // fresh one per property. The workers == 0 restriction is load-bearing:
  // memo, pool, and order are single-threaded by design, and concurrent
  // property jobs would race on them.
  ReuseCache fresh;
  ReuseCache* cache = !opt_.reuse ? nullptr
                      : opt_.shared_cache != nullptr && opt_.workers == 0
                          ? opt_.shared_cache
                          : &fresh;
  RfnResult rr = run_property(*m_, p.bad, ro, cache);
  out.verdict = rr.verdict;
  out.trace = rr.error_trace;
  out.stats = std::move(rr);
  notify(out);
}

std::vector<PropertyResult> VerifySession::run(
    const std::vector<PropertyRequest>& props) {
  std::vector<PropertyResult> results(props.size());
  if (props.empty()) return results;

  Span span("session.run");
  const Stopwatch watch;

  for (size_t i = 0; i < props.size(); ++i) {
    const PropertyRequest& p = props[i];
    RFN_CHECK(p.bad != kNullGate && p.bad < m_->size(),
              "property %zu: bad signal out of range", i);
    results[i].bad = p.bad;
    results[i].name = !p.name.empty()        ? p.name
                      : m_->has_name(p.bad)  ? m_->name(p.bad)
                                             : "p" + std::to_string(i);
  }

  const double share_ms =
      opt_.batch_budget_ms > 0.0
          ? opt_.batch_budget_ms / static_cast<double>(props.size())
          : -1.0;
  RFN_INFO("session: %zu properties", props.size());

  // Property jobs across the shared executor. Each job writes only its own
  // result slot, so the vector needs no locking; the latch below is the
  // completion barrier (inline execution with zero workers).
  Executor exec(opt_.workers);
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = props.size();
  for (size_t i = 0; i < props.size(); ++i) {
    exec.submit([&, i] {
      Span job_span("session.property");
      job_span.annotate("property", static_cast<double>(i));
      run_one(props[i], share_ms, results[i]);
      std::lock_guard<std::mutex> lk(mu);
      if (--pending == 0) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return pending == 0; });
  }

  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("session.batches").add(1);
  reg.counter("session.properties").add(props.size());
  for (const PropertyResult& r : results) {
    reg.counter("session.order_seeded").add(r.stats.order_seeded ? 1 : 0);
    reg.counter("session.seeded_registers").add(r.stats.seeded_registers);
  }
  reg.timer("session.run").record(watch.seconds());
  span.annotate("properties", static_cast<double>(props.size()));
  return results;
}

}  // namespace rfn
