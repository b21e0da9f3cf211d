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
// SubcircuitMemo

std::shared_ptr<const Subcircuit> SubcircuitMemo::get(
    const Netlist& m, const std::vector<GateId>& roots,
    const std::vector<GateId>& included) {
  std::string key;
  key.reserve((roots.size() + included.size() + 1) * sizeof(GateId));
  const auto push_ids = [&key](const std::vector<GateId>& ids) {
    key.append(reinterpret_cast<const char*>(ids.data()),
               ids.size() * sizeof(GateId));
  };
  push_ids(roots);
  key.push_back('\0');  // sizeof(GateId) has no 1-byte representation: safe separator
  push_ids(included);

  MetricsRegistry& reg = MetricsRegistry::global();
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    reg.counter("session.subcircuit_memo.hits").add(1);
    return it->second;
  }
  ++misses_;
  reg.counter("session.subcircuit_memo.misses").add(1);
  // Bound the cache: a long refinement run visits a fresh register set every
  // iteration and would otherwise retain every abstract model it ever built.
  // Dropping everything is crude but keeps the memo O(1)-bounded while still
  // serving the cross-property case (repeated identical extractions land
  // well under the cap).
  if (map_.size() >= 16) map_.clear();
  auto sub = std::make_shared<Subcircuit>(extract_abstract_model(m, roots, included));
  map_.emplace(std::move(key), sub);
  return sub;
}

int64_t SubcircuitMemo::approx_bytes() const {
  // Structural estimate: each memoized Subcircuit owns a netlist copy plus
  // two id maps sized by the ORIGINAL design. A nominal per-gate footprint
  // (gate record + fanin vector) over both keeps the figure monotone in the
  // cached volume, which is all the warm-state byte budget needs.
  constexpr int64_t kPerGate = 48;
  int64_t total = 0;
  for (const auto& [key, sub] : map_) {
    total += static_cast<int64_t>(key.size());
    total += static_cast<int64_t>(sub->net.size()) * kPerGate;
    total += static_cast<int64_t>(sub->old_of_new.size()) * sizeof(GateId) * 2;
  }
  return total;
}

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
// approx_fallback engine).
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

// The state Steps 2 and 3 of one iteration share: the design, this
// iteration's abstract model and its BDD encoding, the engines' budgets,
// and the per-iteration record the race jobs write their effort into.
struct IterationContext {
  const Netlist& m;
  GateId bad;
  const RfnOptions& opt;
  const Subcircuit& sub;
  const std::vector<GateId>& included;  // sorted
  const CancelToken* cancel;
  RfnIteration& it;
  // The abstract model's BDD side; null when "bdd" is disabled.
  Encoder* enc;
  ImageComputer* img;
  const Bdd& bad_set;
  ReachOptions reach_opt;
  SatBmc* sat_bmc;  // null when "sat" is disabled
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
            SatBmcResult r = cx.sat_bmc->check(cx.bad, depth, scope, &token);
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
            Pdr engine(cx.m, cx.bad, scope);
            PdrOptions po;
            po.max_frames = cx.opt.race_pdr_max_frames;
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
RaceAnswer abstract_step(IterationContext& cx, SavedOrder& saved_order) {
  RaceAnswer ans;
  ReachResult reach;
  std::vector<PortfolioJob> jobs;
  if (cx.enc != nullptr) {
    jobs.push_back({"bdd-reach", -1.0, [&](const CancelToken& token) {
                      ReachOptions ro = cx.reach_opt;
                      ro.cancel = &token;
                      reach = forward_reach(*cx.img, cx.enc->initial_states(),
                                            cx.bad_set, ro);
                      if (reach.status == ReachStatus::Proved)
                        ans.kind = RaceAnswer::Kind::Holds;
                      else if (reach.status == ReachStatus::BadReachable)
                        ans.kind = RaceAnswer::Kind::Trace;
                      return ans.kind != RaceAnswer::Kind::None;
                    }});
  }
  if (cx.sat_bmc != nullptr)
    jobs.push_back(sat_job(cx, kRaceSatMaxDepth, cx.included, cx.probe_budget,
                           false, ans));
  if (cx.opt.engine_enabled("pdr")) jobs.push_back(pdr_job(cx, cx.included, ans));
  const RaceResult res = race(jobs, cx.cancel);
  cx.it.abstract_engine = res.winner_name;
  cx.it.abstract_race_seconds = res.seconds;
  cx.it.abstract_race_cpu_seconds = res.cpu_seconds;
  cx.it.reach_steps = reach.steps;
  if (ans.kind == RaceAnswer::Kind::None) {
    cx.it.reach_status =
        cx.enc != nullptr ? reach.status : ReachStatus::ResourceOut;
    return ans;
  }
  cx.it.reach_status = ans.kind == RaceAnswer::Kind::Holds
                           ? ReachStatus::Proved
                           : ReachStatus::BadReachable;
  if (ans.kind == RaceAnswer::Kind::Trace && ans.traces.empty()) {
    HybridTraceOptions hybrid_opt = cx.opt.hybrid;
    if (hybrid_opt.cancel == nullptr) hybrid_opt.cancel = cx.cancel;
    for (const Trace& t : hybrid_error_traces(
             *cx.enc, cx.sub.net, reach, cx.bad_set,
             cx.opt.traces_per_iteration, hybrid_opt, &cx.it.hybrid))
      ans.traces.push_back(cx.sub.trace_to_old(t));
  }
  if (cx.enc != nullptr) saved_order = save_order(cx.enc->mgr(), *cx.enc, cx.sub);
  return ans;
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
RaceAnswer concrete_step(IterationContext& cx, const std::vector<Trace>& traces,
                         const std::vector<GateId>& all_regs) {
  RaceAnswer ans;
  std::vector<PortfolioJob> jobs;
  if (cx.opt.engine_enabled("atpg")) {
    jobs.push_back({"guided-atpg", -1.0, [&](const CancelToken& token) {
                      AtpgOptions ao = cx.opt.concretize_atpg;
                      ao.cancel = &token;
                      ConcretizeResult conc =
                          concretize_with_traces(cx.m, traces, cx.bad, ao);
                      if (conc.status == AtpgStatus::Sat) {
                        ans.kind = RaceAnswer::Kind::Trace;
                        ans.traces.push_back(std::move(conc.trace));
                      } else if (conc.status == AtpgStatus::Unsat) {
                        ans.kind = RaceAnswer::Kind::Spurious;
                      }
                      return ans.kind != RaceAnswer::Kind::None;
                    }});
  }
  if (cx.sat_bmc != nullptr)
    jobs.push_back(
        sat_job(cx, traces.front().cycles(), all_regs, -1.0, true, ans));
  if (cx.opt.engine_enabled("pdr")) jobs.push_back(pdr_job(cx, all_regs, ans));
  const RaceResult res = race(jobs, cx.cancel);
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

}  // namespace

RfnResult run_property(const Netlist& m, GateId bad, const RfnOptions& opt,
                       const RunHooks& hooks) {
  RFN_CHECK(bad < m.size(), "bad signal out of range");
  const std::vector<std::string> errors = opt.validate();
  RFN_CHECK(errors.empty(), "invalid options: %s", join_errors(errors).c_str());
  RfnResult result;
  Span run_span("rfn.run");
  const Deadline deadline(opt.time_limit_s);
  // CPU attribution: every engine race runs on this thread, so its CPU over
  // the whole run covers them.
  const int64_t run_cpu0 = prof::thread_cpu_ns();

  // Session seeding: the saved variable order and crucial-register hints of
  // earlier properties. Both are hints — they shape which abstract models
  // and orders the run visits, never what a verdict means.
  SavedOrder saved_order;
  if (hooks.order_io != nullptr) saved_order = *hooks.order_io;

  const std::vector<GateId> roots{bad};
  std::vector<GateId> included = initial_abstraction_registers(m, roots);
  if (hooks.seed_registers != nullptr && !hooks.seed_registers->empty()) {
    std::vector<bool> have(m.size(), false);
    for (GateId r : included) have[r] = true;
    for (GateId r : *hooks.seed_registers) {
      if (have[r]) continue;
      have[r] = true;
      included.push_back(r);
    }
  }

  // Proof-based shrink bookkeeping (opt.proof_shrink): registers of the
  // initial (seeded) abstraction are never dropped, and a register dropped
  // once becomes sticky if refinement ever re-adds it — shrink_abstraction
  // marks drops in this same bitmap, so the grow/shrink alternation cannot
  // oscillate on any single register.
  std::vector<bool> shrink_sticky;
  if (opt.proof_shrink) {
    shrink_sticky.assign(m.size(), false);
    for (GateId r : included) shrink_sticky[r] = true;
  }

  const auto note_crucial = [&hooks](const std::vector<GateId>& regs) {
    if (hooks.crucial_out == nullptr) return;
    const std::unordered_set<GateId> seen(hooks.crucial_out->begin(),
                                          hooks.crucial_out->end());
    for (GateId r : regs)
      if (seen.find(r) == seen.end()) hooks.crucial_out->push_back(r);
  };

  // Engine selection: empty opt.engines enables everything. "bdd" gates the
  // exact fixpoint (Step 2) and the approximate fallback; "atpg" gates
  // guided concretization (Step 3); "sat" gates the incremental BMC engine
  // and "pdr" the IC3 engine, both in both races. validate() demands a
  // Step-2 engine (bdd, sat or pdr). Only "bdd" and "pdr" can prove Holds,
  // so a list with neither restricts the loop to falsification.
  const bool use_bdd = opt.engine_enabled("bdd");
  std::unique_ptr<SatBmc> sat_owned;
  SatBmc* sat_bmc = nullptr;
  if (opt.engine_enabled("sat")) {
    // The pooled instance carries learned clauses and unrolled frames across
    // runs; without a pool the instance still persists across this run's
    // iterations and races (single-owner, like a BddMgr).
    if (hooks.sat_bmc != nullptr) {
      sat_bmc = &hooks.sat_bmc->get(m);
    } else {
      sat_owned = std::make_unique<SatBmc>(m);
      sat_bmc = sat_owned.get();
    }
  }
  const std::vector<GateId> all_regs = m.regs();  // ascending = sorted

  // Resource watchdog: when a budget is set, the run is cancelled through
  // run_token (chaining any external token), and every cancellation point
  // below polls `cancel` instead of opt.cancel directly.
  CancelToken run_token(-1.0, opt.cancel);
  WatchdogOptions wd_opt;
  wd_opt.wall_budget_s = opt.budget_ms > 0.0 ? opt.budget_ms * 1e-3 : -1.0;
  wd_opt.bdd_node_budget = opt.budget_bdd_nodes;
  wd_opt.mem_budget_mb = opt.budget_mem_mb;
  wd_opt.sample_rss = opt.sample_rss;
  Watchdog watchdog(wd_opt, &run_token);
  const bool budgeted = wd_opt.wall_budget_s > 0.0 ||
                        wd_opt.bdd_node_budget > 0 || wd_opt.mem_budget_mb > 0;
  const CancelToken* cancel = budgeted ? &run_token : opt.cancel;
  // With sample_rss but no budget the monitor thread still runs, purely as
  // the profiler's RSS sampler: it can never trip, so cancellation stays on
  // the caller's token.
  if (budgeted || wd_opt.sample_rss) watchdog.start();

  for (size_t iter = 0; iter < opt.max_iterations; ++iter) {
    if (deadline.expired()) {
      result.note = "time limit exceeded";
      break;
    }
    if (should_stop(cancel)) {
      result.note = "cancelled";
      break;
    }
    RfnIteration it;
    Span iter_span("rfn.iteration");
    iter_span.annotate("iter", static_cast<double>(iter));
    const Stopwatch iter_watch;
    ++result.iterations;

    // --- Step 1: abstract model ---
    std::sort(included.begin(), included.end());
    std::shared_ptr<const Subcircuit> sub_owned =
        hooks.subcircuits != nullptr
            ? hooks.subcircuits->get(m, roots, included)
            : std::make_shared<const Subcircuit>(
                  extract_abstract_model(m, roots, included));
    const Subcircuit& sub = *sub_owned;
    it.abstract_regs = sub.net.num_regs();
    it.abstract_inputs = sub.net.num_inputs();
    it.abstract_gates = sub.net.num_gates();
    RFN_INFO("iter %zu: abstract model regs=%zu inputs=%zu gates=%zu", iter,
             it.abstract_regs, it.abstract_inputs, sub.net.num_gates());

    BddMgr mgr;
    if (budgeted) mgr.set_live_node_probe(watchdog.node_probe());
    std::optional<Encoder> enc;
    std::optional<ImageComputer> img;
    if (use_bdd) {
      enc.emplace(mgr, sub.net);
      apply_saved_order(mgr, *enc, sub, saved_order);
    }
    mgr.set_auto_reorder(true);
    mgr.set_node_budget(opt.reach.max_live_nodes);
    if (use_bdd) img.emplace(*enc);

    // The stat snapshot turns the shared incremental solver's cumulative
    // counters into per-iteration deltas.
    const sat::SolverStats sat_before =
        sat_bmc != nullptr ? sat_bmc->solver_stats() : sat::SolverStats{};

    // Every exit path of this iteration funnels through here: harvest the
    // per-iteration BDD-manager internals, flush them into the registry
    // (exactly once per manager — it dies with the iteration) and stamp the
    // iteration wall time. "rfn.*" is the loop's own namespace.
    auto finish_iteration = [&](RfnIteration& done) {
      const BddStats& bs = mgr.stats();
      done.bdd_peak_nodes = bs.peak_live_nodes;
      done.bdd_cache_lookups = bs.cache_lookups;
      done.bdd_cache_hits = bs.cache_hits;
      done.bdd_reorderings = bs.reorderings;
      publish_bdd_metrics(bs);
      if (sat_bmc != nullptr) {
        const sat::SolverStats& ss = sat_bmc->solver_stats();
        done.sat_conflicts = ss.conflicts - sat_before.conflicts;
        done.sat_propagations = ss.propagations - sat_before.propagations;
      }
      done.seconds = iter_watch.seconds();
      MetricsRegistry& reg = MetricsRegistry::global();
      reg.counter("rfn.iterations").add(1);
      reg.timer("rfn.iteration").record(done.seconds);
      reg.gauge("rfn.abstract_regs").set(static_cast<int64_t>(done.abstract_regs));
      reg.counter("rfn.refined_registers").add(done.refine.final_count);
      reg.counter("rfn.abstract_trace_cycles").add(done.trace_cycles);
      result.per_iteration.push_back(done);
    };

    const GateId bad_new = sub.to_new(bad);
    RFN_CHECK(bad_new != kNullGate, "property signal missing from abstraction");
    // Bad states: states from which some input valuation raises the signal.
    Bdd bad_set;
    if (use_bdd) {
      bad_set = mgr.exists(enc->signal_fn(bad_new), enc->input_vars());
      if (img->aborted() || bad_set.is_null()) {
        it.reach_status = ReachStatus::ResourceOut;
        finish_iteration(it);
        result.note = "abstract model exceeded the BDD node budget";
        break;
      }
    }

    ReachOptions reach_opt = opt.reach;
    if (opt.time_limit_s >= 0.0) {
      const double rem = deadline.remaining_seconds();
      reach_opt.time_limit_s = reach_opt.time_limit_s < 0.0
                                   ? rem
                                   : std::min(reach_opt.time_limit_s, rem);
    }
    const double probe_budget =
        opt.time_limit_s >= 0.0
            ? std::min(opt.race_probe_time_s, deadline.remaining_seconds())
            : opt.race_probe_time_s;
    // PDR's race budget: it can conclude Holds, but an unlimited PDR job in
    // an otherwise-winnerless race would stall the loop, so it runs under
    // its own wall limit (0 = unlimited).
    const double pdr_race_s = opt.race_pdr_time_s > 0.0 ? opt.race_pdr_time_s : -1.0;
    const double pdr_budget =
        opt.time_limit_s >= 0.0
            ? (pdr_race_s < 0.0
                   ? deadline.remaining_seconds()
                   : std::min(pdr_race_s, deadline.remaining_seconds()))
            : pdr_race_s;
    IterationContext cx{
        .m = m,
        .bad = bad,
        .opt = opt,
        .sub = sub,
        .included = included,
        .cancel = cancel,
        .it = it,
        .enc = enc ? &*enc : nullptr,
        .img = img ? &*img : nullptr,
        .bad_set = bad_set,
        .reach_opt = reach_opt,
        .sat_bmc = sat_bmc,
        .probe_budget = probe_budget,
        .pdr_budget = pdr_budget,
    };

    // --- Step 2: prove or find an abstract error trace (engine race) ---
    RaceAnswer abs = abstract_step(cx, saved_order);
    RFN_INFO("iter %zu: abstract race won by %s", iter,
             it.abstract_engine.empty() ? "(none)" : it.abstract_engine.c_str());
    if (abs.kind == RaceAnswer::Kind::Holds) {
      // Subcircuit over-approximation lifts the abstract proof to the
      // original design. A PDR frame travels out as the certification
      // witness: a BDD fixpoint over this register scope may never have run.
      result.pdr_invariant = std::move(abs.invariant);
      finish_iteration(it);
      result.verdict = Verdict::Holds;
      break;
    }
    if (abs.kind == RaceAnswer::Kind::None) {
      // The exact fixpoint ran out of resources and the other engines
      // concluded nothing within their budgets.
      if (use_bdd && opt.approx_fallback && !deadline.expired() &&
          !should_stop(cancel)) {
        // Future-work fallback: the overlapping-partition approximate
        // traversal may still prove the property when the exact fixpoint
        // cannot complete on a large abstract model.
        it.approx_used = true;
        ApproxReachOptions aopt;
        aopt.block_size = kApproxBlockSize;
        aopt.overlap = kApproxOverlap;
        aopt.time_limit_s = opt.time_limit_s >= 0.0 ? deadline.remaining_seconds()
                                                    : reach_opt.time_limit_s;
        aopt.max_live_nodes = reach_opt.max_live_nodes;
        const ApproxReachResult approx =
            approx_forward_reach(*enc, enc->initial_states(), bad_set, aopt);
        if (approx.status == ApproxStatus::Proved) {
          it.approx_proved = true;
          finish_iteration(it);
          result.verdict = Verdict::Holds;
          result.note = "proved by overlapping-partition approximation";
          break;
        }
        // Inconclusive: there is no error trace to drive Step 4, but the
        // loop can still make progress topologically — pull in the next
        // batch of registers closest to the property and retry. This
        // bottoms out at the full-COI abstraction, where the approximate
        // traversal is as strong as it gets.
        std::vector<bool> have(m.size(), false);
        for (GateId r : included) have[r] = true;
        size_t added = 0;
        for (GateId r : closest_registers(m, roots, included.size() + 8)) {
          if (have[r]) continue;
          included.push_back(r);
          ++added;
        }
        if (added > 0) {
          RFN_INFO("iter %zu: approx inconclusive; blind-refining with %zu registers",
                   iter, added);
          finish_iteration(it);
          continue;
        }
      }
      finish_iteration(it);
      result.note = "abstract fixpoint exceeded resources";
      break;
    }
    if (abs.traces.empty()) {
      finish_iteration(it);
      result.note = "hybrid trace engine exhausted candidates";
      break;
    }
    const Trace& abs_trace = abs.traces.front();
    it.trace_cycles = abs_trace.cycles();
    RFN_INFO("iter %zu: %zu abstract error trace(s), first %zu cycles", iter,
             abs.traces.size(), abs_trace.cycles());

    // --- Step 3: concretize on the original design (engine race) ---
    RaceAnswer conc = concrete_step(cx, abs.traces, all_regs);
    if (conc.kind == RaceAnswer::Kind::Trace) {
      finish_iteration(it);
      result.verdict = Verdict::Fails;
      result.error_trace = std::move(conc.traces.front());
      break;
    }
    if (conc.kind == RaceAnswer::Kind::Holds) {
      // PDR proved the full design: the property holds outright, no matter
      // what the abstract trace suggested.
      result.pdr_invariant = std::move(conc.invariant);
      finish_iteration(it);
      result.verdict = Verdict::Holds;
      break;
    }

    // --- Step 4: refine ---
    if (should_stop(cancel)) {
      finish_iteration(it);
      result.note = "cancelled";
      break;
    }
    // Bounded-UNSAT assumption cores become refinement hints: registers the
    // refutation needed that the abstraction lacks go to the front of the
    // candidate list. Hints only — identify_crucial_registers still vets
    // every one of them — so they steer the refinement, never the verdict.
    RefineOptions refine_opt = opt.refine;
    if (conc.core) {
      for (GateId r : *conc.core)
        if (!std::binary_search(included.begin(), included.end(), r))
          refine_opt.hints.push_back(r);
      if (!refine_opt.hints.empty())
        MetricsRegistry::global()
            .counter("rfn.sat_hint_registers")
            .add(refine_opt.hints.size());
    }
    const std::vector<GateId> crucial = identify_crucial_registers(
        m, roots, bad, included, abs_trace, refine_opt, &it.refine);
    // Proof-driven shrink (Eén/Mishchenko/Amla): the Step-3 bounded-UNSAT
    // refutation names the registers it needed in its assumption core;
    // included registers outside that core contributed nothing to refuting
    // this trace, so drop them before growing with the crucial set. Sound
    // for any included set — the abstract check over-approximates for every
    // scope and concrete checks always run on the full design — so this can
    // change which abstractions the loop visits, never a verdict.
    if (opt.proof_shrink && conc.core) {
      it.shrunk_registers =
          shrink_abstraction(&included, *conc.core, &shrink_sticky);
      if (it.shrunk_registers > 0) {
        MetricsRegistry::global()
            .counter("rfn.shrink_registers")
            .add(it.shrunk_registers);
        RFN_INFO("iter %zu: proof shrink dropped %zu registers (now %zu)",
                 iter, it.shrunk_registers, included.size());
      }
    }
    finish_iteration(it);
    if (crucial.empty()) {
      result.note = "refinement produced no crucial registers";
      break;
    }
    RFN_INFO("iter %zu: refining with %zu crucial registers", iter, crucial.size());
    note_crucial(crucial);
    for (GateId r : crucial) included.push_back(r);
  }

  std::sort(included.begin(), included.end());
  result.final_registers = std::move(included);
  result.final_abstract_regs = result.final_registers.size();
  result.seconds = deadline.elapsed_seconds();
  result.cpu_seconds =
      static_cast<double>(prof::thread_cpu_ns() - run_cpu0) * 1e-9;
  if (hooks.order_io != nullptr) *hooks.order_io = std::move(saved_order);

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
  RunHooks hooks;
  ReuseCache fresh;
  std::vector<GateId> seeds;
  if (opt_.reuse) {
    // The caller's warm cache, when the session runs inline; otherwise a
    // fresh one per property. The workers == 0 restriction is load-bearing:
    // memo, pool, and order are single-threaded by design, and concurrent
    // property jobs would race on them.
    ReuseCache& cache = opt_.shared_cache != nullptr && opt_.workers == 0
                            ? *opt_.shared_cache
                            : fresh;
    // Only hints inside this property's register cone can influence its
    // run; seeding anything else would only bloat the abstraction.
    if (!cache.crucial_hints.empty()) {
      std::vector<GateId> cone = coi_registers(*m_, {p.bad});
      std::sort(cone.begin(), cone.end());
      for (GateId r : cache.crucial_hints)
        if (std::binary_search(cone.begin(), cone.end(), r)) seeds.push_back(r);
    }
    hooks.subcircuits = &cache.subcircuits;
    hooks.sat_bmc = &cache.sat_bmc;
    hooks.order_io = &cache.order;
    out.order_seeded = !cache.order.empty();
    hooks.seed_registers = &seeds;
    hooks.crucial_out = &cache.crucial_hints;
  }
  out.seeded_registers = seeds.size();
  RfnResult rr = run_property(*m_, p.bad, ro, hooks);
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
    reg.counter("session.order_seeded").add(r.order_seeded ? 1 : 0);
    reg.counter("session.seeded_registers").add(r.seeded_registers);
  }
  reg.timer("session.run").record(watch.seconds());
  span.annotate("properties", static_cast<double>(props.size()));
  return results;
}

}  // namespace rfn
