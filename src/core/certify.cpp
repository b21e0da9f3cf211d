#include "core/certify.hpp"

#include "mc/image.hpp"
#include "netlist/subcircuit.hpp"
#include "sim/sim3.hpp"
#include "util/log.hpp"

namespace rfn {

CertifyResult certify_error_trace(const Netlist& m, const Trace& trace, GateId bad) {
  CertifyResult res;
  if (trace.empty()) {
    res.detail = "empty trace";
    return res;
  }
  Sim3 sim(m);
  sim.load_initial_state();
  // Registers with a hard initial value must agree with the trace's first
  // state cube; X-init registers take the trace's choice.
  for (const Literal& lit : trace.steps[0].state) {
    const Tri have = sim.value(lit.signal);
    if (have == Tri::X) {
      sim.set(lit.signal, tri_of(lit.value));
    } else if (have != tri_of(lit.value)) {
      res.detail = detail::format("trace starts outside the initial states (reg %u)",
                                  lit.signal);
      return res;
    }
  }
  for (size_t c = 0; c < trace.steps.size(); ++c) {
    sim.clear_inputs();
    for (const Literal& lit : trace.steps[c].inputs) {
      if (!m.is_input(lit.signal)) continue;
      sim.set(lit.signal, tri_of(lit.value));
    }
    sim.eval();
    if (c + 1 < trace.steps.size()) sim.step();
  }
  if (sim.value(bad) != Tri::T) {
    res.detail = detail::format("property signal is %c at the final cycle",
                                tri_char(sim.value(bad)));
    return res;
  }
  res.ok = true;
  return res;
}

CertifyResult certify_holds(const Netlist& m, GateId bad,
                            const std::vector<GateId>& included_regs,
                            const ReachOptions& opt) {
  CertifyResult res;
  const Subcircuit sub = extract_abstract_model(m, {bad}, included_regs);
  const GateId bad_new = sub.to_new(bad);
  if (bad_new == kNullGate) {
    res.detail = "property signal missing from the abstraction";
    return res;
  }

  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  mgr.set_auto_reorder(true);
  mgr.set_node_budget(opt.max_live_nodes);
  ImageComputer img(enc);
  if (img.aborted()) {
    res.detail = "resource limit while rebuilding the transition relation";
    return res;
  }
  const Bdd bad_set = mgr.exists(enc.signal_fn(bad_new), enc.input_vars());
  const Bdd init = enc.initial_states();
  const ReachResult reach = forward_reach(img, init, mgr.bdd_false(), opt);
  if (reach.status != ReachStatus::Proved) {
    res.detail = "could not recompute the fixpoint within the budget";
    return res;
  }
  const Bdd inv = reach.reached;

  // 1. Initiation: init -> Inv.
  if (!init.implies(inv)) {
    res.detail = "initial states escape the invariant";
    return res;
  }
  // 2. Consecution: post(Inv) -> Inv.
  const Bdd post = img.post_image(inv);
  if (post.is_null() || !post.implies(inv)) {
    res.detail = "invariant is not inductive";
    return res;
  }
  // 3. Safety: Inv & bad == false.
  if (inv.intersects(bad_set)) {
    res.detail = "invariant intersects the bad states";
    return res;
  }
  res.ok = true;
  return res;
}

CertifyResult certify(const Netlist& m, GateId bad, const RfnResult& result) {
  switch (result.verdict) {
    case Verdict::Fails:
      return certify_error_trace(m, result.error_trace, bad);
    case Verdict::Holds:
      return certify_holds(m, bad, result.final_registers);
    case Verdict::Unknown:
    case Verdict::ResourceOut: {
      CertifyResult res;
      res.detail = "inconclusive verdicts carry no certificate";
      return res;
    }
  }
  return {};
}

}  // namespace rfn
