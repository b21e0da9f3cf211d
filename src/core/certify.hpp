#pragma once
// Independent certification of RFN verdicts.
//
// A verifier that is itself buggy is worse than none, so both verdict kinds
// can be re-checked through deliberately simple, separate code paths:
//   * Fails  — the error trace is replayed with plain 3-valued simulation
//              from the design's initial state; the property signal must
//              evaluate to a definite 1 at the final cycle.
//   * Holds  — the final abstract model's reachable set is recomputed and
//              checked to be an inductive invariant that excludes the bad
//              states: init implies Inv, post(Inv) implies Inv, and
//              Inv & bad == false. Because the abstraction over-approximates
//              the design (pseudo-inputs are free), such an invariant on the
//              abstraction certifies the property on the original design.

#include "core/rfn.hpp"
#include "netlist/netlist.hpp"

namespace rfn {

struct CertifyResult {
  bool ok = false;
  std::string detail;  // diagnostic on failure
};

/// Replays `trace` on `m` (inputs from the trace's input cubes; X-init
/// registers take the trace's cycle-1 values) and checks `bad` rises.
CertifyResult certify_error_trace(const Netlist& m, const Trace& trace, GateId bad);

/// Recomputes the fixpoint on the abstraction over `included_regs` and
/// checks the inductive-invariant conditions. `included_regs` is typically
/// RfnResult::final_registers after a Holds verdict.
CertifyResult certify_holds(const Netlist& m, GateId bad,
                            const std::vector<GateId>& included_regs,
                            const ReachOptions& opt = {});

/// Certifies an RfnResult end-to-end (dispatches on the verdict; a Holds is
/// checked over the run's final_registers; Unknown is never certifiable).
CertifyResult certify(const Netlist& m, GateId bad, const RfnResult& result);

}  // namespace rfn
