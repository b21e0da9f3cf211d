#pragma once
// Step 1: the abstract model and its BDD side.
//
// The very first abstract model is the subcircuit containing the transitive
// fanins (up to register outputs) of the property signals. At the end of
// each Step 2 the current BDD variable order is saved — keyed by original-
// design signal — and replayed as the initial order of the next iteration's
// fresh manager (paper Section 2.2, last paragraph). AbstractModel is one
// iteration's Step 1, shared by run_property and coverage analysis.

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "mc/encoder.hpp"
#include "mc/image.hpp"
#include "netlist/netlist.hpp"
#include "netlist/subcircuit.hpp"

namespace rfn {

/// Registers of the initial abstract model: those whose outputs lie in the
/// combinational fanin cone of the property signals.
std::vector<GateId> initial_abstraction_registers(const Netlist& m,
                                                  const std::vector<GateId>& property_roots);

/// A variable order expressed in original-design terms so it can be carried
/// across abstract models of different sizes.
struct SavedOrder {
  enum class Kind : uint8_t { Cur, Next };
  struct Token {
    Kind kind;
    GateId m_id;  // original-design signal: register, input, or cut signal
  };
  std::vector<Token> tokens;  // top level first
  bool empty() const { return tokens.empty(); }
};

/// Captures the manager's current order, translating each variable of `enc`
/// through `sub` into original-design ids. Variables the encoder does not
/// know (e.g. a min-cut child encoder's cut vars) are skipped.
SavedOrder save_order(const BddMgr& mgr, const Encoder& enc, const Subcircuit& sub);

/// Reorders `mgr` so that variables whose token appears in `saved` follow the
/// saved relative order; unknown variables keep their relative order after
/// them. Call right after constructing the encoder, before building any
/// large BDDs.
void apply_saved_order(BddMgr& mgr, const Encoder& enc, const Subcircuit& sub,
                       const SavedOrder& saved);

/// Memoized subcircuit extraction keyed by (property roots, included
/// register set). Single-threaded by design: a cache is owned by one
/// property job, or handed from job to job by an inline session; caches are
/// never shared across executor threads.
class SubcircuitMemo {
 public:
  /// Returns the memoized extraction for (roots, included) or runs
  /// extract_abstract_model and stores it. `included` must be sorted.
  std::shared_ptr<const Subcircuit> get(const Netlist& m,
                                        const std::vector<GateId>& roots,
                                        const std::vector<GateId>& included);

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

  /// Rough resident-byte estimate of the memoized subcircuits (structural:
  /// gates x a nominal per-gate footprint plus the id maps). Feeds the
  /// server's warm-state byte budget; exactness is not required there, only
  /// monotonicity in the cached volume.
  int64_t approx_bytes() const;

 private:
  std::unordered_map<std::string, std::shared_ptr<const Subcircuit>> map_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

/// One iteration's Step 1: the abstract model of a register set and its BDD
/// encoding. Every iteration gets a fresh manager. The constructor wires
/// the watchdog's node probe, builds the encoder, seeds it with the saved
/// variable order, turns dynamic reordering on, sets the live-node budget
/// and builds the image computer, in that order (it decides which sifts
/// run). The manager's stats go to the metrics registry exactly once, when
/// the model dies with its iteration.
class AbstractModel {
 public:
  /// `included` must be sorted; `memo` null extracts without memoizing.
  /// `encode` false (the "bdd" engine is off) leaves the manager empty: no
  /// encoder, no image computer. `node_probe` may be null.
  AbstractModel(const Netlist& m, const std::vector<GateId>& roots,
                const std::vector<GateId>& included, SubcircuitMemo* memo,
                const SavedOrder& order, size_t max_live_nodes, bool encode,
                std::atomic<int64_t>* node_probe = nullptr);
  ~AbstractModel();
  AbstractModel(const AbstractModel&) = delete;
  AbstractModel& operator=(const AbstractModel&) = delete;

  const Subcircuit& sub() const { return *sub_; }
  BddMgr& mgr() { return mgr_; }
  /// Null when built without `encode`.
  Encoder* enc() { return enc_ ? &*enc_ : nullptr; }
  ImageComputer* img() { return img_ ? &*img_ : nullptr; }
  /// The manager's current order, to seed the next iteration (needs `encode`).
  SavedOrder saved_order() const { return save_order(mgr_, *enc_, *sub_); }

 private:
  std::shared_ptr<const Subcircuit> sub_;
  BddMgr mgr_;
  std::optional<Encoder> enc_;
  std::optional<ImageComputer> img_;
};

}  // namespace rfn
