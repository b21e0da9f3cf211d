#include "core/abstraction.hpp"

#include <algorithm>
#include <map>

#include "netlist/analysis.hpp"
#include "util/metrics.hpp"

namespace rfn {

std::vector<GateId> initial_abstraction_registers(const Netlist& m,
                                                  const std::vector<GateId>& property_roots) {
  // If a property root is itself a register (the usual watchdog idiom),
  // include it; support_registers alone would stop at it without including
  // its next-state cone.
  std::vector<GateId> regs = support_registers(m, property_roots);
  for (GateId r : property_roots) {
    if (m.is_reg(r) && std::find(regs.begin(), regs.end(), r) == regs.end())
      regs.push_back(r);
  }
  return regs;
}

SavedOrder save_order(const BddMgr& mgr, const Encoder& enc, const Subcircuit& sub) {
  SavedOrder saved;
  for (uint32_t lvl = 0; lvl < mgr.num_vars(); ++lvl) {
    const BddVar v = mgr.var_at_level(lvl);
    const GateId reg = enc.reg_of_var(v);
    if (reg != kNullGate) {
      saved.tokens.push_back({enc.is_next_var(v) ? SavedOrder::Kind::Next
                                                 : SavedOrder::Kind::Cur,
                              sub.to_old(reg)});
      continue;
    }
    const GateId input = enc.input_of_var(v);
    if (input != kNullGate)
      saved.tokens.push_back({SavedOrder::Kind::Cur, sub.to_old(input)});
  }
  return saved;
}

void apply_saved_order(BddMgr& mgr, const Encoder& enc, const Subcircuit& sub,
                       const SavedOrder& saved) {
  if (saved.empty()) return;
  // Map (kind, m_id) -> var in the new encoder. The "current value" of an
  // original signal is its state var if it is a kept register, or its input
  // var if it appears as a (pseudo-)input.
  std::map<std::pair<int, GateId>, BddVar> var_of;
  const Netlist& n = enc.netlist();
  for (GateId r : n.regs()) {
    var_of[{0, sub.to_old(r)}] = enc.state_var(r);
    var_of[{1, sub.to_old(r)}] = enc.next_var(r);
  }
  for (GateId i : n.inputs()) var_of[{0, sub.to_old(i)}] = enc.input_var(i);

  std::vector<bool> placed(mgr.num_vars(), false);
  std::vector<BddVar> order;
  order.reserve(mgr.num_vars());
  for (const SavedOrder::Token& t : saved.tokens) {
    const auto it = var_of.find({t.kind == SavedOrder::Kind::Next ? 1 : 0, t.m_id});
    if (it == var_of.end() || placed[it->second]) continue;
    placed[it->second] = true;
    order.push_back(it->second);
  }
  // Remaining variables keep their current relative order at the bottom.
  for (uint32_t lvl = 0; lvl < mgr.num_vars(); ++lvl) {
    const BddVar v = mgr.var_at_level(lvl);
    if (!placed[v]) order.push_back(v);
  }
  mgr.set_order(order);
}

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

AbstractModel::AbstractModel(const Netlist& m, const std::vector<GateId>& roots,
                             const std::vector<GateId>& included,
                             SubcircuitMemo* memo, const SavedOrder& order,
                             size_t max_live_nodes, bool encode,
                             std::atomic<int64_t>* node_probe)
    : sub_(memo != nullptr ? memo->get(m, roots, included)
                           : std::make_shared<const Subcircuit>(
                                 extract_abstract_model(m, roots, included))) {
  mgr_.set_live_node_probe(node_probe);
  if (encode) {
    enc_.emplace(mgr_, sub_->net);
    apply_saved_order(mgr_, *enc_, *sub_, order);
  }
  mgr_.set_auto_reorder(true);
  mgr_.set_node_budget(max_live_nodes);
  if (encode) img_.emplace(*enc_);
}

AbstractModel::~AbstractModel() { publish_bdd_metrics(mgr_.stats()); }

}  // namespace rfn
