#pragma once
// JSON event trace for a verification run (schema "rfn-trace-v2").
//
// Every `rfn verify` is a session, so every trace is a batch: one
// "property" record per property — carrying that property's CEGAR
// iterations under "per_iteration" — then, for --certify runs, one
// "certificate" record per conclusive property, then one "batch-summary".
// Records are written as JSON Lines (one object per line) so a consumer can
// stream a long run without a closing bracket ever arriving. rfn_cli writes
// them to `--trace-json FILE`; rfn_serve streams the same records over its
// socket.
//
//   {"type":"property","name":"..","bad":..,
//    "verdict":"T|F|?|resource-out",
//    "order_seeded":..,"seeded_registers":..,
//    "iterations":..,"final_abstract_regs":..,"error_trace_cycles":..,
//    "seconds":..,"cpu_ms":..,"note":"..",
//    ["budget_trip":{"reason":"wall-budget|bdd-node-budget|mem-budget",
//                    "at_seconds":..,"bdd_nodes":..,"rss_bytes":..},]
//                                                       // watchdog trips only
//    "per_iteration":[<iteration>...]}                  // "iterations" entries
//   {"type":"certificate",...}                          // see CertificateRecord
//   {"type":"batch-summary","trace_version":"rfn-trace-v2",
//    "properties":..,
//    "verdicts":{"T":..,"F":..,"?":..,"resource-out":..},
//    ["certificates":{"ok":..,"failed":..},]            // --certify only
//    "seconds":..,
//    "metrics":{<MetricsRegistry::to_json(batch baseline)>}}
//
// One <iteration> entry per CEGAR iteration, numbered from 0:
//   {"type":"iteration","iter":k,
//    "abstraction":{"regs":..,"inputs":..,"gates":..},
//    "reach":{"status":"proved|bad-reachable|resource-out","steps":..,
//             "approx_used":..,"approx_proved":..},
//    "bdd":{"peak_nodes":..,"cache_lookups":..,"cache_hits":..,
//           "cache_hit_rate":..,"reorderings":..},
//    "hybrid":{"nocut_cubes":..,"mincut_cubes":..,"atpg_calls":..,
//              "atpg_rejects":..},
//    "trace_cycles":..,
//    "concretize":{"status":"sat|unsat|abort"},
//    "sat":{"conflicts":..,"propagations":..,"depth":..,"core_size":..},
//    "pdr":{"obligations":..,"clauses":..,"frames":..},
//    "refine":{"conflict_candidates":..,"fallback_candidates":..,
//              "hint_candidates":..,"added_until_unsat":..,
//              "removed_by_greedy":..,"final_count":..,"atpg_calls":..,
//              "trace_invalidated":..,"shrunk_registers":..},
//    "engines":{"abstract":{"winner":"..","seconds":..,"cpu_seconds":..},
//               "concretize":{"winner":"..","seconds":..,"cpu_seconds":..}},
//    "seconds":..}
//
// Every property is answered by its own run, so a property's "iterations",
// "seconds", "cpu_ms" and "per_iteration" are that run's. The summary's
// "metrics" is serialized relative to the snapshot taken when the batch
// started (api::RunOutput::baseline), so two runs in one process do not
// conflate.

#include <vector>

#include "core/rfn.hpp"
#include "core/session.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace rfn {

/// One CEGAR iteration as a JSON object (`"type":"iteration"`).
json::Value iteration_json(size_t index, const RfnIteration& it);

/// One session property outcome as a JSON object (`"type":"property"`),
/// its run's iterations included.
json::Value property_json(const PropertyResult& r);

/// One certification outcome per conclusive property, written by --certify
/// runs between the property records and the batch summary:
///   {"type":"certificate","property":"..","kind":"holds-invariant|fails-trace",
///    "ok":..,"clauses":..,"trace_cycles":..,"obligation":"..","seconds":..}
/// `obligation` is empty when ok; otherwise the failing checker obligation
/// (cert/check.hpp) or "extraction" when no witness could be built.
struct CertificateRecord {
  std::string property;
  std::string kind;
  bool ok = false;
  size_t clauses = 0;
  size_t trace_cycles = 0;
  std::string obligation;
  double seconds = 0.0;
};

json::Value certificate_json(const CertificateRecord& r);

/// The batch-summary record (`"type":"batch-summary"`): verdict counts over
/// `results`, certificate ok/failed counts when `certificates` is non-null,
/// and the metrics dump against `baseline`. api::run_verify ends every
/// trace with it.
json::Value batch_summary_json(const std::vector<PropertyResult>& results,
                               double seconds,
                               const MetricsSnapshot* baseline = nullptr,
                               const std::vector<CertificateRecord>* certificates = nullptr);

}  // namespace rfn
