#pragma once
// JSON event trace for the CEGAR loop.
//
// The sink renders one self-contained JSON object per CEGAR iteration plus
// one final summary object, written as JSON Lines (one object per line) so
// a consumer can stream a long run without a closing bracket ever arriving.
// rfn_cli exposes it as `--trace-json FILE`; the benches emit the same
// iteration schema inside their run records, which is what lets the CI
// regression gate read both with one parser.
//
// Schema (trace version "rfn-trace-v1"):
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
//    "refine":{"conflict_candidates":..,"fallback_candidates":..,
//              "added_until_unsat":..,"removed_by_greedy":..,
//              "final_count":..,"atpg_calls":..,"trace_invalidated":..},
//    "engines":{"abstract":{"winner":"..","seconds":..,"cpu_seconds":..},
//               "concretize":{"winner":"..","seconds":..,"cpu_seconds":..}},
//    "seconds":..}
//   {"type":"summary","trace_version":"rfn-trace-v1",
//    "verdict":"T|F|?|resource-out",
//    "iterations":..,"final_abstract_regs":..,"seconds":..,"cpu_seconds":..,
//    "note":"..",
//    ["budget_trip":{"reason":"wall-budget|bdd-node-budget|mem-budget",
//                    "at_seconds":..,"bdd_nodes":..,"rss_bytes":..},]
//                                                       // watchdog trips only
//    "metrics_epoch":..,
//    "metrics":{<MetricsRegistry::to_json(run baseline)>}}
//
// "metrics" is serialized relative to the snapshot taken when the run
// started (RfnResult::metrics_baseline): counters and timer count/seconds
// cover only this run, so two runs in one process do not conflate.
//
// Batch schema (trace version "rfn-trace-v2", written by the session path):
//   {"type":"property","name":"..","bad":..,
//    "verdict":"T|F|?|resource-out",
//    "order_seeded":..,"seeded_registers":..,
//    "iterations":..,"final_abstract_regs":..,"error_trace_cycles":..,
//    "seconds":..,"cpu_ms":..,"note":"..",
//    ["budget_trip":{...}]}                                // one per property
//   {"type":"batch-summary","trace_version":"rfn-trace-v2",
//    "properties":..,
//    "verdicts":{"T":..,"F":..,"?":..,"resource-out":..},
//    "seconds":..,
//    "metrics":{<MetricsRegistry::to_json(batch baseline)>}}
//
// v2 keeps per-iteration detail out of the property records (the single-run
// schema above carries it). Every property is answered by its own run, so a
// property's "iterations", "seconds" and "cpu_ms" are that run's.

#include <ostream>
#include <vector>

#include "core/rfn.hpp"
#include "core/session.hpp"
#include "util/json.hpp"

namespace rfn {

/// One CEGAR iteration as a JSON object (`"type":"iteration"`).
json::Value iteration_json(size_t index, const RfnIteration& it);

/// The run summary object (`"type":"summary"`), embedding the global
/// metrics registry dump — relative to the run's baseline — under
/// "metrics".
json::Value summary_json(const RfnResult& res);

/// Writes the whole run as JSON Lines: every iteration, then the summary.
void write_trace_json(std::ostream& os, const RfnResult& res);

/// One session property outcome as a JSON object (`"type":"property"`).
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
/// and the metrics dump against `baseline`. This is the record
/// write_batch_trace_json ends with; exposed so a streaming emitter
/// (api::run_verify, rfn_serve) produces the identical bytes.
json::Value batch_summary_json(const std::vector<PropertyResult>& results,
                               double seconds,
                               const MetricsSnapshot* baseline = nullptr,
                               const std::vector<CertificateRecord>* certificates = nullptr);

/// Writes a session batch as JSON Lines (rfn-trace-v2): one property record
/// per result, then one certificate record per entry of `certificates`
/// (when non-null; --certify batches pass the per-property certification
/// outcomes), then the batch summary — which gains a "certificates"
/// {"ok":..,"failed":..} object when records were written. `seconds` is the
/// batch wall time; `baseline` (optional) scopes the embedded metrics dump
/// to the batch.
void write_batch_trace_json(std::ostream& os,
                            const std::vector<PropertyResult>& results,
                            double seconds,
                            const MetricsSnapshot* baseline = nullptr,
                            const std::vector<CertificateRecord>* certificates = nullptr);

}  // namespace rfn
