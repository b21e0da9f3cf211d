// rfn — command-line front door to the verifier.
//
//   rfn verify   <design> --bad SIGNAL [options]   property verification
//   rfn coverage <design> --signals a,b,c [options] unreachable-state analysis
//   rfn translate <design> [--format blif|aag|aig]  design format conversion
//   rfn stats    <design>                           design statistics
//
// <design> is a .v (Verilog subset), .blif, or AIGER 1.9 .aag/.aig file
// (format chosen by extension; --aiger forces AIGER for other names), or
// builtin:fifo|processor|iu|usb for the shipped generated designs (small
// parameterizations; CI's batch runs use these). For AIGER designs every
// bad-state property (or output, pre-1.9 style) becomes a verification
// obligation: with no --bad/--props the whole set runs as one batch
// session, so fair-share budgets, the ReuseCache, and all engines apply
// unchanged. Common options:
//   --time-limit S     wall-clock budget (default 300)
//   --engine LIST      engines entering the races, comma-separated subset of
//                      bdd,atpg,sat,pdr (repeatable; default: all four).
//                      Unknown names, and lists without a Step-2 engine
//                      (bdd, sat or pdr), are rejected up front. Only bdd
//                      and pdr can prove HOLDS; a list without either can
//                      only falsify.
//   --proof-shrink     proof-based abstraction shrinking: drop included
//                      registers a Step-3 bounded-UNSAT core never touched
//                      (alternating grow/shrink; never changes a verdict)
//   --pdr-max-frames N IC3/PDR frame bound per race (default 128)
//   --pdr-time S       IC3/PDR wall budget per race (default 10, 0=unlimited)
//   --certify          build an rfn-cert-v1 witness for the verdict (an
//                      inductive invariant for HOLDS, the error trace for
//                      VIOLATED; see src/cert/format.hpp) and discharge it
//                      through the independent SAT checker — the same check
//                      tools/rfn_check.cpp runs out of process. Batch runs
//                      certify every HOLDS/VIOLATED member and add one
//                      "certificate" record per member to the rfn-trace-v2
//                      artifact
//   --cert-out FILE    write the single-run witness JSON to FILE (implies
//                      --certify)
//   --cert-dir DIR     batch runs: write each member's witness to
//                      DIR/<property>.cert.json (implies --certify)
//   --traces N         abstract traces per iteration (default 1)
//   --no-approx        disable the overlapping-partition fallback
//   --dump-trace       print the error trace on Fails
//   --top NAME         top module for multi-module Verilog
//   --trace-json FILE  write the CEGAR event trace as JSON Lines (one object
//                      per iteration plus a final summary; see
//                      src/core/trace_json.hpp for the schema)
//   --trace-spans FILE write a causal span trace in Chrome trace-event JSON
//                      (open in Perfetto / chrome://tracing, or analyze with
//                      tools/trace_report.py)
//   --budget-ms N      resource-watchdog wall budget; on overrun the run
//                      degrades to the resource-out verdict
//   --budget-bdd-nodes N  watchdog budget on BDD live nodes (memory proxy)
//   --budget-mem-mb N  watchdog budget on process RSS (MiB, sampled from
//                      /proc/self/statm); on overrun the run degrades to
//                      resource-out with the trip named "mem-budget"
//   --prof-json FILE   write an rfn-prof-v1 resource profile: per-engine
//                      thread-CPU, per-subsystem (bdd/sat) peak arena bytes,
//                      and the RSS timeline sampled by the watchdog thread
//                      (see src/util/prof.hpp for the schema; validate with
//                      tools/trace_report.py --prof FILE)
//   --prof-folded FILE write collapsed-stack self-time lines aggregated from
//                      the span rings (flamegraph.pl input; implies span
//                      tracing for the run even without --trace-spans)
//   --metrics          dump the full metrics registry as JSON on stdout
//
// Batch verification (a VerifySession instead of one run_property): repeat
// --bad, or point --props at a file with one property per line:
//   SIGNAL [name=LABEL] [time-limit=S] [max-iterations=N] [traces=N]
//          [budget-ms=N] [budget-bdd-nodes=N] [budget-mem-mb=N]
//                                                    (# starts a comment)
// Every property runs solo, on an abstraction grown from its own fanin;
// per-line overrides apply to that property's run only. With more than one property, --trace-json emits the rfn-trace-v2 batch
// schema (one "property" record each + a "batch-summary"); with exactly one
// it emits rfn-trace-v1 as before. Batch options:
//   --session-workers N   property jobs run concurrently (default 0: inline)
//   --batch-budget-ms N   whole-batch wall budget, split fair-share
//   --no-reuse            disable the cross-property reuse cache
//   --batch               force the session path (and the rfn-trace-v2
//                         artifact schema) even for a single property —
//                         corpus harnesses rely on one parser for all runs
//
// AIGER-specific options:
//   --aiger               treat <design> as AIGER regardless of extension
//   --witness-dir DIR     batch runs: drop an AIGER-convention witness per
//                         conclusive property into DIR/<property>.wit
//                         ("1\nb<k>\n<state>\n<inputs per cycle>...\n." for
//                         VIOLATED, "0\nb<k>\n." for HOLDS)
//   --aiger-witness FILE  single runs: the same, to one file
//
// This binary is a thin flag → api::VerifyRequest translator: design
// loading is api::load_design, the batch path is api::run_verify (the same
// run path rfn_serve drives from the socket — a command line and an
// rfn-req-v1 document are the same computation), and the single-run path is
// one run_property call. What remains here is flag parsing, the stdout report,
// and the file epilogues (span/prof artifacts, cert/witness exports).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "aiger/aiger.hpp"
#include "api/api.hpp"
#include "cert/format.hpp"
#include "core/coverage.hpp"
#include "netlist/analysis.hpp"
#include "netlist/blif.hpp"
#include "netlist/writer.hpp"
#include "util/options.hpp"
#include "util/prof.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

using namespace rfn;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rfn <verify|coverage|translate|stats> <design.v|design.blif> "
               "[options]\n       see the header of tools/rfn_cli.cpp for options\n");
  return 2;
}

std::string sanitize_file_stem(const std::string& property) {
  std::string out;
  for (const char c : property) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += keep ? c : '_';
  }
  return out;
}

std::string cert_file_name(const std::string& property) {
  return sanitize_file_stem(property) + ".cert.json";
}

/// AIGER witnesses name properties by index ("b<k>"): the index within the
/// source file's bad list when the design came from AIGER, else the
/// property's position in the run.
size_t witness_index(const std::vector<aiger::AigerProperty>& aprops,
                     const std::string& name, size_t fallback) {
  for (size_t i = 0; i < aprops.size(); ++i)
    if (aprops[i].name == name) return i;
  return fallback;
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (out) out << body;
  if (!out) std::fprintf(stderr, "rfn: cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

/// --prof-json epilogue: appends one final direct RSS sample (so the
/// timeline is never empty for runs shorter than a watchdog poll), stops the
/// log, assembles the rfn-prof-v1 document against the run's metrics
/// baseline, and writes it.
bool write_prof_json_file(const std::string& path,
                          const MetricsSnapshot& baseline, double wall_s,
                          double cpu_s) {
  prof::RssLog::global().sample();
  prof::RssLog::global().disable();
  const MetricsSnapshot now = MetricsRegistry::global().snapshot();
  const json::Value doc =
      prof::build_prof_json(baseline, now, wall_s, cpu_s);
  std::ofstream out(path);
  if (out) out << doc.dump(2) << "\n";
  if (!out) std::fprintf(stderr, "rfn: cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

/// --prof-folded: collapsed-stack self-time lines from the span rings
/// (tracing must have been enabled for the run and disabled again).
bool write_prof_folded_file(const std::string& path) {
  return write_text_file(
      path, prof::folded_stacks(SpanTracer::global().to_chrome_json()));
}

/// Span/prof instrumentation around a run: the flags are epilogue artifacts,
/// so both verify paths share the enable/disable/write bracketing.
struct ProfScope {
  std::string span_path, prof_json_path, prof_folded_path;
  bool trace_spans = false;
  int64_t pcpu0 = 0;

  explicit ProfScope(const Options& opts) {
    span_path = opts.get("trace-spans", "");
    prof_json_path = opts.get("prof-json", "");
    prof_folded_path = opts.get("prof-folded", "");
    trace_spans = !span_path.empty() || !prof_folded_path.empty();
    if (trace_spans) {
      SpanTracer::global().enable();
      SpanTracer::global().set_thread_name("main");
    }
    if (!prof_json_path.empty()) prof::RssLog::global().enable();
    pcpu0 = prof::process_cpu_ns();
  }

  double cpu_seconds() const {
    return static_cast<double>(prof::process_cpu_ns() - pcpu0) * 1e-9;
  }

  /// Writes the span/prof artifacts; call once after the run's threads have
  /// joined (the span buffers are quiescent then). False on I/O errors.
  bool finish(const MetricsSnapshot& baseline, double wall_s, double cpu_s) {
    if (trace_spans) {
      SpanTracer::global().disable();
      if (!span_path.empty()) {
        std::ofstream out(span_path);
        if (!out) {
          std::fprintf(stderr, "rfn: cannot write %s\n", span_path.c_str());
          return false;
        }
        SpanTracer::global().write_chrome_json(out);
      }
      if (!prof_folded_path.empty() &&
          !write_prof_folded_file(prof_folded_path))
        return false;
    }
    if (!prof_json_path.empty() &&
        !write_prof_json_file(prof_json_path, baseline, wall_s, cpu_s))
      return false;
    return true;
  }
};

int cmd_verify_batch(const api::LoadedDesign& design, const Options& opts,
                     api::VerifyRequest req) {
  const std::string cert_dir = opts.get("cert-dir", "");
  req.certify = opts.get_bool("certify", false) || !cert_dir.empty();

  // The trace file opens before the run so an unwritable path fails before
  // minutes of engine work, not after.
  const std::string trace_path = opts.get("trace-json", "");
  std::ofstream trace_out;
  if (!trace_path.empty()) {
    trace_out.open(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "rfn: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  api::StreamTraceSink file_sink(trace_out);

  ProfScope prof(opts);
  api::RunOutput out;
  std::string error;
  if (!api::run_verify(design, req, trace_path.empty() ? nullptr : &file_sink,
                       /*stream_properties=*/false, nullptr, &out, &error)) {
    std::fprintf(stderr, "rfn: %s\n", error.c_str());
    return 2;
  }
  if (!prof.finish(out.baseline, out.seconds, prof.cpu_seconds())) return 2;

  // --cert-dir: run_verify built and checked the witnesses (they are already
  // in the rfn-trace-v2 records); writing them to disk is CLI business.
  bool certified_ok = true, cert_io_ok = true;
  if (req.certify && !cert_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cert_dir, ec);
  }
  for (size_t i = 0; i < out.cert_records.size(); ++i) {
    const CertificateRecord& rec = out.cert_records[i];
    if (!rec.ok) certified_ok = false;
    const CertificateArtifact& art = out.cert_artifacts[i];
    if (art.built && !cert_dir.empty()) {
      const std::string path = cert_dir + "/" + cert_file_name(rec.property);
      std::ofstream cert_out(path);
      if (cert_out) {
        cert_out << cert::to_json(art.certificate);
      } else {
        std::fprintf(stderr, "rfn: cannot write %s\n", path.c_str());
        cert_io_ok = false;
      }
    }
  }

  // --witness-dir: conclusive verdicts additionally export AIGER-convention
  // witnesses, consumable by third-party checkers (aigsim-style stimulus for
  // VIOLATED, a claim line for HOLDS).
  const std::string wit_dir = opts.get("witness-dir", "");
  bool wit_io_ok = true;
  if (!wit_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(wit_dir, ec);
    for (size_t i = 0; i < out.results.size(); ++i) {
      const PropertyResult& r = out.results[i];
      const size_t idx = witness_index(design.aiger_properties, r.name, i);
      std::string body;
      if (r.verdict == Verdict::Holds) {
        body = aiger::write_witness_holds(idx);
      } else if (r.verdict == Verdict::Fails) {
        body = aiger::write_witness_fails(design.netlist, idx, r.trace);
      } else {
        continue;
      }
      const std::string path =
          wit_dir + "/" + sanitize_file_stem(r.name) + ".wit";
      if (!write_text_file(path, body)) wit_io_ok = false;
    }
  }

  std::printf("batch: %zu properties, %.2f s\n", out.results.size(),
              out.seconds);
  std::printf("%-24s %-12s %5s %8s\n", "property", "verdict", "iters",
              "seconds");
  bool all_conclusive = true;
  for (const PropertyResult& r : out.results) {
    std::printf("%-24s %-12s %5zu %8.2f\n", r.name.c_str(),
                r.verdict == Verdict::Holds         ? "HOLDS"
                : r.verdict == Verdict::Fails       ? "VIOLATED"
                : r.verdict == Verdict::ResourceOut ? "RESOURCE-OUT"
                                                    : "UNKNOWN",
                r.stats.iterations, r.stats.seconds);
    if (r.verdict != Verdict::Holds && r.verdict != Verdict::Fails)
      all_conclusive = false;
  }
  for (const CertificateRecord& rec : out.cert_records) {
    if (rec.ok) {
      std::printf("certificate %-24s OK (%s)\n", rec.property.c_str(),
                  rec.kind.c_str());
    } else {
      std::printf("certificate %-24s FAILED — obligation %s\n",
                  rec.property.c_str(), rec.obligation.c_str());
    }
  }
  if (opts.get_bool("metrics", false))
    std::printf("metrics: %s\n",
                MetricsRegistry::global().to_json(&out.baseline).dump(2).c_str());
  if (!cert_io_ok || !wit_io_ok) return 2;
  if (!certified_ok) return 3;
  return all_conclusive ? 0 : 1;
}

int cmd_verify_single(const api::LoadedDesign& design, const Options& opts,
                      const RfnOptions& defaults, const PropertyRequest& prop) {
  const Netlist& net = design.netlist;
  const GateId bad = prop.bad;
  const std::string& bad_name = prop.name;
  // A one-line --props file still honors its per-property overrides.
  const RfnOptions rfn_opts = prop.overrides.apply(defaults);

  ProfScope prof(opts);
  const RfnResult result = run_property(net, bad, rfn_opts);
  if (!prof.finish(result.metrics_baseline, result.seconds, prof.cpu_seconds()))
    return 2;

  const std::string trace_path = opts.get("trace-json", "");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "rfn: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    write_trace_json(out, result);
  }

  std::printf("verdict: %s\n",
              result.verdict == Verdict::Holds         ? "HOLDS"
              : result.verdict == Verdict::Fails       ? "VIOLATED"
              : result.verdict == Verdict::ResourceOut ? "RESOURCE-OUT"
                                                       : "UNKNOWN");
  if (result.budget_trip.tripped)
    std::printf("budget trip: %s at %.3f s (bdd nodes %lld, rss %.1f MiB)\n",
                result.budget_trip.reason.c_str(), result.budget_trip.at_seconds,
                static_cast<long long>(result.budget_trip.bdd_nodes),
                static_cast<double>(result.budget_trip.rss_bytes) /
                    (1 << 20));
  std::printf("iterations: %zu, abstract model: %zu / %zu registers, %.2f s\n",
              result.iterations, result.final_abstract_regs, net.num_regs(),
              result.seconds);
  if (!result.note.empty()) std::printf("note: %s\n", result.note.c_str());
  // Engine effort and race outcomes come from the metrics registry.
  const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();
  std::printf("engines:\n");
  std::fputs(format_engine_stats(metrics).c_str(), stdout);
  std::printf("portfolio:\n");
  std::fputs(format_portfolio_stats(metrics).c_str(), stdout);
  if (opts.get_bool("metrics", false))
    std::printf("metrics: %s\n",
                MetricsRegistry::global().to_json().dump(2).c_str());
  if (result.verdict == Verdict::Fails) {
    std::printf("error trace: %zu cycles\n", result.error_trace.cycles());
    if (opts.get_bool("dump-trace", false))
      std::fputs(trace_to_string(net, result.error_trace).c_str(), stdout);
  }
  const std::string aiger_wit = opts.get("aiger-witness", "");
  if (!aiger_wit.empty() &&
      (result.verdict == Verdict::Holds || result.verdict == Verdict::Fails)) {
    const size_t idx = witness_index(design.aiger_properties, bad_name, 0);
    const std::string body =
        result.verdict == Verdict::Holds
            ? aiger::write_witness_holds(idx)
            : aiger::write_witness_fails(net, idx, result.error_trace);
    if (!write_text_file(aiger_wit, body)) return 2;
  }
  const std::string cert_out = opts.get("cert-out", "");
  if (opts.get_bool("certify", false) || !cert_out.empty()) {
    const CertificateArtifact art = certify_with_witness(
        net, bad, bad_name, result.verdict, result.error_trace,
        result.final_registers, {},
        result.pdr_invariant.present ? &result.pdr_invariant : nullptr);
    std::string what = art.detail;
    if (!art.checked && art.built)
      what = "obligation " + art.obligation + ": " + what;
    if (art.checked)
      what += std::string(" [") + cert::cert_kind_name(art.certificate.kind) + "]";
    std::printf("certificate: %s — %s\n", art.checked ? "OK" : "FAILED",
                what.c_str());
    if (art.built && !cert_out.empty()) {
      std::ofstream out(cert_out);
      if (!out) {
        std::fprintf(stderr, "rfn: cannot write %s\n", cert_out.c_str());
        return 2;
      }
      out << cert::to_json(art.certificate);
      std::printf("certificate written: %s\n", cert_out.c_str());
    }
    if (!art.checked && result.verdict != Verdict::Unknown &&
        result.verdict != Verdict::ResourceOut)
      return 3;
  }
  return result.verdict == Verdict::Holds || result.verdict == Verdict::Fails
             ? 0
             : 1;
}

/// Count flags (--traces, --pdr-max-frames, --session-workers) go through
/// api::parse_count, the --props parser: negative or non-numeric text is a
/// usage error naming the flag, never a wrap to 2^64-1. `*out` keeps its
/// default when the flag is absent.
bool get_count(const Options& opts, const char* flag, size_t* out) {
  if (!opts.has(flag)) return true;
  const std::string text = opts.get(flag, "");
  try {
    *out = api::parse_count(text);
    return true;
  } catch (const std::exception&) {
    std::fprintf(stderr, "rfn: invalid value '%s' for --%s\n", text.c_str(),
                 flag);
    return false;
  }
}

int cmd_verify(const api::LoadedDesign& design, const Options& opts) {
  // Flags → api::VerifyRequest: the same struct a server request parses to.
  api::VerifyRequest req;
  if (opts.has("workers")) {
    std::fprintf(stderr,
                 "rfn: --workers is gone: engine races run in priority order "
                 "on the run's thread (--session-workers runs properties "
                 "concurrently)\n");
    return 2;
  }
  req.options.time_limit_s = opts.get_double("time-limit", 300.0);
  if (!get_count(opts, "traces", &req.options.traces_per_iteration) ||
      !get_count(opts, "pdr-max-frames", &req.options.race_pdr_max_frames) ||
      !get_count(opts, "session-workers", &req.session_workers))
    return 2;
  req.options.approx_fallback = !opts.get_bool("no-approx", false);
  req.options.budget_ms = opts.get_double("budget-ms", -1.0);
  req.options.budget_bdd_nodes = opts.get_int("budget-bdd-nodes", 0);
  req.options.budget_mem_mb = opts.get_int("budget-mem-mb", 0);
  // --prof-json wants the RSS timeline: the watchdog monitor thread samples
  // /proc/self/statm each poll even when no budget is set.
  req.options.sample_rss = !opts.get("prof-json", "").empty();
  req.options.proof_shrink = opts.get_bool("proof-shrink", false);
  req.options.race_pdr_time_s =
      opts.get_double("pdr-time", req.options.race_pdr_time_s);
  for (const std::string& list : opts.get_all("engine")) {
    std::stringstream es(list);
    std::string e;
    while (std::getline(es, e, ','))
      if (!e.empty()) req.options.engines.push_back(e);
  }
  req.batch_budget_ms = opts.get_double("batch-budget-ms", -1.0);
  req.reuse = !opts.get_bool("no-reuse", false);
  req.batch = opts.get_bool("batch", false);

  // Collect the property set: every --bad plus every --props line. More
  // than one property routes through a VerifySession. Signals resolve
  // inside api::run_verify (api::resolve_properties) with the spec's origin
  // prefixed to any unknown-signal diagnostic.
  for (const std::string& bad_name : opts.get_all("bad")) {
    api::PropertySpec spec;
    spec.signal = bad_name;
    // Keep the name the user asked for: two --bad outputs can resolve to
    // same-named gates (the iu coverage aliases), and --cert-dir derives
    // witness file names from the property name.
    spec.name = bad_name;
    req.props.push_back(std::move(spec));
  }
  const std::string props_path = opts.get("props", "");
  if (!props_path.empty()) {
    std::ifstream in(props_path);
    if (!in) {
      std::fprintf(stderr, "rfn: cannot open %s\n", props_path.c_str());
      return 2;
    }
    std::string line;
    for (size_t lineno = 1; std::getline(in, line); ++lineno) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      api::PropertySpec spec;
      std::string perr;
      if (!api::parse_property_spec(line, &spec, &perr)) {
        std::fprintf(stderr, "rfn: props line %zu: %s\n", lineno, perr.c_str());
        return 2;
      }
      spec.origin = "props line " + std::to_string(lineno);
      req.props.push_back(std::move(spec));
    }
  }
  // Invalid options, per-property overrides included, fail before any
  // engine runs.
  const std::vector<std::string> invalid = req.validate();
  for (const std::string& e : invalid)
    std::fprintf(stderr, "rfn: invalid options: %s\n", e.c_str());
  if (!invalid.empty()) return 2;
  // An AIGER design with no explicit selection verifies its whole property
  // list (each bad output, or each output pre-1.9 style) as one batch.
  const size_t effective =
      req.props.empty() ? design.aiger_properties.size() : req.props.size();
  if (effective > 1 || req.batch)
    return cmd_verify_batch(design, opts, std::move(req));

  // Single-run path (rfn-trace-v1): exactly what `rfn verify` without a
  // batch always did. An unnamed one-line --props file keeps the
  // conventional "bad" label while verifying the signal the line named, and
  // an AIGER property's label ("b0") is not a netlist signal name at all.
  std::vector<PropertyRequest> props;
  std::string error;
  if (!api::resolve_properties(design.netlist, design.aiger_properties,
                               req.props, &props, &error)) {
    std::fprintf(stderr, "rfn: %s\n", error.c_str());
    return 2;
  }
  if (props.front().name.empty()) props.front().name = "bad";
  return cmd_verify_single(design, opts, req.options, props.front());
}

int cmd_coverage(const Netlist& design, const Options& opts) {
  const std::string list = opts.get("signals", "");
  if (list.empty()) {
    std::fprintf(stderr, "rfn: coverage needs --signals a,b,c\n");
    return 2;
  }
  std::vector<GateId> cov;
  std::stringstream ss(list);
  std::string name;
  while (std::getline(ss, name, ',')) {
    const GateId g = api::find_signal(design, name);
    if (g == kNullGate || !design.is_reg(g)) {
      std::fprintf(stderr, "rfn: coverage signal '%s' is not a register\n",
                   name.c_str());
      return 2;
    }
    cov.push_back(g);
  }

  CoverageOptions cov_opts;
  cov_opts.time_limit_s = opts.get_double("time-limit", 300.0);
  const CoverageResult r = rfn_coverage_analysis(design, cov, cov_opts);
  std::printf("coverage states: %zu total\n", r.total_states);
  std::printf("  unreachable: %zu (proved on the abstraction)\n", r.unreachable);
  std::printf("  reachable:   %zu (witnessed by concrete traces)\n", r.reachable);
  std::printf("  unknown:     %zu\n", r.unknown);
  std::printf("abstract model grew to %zu registers over %zu iterations (%.1f s)\n",
              r.final_abstract_regs, r.iterations, r.seconds);
  if (opts.get_bool("list-unreachable", false)) {
    for (size_t s = 0; s < r.state_class.size(); ++s) {
      if (r.state_class[s] != 1) continue;
      std::string bits;
      for (size_t i = 0; i < cov.size(); ++i) bits += ((s >> i) & 1) ? '1' : '0';
      std::printf("  unreachable: %s\n", bits.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.positionals().size() < 2) return usage();
  const std::string& command = opts.positionals()[0];
  const std::string& path = opts.positionals()[1];

  api::DesignRef ref;
  ref.path = path;
  ref.top = opts.get("top", "");
  if (opts.get_bool("aiger", false)) ref.format = "aiger";
  api::LoadedDesign design;
  std::string error;
  if (!api::load_design(ref, &design, &error)) {
    std::fprintf(stderr, "rfn: %s\n", error.c_str());
    return 2;
  }
  std::printf("loaded %s: %s\n", path.c_str(),
              stats_line(design.netlist).c_str());
  if (!design.aiger_properties.empty())
    std::printf("aiger: %zu propert%s (%zu bad, %zu outputs, %zu constraints%s)\n",
                design.aiger_properties.size(),
                design.aiger_properties.size() == 1 ? "y" : "ies",
                design.aiger_bad, design.aiger_outputs,
                design.aiger_constraints,
                design.aiger_constraints_folded ? ", folded" : "");

  if (command == "verify") return cmd_verify(design, opts);
  if (command == "coverage") return cmd_coverage(design.netlist, opts);
  if (command == "translate") {
    const std::string format = opts.get("format", "blif");
    std::string body;
    if (format == "blif") {
      body = write_blif(design.netlist, "rfn_translated");
    } else if (format == "aag" || format == "aig") {
      body = aiger::write_aiger(design.netlist, format == "aig");
    } else {
      std::fprintf(stderr, "rfn: unknown translate format '%s'\n",
                   format.c_str());
      return 2;
    }
    const std::string out_path = opts.get("out", "");
    if (out_path.empty()) {
      std::fwrite(body.data(), 1, body.size(), stdout);  // .aig is raw bytes
    } else if (!write_text_file(out_path, body)) {
      return 2;
    }
    return 0;
  }
  if (command == "stats") {
    for (const auto& [name, g] : design.netlist.outputs()) {
      const auto regs = coi_registers(design.netlist, {g});
      std::printf("output %-24s COI: %zu registers\n", name.c_str(), regs.size());
    }
    return 0;
  }
  return usage();
}
