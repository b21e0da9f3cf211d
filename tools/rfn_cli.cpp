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
// obligation: with no --bad/--props the whole set runs in one session, so
// fair-share budgets, the ReuseCache, and all engines apply unchanged.
// Common options:
//   --time-limit S     wall-clock budget per property (default 300;
//                      negative = unlimited)
//   --engine LIST      engines entering the races, comma-separated subset of
//                      bdd,atpg,sat,pdr (repeatable; default: all four).
//                      Unknown names, and lists without a Step-2 engine
//                      (bdd, sat or pdr), are rejected up front. Only bdd
//                      and pdr can prove HOLDS; a list without either can
//                      only falsify.
//   --pdr-max-frames N IC3/PDR frame bound per race (default 128)
//   --pdr-time S       IC3/PDR wall budget per race (default 10, 0=unlimited)
//   --certify          build an rfn-cert-v1 witness for every HOLDS/VIOLATED
//                      verdict (an inductive invariant for HOLDS, the error
//                      trace for VIOLATED; see src/cert/format.hpp),
//                      discharge it through the independent SAT checker —
//                      the same check tools/rfn_check.cpp runs out of
//                      process — and add one "certificate" record per
//                      property to the --trace-json artifact
//   --cert-dir DIR     write each property's witness to
//                      DIR/<property>.cert.json (implies --certify)
//   --traces N         abstract traces per iteration (default 1)
//   --dump-trace       print the error trace of every VIOLATED property
//   --top NAME         top module for multi-module Verilog
//   --trace-json FILE  write the run's rfn-trace-v2 event trace as JSON
//                      Lines: one "property" record per property, with its
//                      CEGAR iterations under "per_iteration", then the
//                      certificate records and a "batch-summary" (see
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
// Every run is a VerifySession over the property set: repeat --bad, or
// point --props at a file with one property per line:
//   SIGNAL [name=LABEL] [time-limit=S] [max-iterations=N] [traces=N]
//          [budget-ms=N] [budget-bdd-nodes=N] [budget-mem-mb=N]
//                                                    (# starts a comment)
// Every property runs solo, on an abstraction grown from its own fanin;
// per-line overrides apply to that property's run only. Numeric flags and
// overrides parse strictly: negative counts, non-numeric or trailing text
// and non-finite reals exit 2 naming the flag. Session options:
//   --session-workers N   property jobs run concurrently (default 0: inline)
//   --batch-budget-ms N   whole-batch wall budget, split fair-share
//   --no-reuse            disable the cross-property reuse cache
//
// AIGER-specific options:
//   --aiger               treat <design> as AIGER regardless of extension
//   --witness-dir DIR     drop an AIGER-convention witness per conclusive
//                         property into DIR/<property>.wit
//                         ("1\nb<k>\n<state>\n<inputs per cycle>...\n." for
//                         VIOLATED, "0\nb<k>\n." for HOLDS)
//
// Each command takes only its own flags (and --top/--aiger): any other
// flag exits 2 naming it, so a misspelled flag never silently runs with its
// default. Retired flags (--batch, --cert-out, --aiger-witness, --workers,
// --proof-shrink, --no-approx) exit 2 naming their replacement. Proof-based
// shrink runs whenever SAT BMC refutes an abstract trace with a
// bounded-UNSAT core, and the overlapping-partition fallback whenever the
// Step-2 race ends inconclusive.
//
// This binary is a thin flag → api::VerifyRequest translator: design
// loading is api::load_design and every verify is one api::run_verify call
// (the run path rfn_serve drives from the socket — a command line and an
// rfn-req-v1 document are the same computation). What remains here is flag
// parsing, the stdout report, and the file epilogues (span/prof artifacts,
// cert/witness exports).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

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

/// Span/prof instrumentation around a run: the flags are epilogue artifacts
/// written after the run's threads have joined.
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

  /// Writes the span/prof artifacts; call once after the run's threads have
  /// joined (the span buffers are quiescent then). The rfn-prof-v1 document
  /// is assembled against the run's metrics baseline, after one final
  /// direct RSS sample so the timeline is never empty for runs shorter than
  /// a watchdog poll. False on I/O errors.
  bool finish(const MetricsSnapshot& baseline, double wall_s) {
    const double cpu_s =
        static_cast<double>(prof::process_cpu_ns() - pcpu0) * 1e-9;
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
          !write_text_file(prof_folded_path,
                           prof::folded_stacks(
                               SpanTracer::global().to_chrome_json())))
        return false;
    }
    if (prof_json_path.empty()) return true;
    prof::RssLog::global().sample();
    prof::RssLog::global().disable();
    const json::Value doc = prof::build_prof_json(
        baseline, MetricsRegistry::global().snapshot(), wall_s, cpu_s);
    return write_text_file(prof_json_path, doc.dump(2) + "\n");
  }
};

const char* verdict_label(Verdict v) {
  return v == Verdict::Holds         ? "HOLDS"
         : v == Verdict::Fails       ? "VIOLATED"
         : v == Verdict::ResourceOut ? "RESOURCE-OUT"
                                     : "UNKNOWN";
}

/// Flags that no longer exist. Each is a usage error naming what replaced
/// it, so a script never silently loses the artifact it asked for.
constexpr std::pair<const char*, const char*> kRetiredFlags[] = {
    {"workers",
     "engine races run in priority order on the run's thread "
     "(--session-workers runs properties concurrently)"},
    {"batch", "every run is a session; no flag is needed"},
    {"cert-out", "use --cert-dir DIR (writes DIR/<property>.cert.json)"},
    {"aiger-witness", "use --witness-dir DIR (writes DIR/<property>.wit)"},
    {"proof-shrink",
     "shrink is always on (whenever SAT BMC refutes an abstract trace)"},
    {"no-approx",
     "the fallback is always on (whenever the Step-2 race is inconclusive)"},
};

/// The flags of each command; every command also takes --top and --aiger,
/// which shape loading.
const std::map<std::string, std::set<std::string>> kCommandFlags = {
    {"verify",
     {"bad", "props", "time-limit", "engine", "pdr-max-frames", "pdr-time",
      "certify", "cert-dir", "traces", "dump-trace", "trace-json",
      "trace-spans", "budget-ms", "budget-bdd-nodes", "budget-mem-mb",
      "prof-json", "prof-folded", "metrics", "session-workers",
      "batch-budget-ms", "no-reuse", "witness-dir"}},
    {"coverage", {"signals", "time-limit", "list-unreachable"}},
    {"translate", {"format", "out"}},
    {"stats", {}},
};

/// False (after naming it on stderr) when a flag is not one of `flags`: a
/// retired flag names its replacement, any other is unknown.
bool known_flags_only(const Options& opts, const std::string& command,
                      const std::set<std::string>& flags) {
  for (const std::string& key : opts.keys()) {
    if (key == "top" || key == "aiger" || flags.count(key) > 0) continue;
    for (const auto& [flag, replacement] : kRetiredFlags)
      if (key == flag) {
        std::fprintf(stderr, "rfn: --%s is gone: %s\n", flag, replacement);
        return false;
      }
    std::fprintf(stderr, "rfn: unknown flag --%s for %s\n", key.c_str(),
                 command.c_str());
    return false;
  }
  return true;
}

/// Numeric flags parse strictly, through the --props parsers: negative,
/// non-numeric or trailing text is a usage error naming the flag, never a
/// silent 0 or a wrap to 2^64-1. `*out` keeps its default when the flag is
/// absent.
template <typename T, typename Parse>
bool get_number(const Options& opts, const char* flag, Parse parse, T* out) {
  if (!opts.has(flag)) return true;
  const std::string text = opts.get(flag, "");
  if (api::parse_flag(text, parse, out)) return true;
  std::fprintf(stderr, "rfn: invalid value '%s' for --%s\n", text.c_str(),
               flag);
  return false;
}

bool parse_verify_flags(const Options& opts, api::VerifyRequest* req) {
  RfnOptions& o = req->options;
  return get_number(opts, "traces", api::parse_count, &o.traces_per_iteration) &&
         get_number(opts, "pdr-max-frames", api::parse_count,
                    &o.race_pdr_max_frames) &&
         get_number(opts, "session-workers", api::parse_count,
                    &req->session_workers) &&
         get_number(opts, "time-limit", api::parse_real, &o.time_limit_s) &&
         get_number(opts, "budget-ms", api::parse_real, &o.budget_ms) &&
         get_number(opts, "pdr-time", api::parse_real, &o.race_pdr_time_s) &&
         get_number(opts, "batch-budget-ms", api::parse_real,
                    &req->batch_budget_ms) &&
         get_number(opts, "budget-bdd-nodes", api::parse_int64,
                    &o.budget_bdd_nodes) &&
         get_number(opts, "budget-mem-mb", api::parse_int64, &o.budget_mem_mb);
}

/// --cert-dir and --witness-dir: run_verify built and checked the
/// certificates (they are already in the rfn-trace-v2 records); writing
/// them, and the AIGER-convention witnesses third-party checkers consume
/// (aigsim-style stimulus for VIOLATED, a claim line for HOLDS), is CLI
/// business. False on I/O errors.
bool write_artifacts(const api::LoadedDesign& design, const Options& opts,
                     const api::RunOutput& out) {
  bool ok = true;
  const std::string cert_dir = opts.get("cert-dir", "");
  if (!cert_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cert_dir, ec);
    for (size_t i = 0; i < out.cert_records.size(); ++i)
      if (out.cert_artifacts[i].built)
        ok &= write_text_file(
            cert_dir + "/" + sanitize_file_stem(out.cert_records[i].property) +
                ".cert.json",
            cert::to_json(out.cert_artifacts[i].certificate));
  }
  const std::string wit_dir = opts.get("witness-dir", "");
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
      ok &= write_text_file(wit_dir + "/" + sanitize_file_stem(r.name) + ".wit",
                            body);
    }
  }
  return ok;
}

/// The stdout report: the header with the per-property time limit, the
/// property table (each property's note and budget trip under its row), one
/// line per certificate, the engine and portfolio tables over the whole run,
/// and the error traces under --dump-trace.
void print_report(const api::LoadedDesign& design, const Options& opts,
                  const api::VerifyRequest& req, const api::RunOutput& out) {
  std::printf("batch: %zu propert%s, %.2f s", out.results.size(),
              out.results.size() == 1 ? "y" : "ies", out.seconds);
  if (req.options.time_limit_s < 0.0)
    std::printf(", no time limit\n");
  else
    std::printf(", time limit %g s per property\n", req.options.time_limit_s);
  std::printf("%-24s %-12s %5s %5s %8s\n", "property", "verdict", "iters",
              "regs", "seconds");
  for (const PropertyResult& r : out.results) {
    std::printf("%-24s %-12s %5zu %5zu %8.2f\n", r.name.c_str(),
                verdict_label(r.verdict), r.stats.iterations,
                r.stats.final_abstract_regs, r.stats.seconds);
    if (!r.stats.note.empty()) std::printf("  note: %s\n", r.stats.note.c_str());
    const BudgetTrip& trip = r.stats.budget_trip;
    if (trip.tripped)
      std::printf("  budget trip: %s at %.3f s (bdd nodes %lld, rss %.1f MiB)\n",
                  trip.reason.c_str(), trip.at_seconds,
                  static_cast<long long>(trip.bdd_nodes),
                  static_cast<double>(trip.rss_bytes) / (1 << 20));
  }
  for (size_t i = 0; i < out.cert_records.size(); ++i) {
    const CertificateRecord& rec = out.cert_records[i];
    const std::string& detail = out.cert_artifacts[i].detail;
    if (rec.ok) {
      std::printf("certificate: OK — %s [%s] %s\n", rec.property.c_str(),
                  rec.kind.c_str(), detail.c_str());
    } else {
      std::printf("certificate: FAILED — %s obligation %s: %s\n",
                  rec.property.c_str(), rec.obligation.c_str(), detail.c_str());
    }
  }
  const MetricsSnapshot run =
      MetricsRegistry::global().snapshot().delta(out.baseline);
  std::printf("engines:\n");
  std::fputs(format_engine_stats(run).c_str(), stdout);
  std::printf("portfolio:\n");
  std::fputs(format_portfolio_stats(run).c_str(), stdout);
  if (opts.get_bool("metrics", false))
    std::printf("metrics: %s\n",
                MetricsRegistry::global().to_json(&out.baseline).dump(2).c_str());
  if (opts.get_bool("dump-trace", false))
    for (const PropertyResult& r : out.results)
      if (r.verdict == Verdict::Fails) {
        std::printf("error trace %s: %zu cycles\n", r.name.c_str(),
                    r.trace.cycles());
        std::fputs(trace_to_string(design.netlist, r.trace).c_str(), stdout);
      }
}

int cmd_verify(const api::LoadedDesign& design, const Options& opts) {
  // Flags → api::VerifyRequest: the same struct a server request parses to.
  api::VerifyRequest req;
  req.options.time_limit_s = 300.0;
  if (!parse_verify_flags(opts, &req)) return 2;
  // --prof-json wants the RSS timeline: the watchdog monitor thread samples
  // /proc/self/statm each poll even when no budget is set.
  req.options.sample_rss = !opts.get("prof-json", "").empty();
  for (const std::string& list : opts.get_all("engine")) {
    std::stringstream es(list);
    std::string e;
    while (std::getline(es, e, ','))
      if (!e.empty()) req.options.engines.push_back(e);
  }
  req.reuse = !opts.get_bool("no-reuse", false);
  req.certify = opts.get_bool("certify", false) || opts.has("cert-dir");

  // Collect the property set: every --bad plus every --props line. Signals
  // resolve inside api::run_verify, with the spec's origin prefixed to any
  // unknown-signal diagnostic.
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
  // engine runs and before --trace-json creates its file.
  const std::vector<std::string> invalid = req.validate();
  for (const std::string& e : invalid)
    std::fprintf(stderr, "rfn: invalid options: %s\n", e.c_str());
  if (!invalid.empty()) return 2;

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
    // A usage error (an unknown signal) ran nothing: leave no empty trace.
    if (!trace_path.empty()) {
      trace_out.close();
      std::remove(trace_path.c_str());
    }
    return 2;
  }
  if (!prof.finish(out.baseline, out.seconds)) return 2;
  const bool io_ok = write_artifacts(design, opts, out);
  print_report(design, opts, req, out);
  if (!io_ok) return 2;
  for (const CertificateRecord& rec : out.cert_records)
    if (!rec.ok) return 3;
  for (const PropertyResult& r : out.results)
    if (r.verdict != Verdict::Holds && r.verdict != Verdict::Fails) return 1;
  return 0;
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
  cov_opts.time_limit_s = 300.0;
  if (!get_number(opts, "time-limit", api::parse_real, &cov_opts.time_limit_s))
    return 2;
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
  const auto flags = kCommandFlags.find(command);
  if (flags == kCommandFlags.end()) return usage();
  if (!known_flags_only(opts, command, flags->second)) return 2;

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
