// e2ebench — one pass of one benchmark workload on RFN's production path.
//
//   e2ebench --workload NAME [--trace 0|1] [--smoke 0|1] [--setup-only 0|1]
//
// --smoke 1 swaps in the generators' default (small) parameters and serves
// only fifo and processor: the same request shapes in seconds, for tests.
// --setup-only 1 times the workload's set-ups and stops before the timed
// section, so the caller can pool set-up times from several processes.
//
// Workloads (see README.md for why each one exists):
//   aiger_mutex    paper-scale processor → AIGER bytes → api::load_design →
//                  api::run_verify(bad_mutex, certified)
//   serve_repeat   an in-process serve::Server on a Unix socket, one client
//                  connection; per builtin one batch request of every
//                  exported output (cold), then the same request again (warm)
//   coverage_iu    rfn_coverage_analysis on paper-scale IU sets IU1 and IU5
//
// The program is driven only through its public calls with the options a
// user gets by default; the one exception is a per-request wall budget, so
// a hang becomes a counted resource-out instead of a stuck run. The binary
// measures and reports; tools outside it (run.py) judge the verdicts.
//
// Output: one JSON object on stdout with the raw measurements — setup times,
// the timed interval's wall/CPU seconds, peak RSS, per-request latencies and
// verdicts, layer counters flattened to "name" / "name.max" / "name.seconds"
// keys, and (with --trace 1) the span tracer's self-time stacks.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aiger/aiger.hpp"
#include "api/api.hpp"
#include "api/load.hpp"
#include "core/coverage.hpp"
#include "designs/builtin.hpp"
#include "designs/iu.hpp"
#include "designs/processor.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

using namespace rfn;

namespace {

// Per-request wall budget: about three times the slowest single request
// measured on a 4-core x86 box, so only a hang (or a severalfold slowdown)
// trips it and it is then counted as a resource-out.
constexpr double kRequestBudgetMs = 60000.0;
constexpr double kCoverageBudgetS = 60.0;
// Span ring per thread. A traced pass that overwrote events is rejected by
// the caller, so this is sized above the busiest thread of any workload
// (about 31k events, serve_repeat's worker, on a 4-core x86 box).
constexpr size_t kSpanRing = size_t{1} << 17;
// Set-ups timed per process; the caller reports the median of the set-up
// times it pools from several processes as setup_s.
constexpr size_t kSetups = 15;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "e2ebench: %s\n", msg.c_str());
  std::exit(2);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- layer counters -------------------------------------------------------

using Flat = std::map<std::string, double>;

bool is_peak(const std::string& name) {
  return name.size() > 4 && (name.compare(name.size() - 4, 4, ".max") == 0 ||
                             name.find(".max_seconds") != std::string::npos);
}

// Folds one request's flat metrics into the pass total: peaks by max,
// everything else (counters, timer counts and seconds) by sum.
void accumulate(Flat* total, const Flat& one) {
  for (const auto& [name, v] : one) {
    double& slot = (*total)[name];
    slot = is_peak(name) ? std::max(slot, v) : slot + v;
  }
}

// Counters and timers relative to `base`; gauge peaks read raw (a peak is
// not a difference, and each pass is a fresh process).
Flat registry_delta(const MetricsSnapshot& base) {
  const MetricsSnapshot now = MetricsRegistry::global().snapshot();
  const MetricsSnapshot d = now.delta(base);
  Flat out;
  for (const auto& [name, v] : d.values)
    out[name] = is_peak(name) ? now.value(name) : v;
  return out;
}

// The batch-summary "metrics" block (MetricsRegistry::to_json layout),
// flattened to MetricsSnapshot names.
Flat flatten_summary_metrics(const json::Value& m) {
  Flat out;
  if (const json::Value* c = m.find("counters"))
    for (const auto& [name, v] : c->members()) out[name] = v.as_double();
  if (const json::Value* g = m.find("gauges"))
    for (const auto& [name, v] : g->members())
      if (const json::Value* mx = v.find("max")) out[name + ".max"] = mx->as_double();
  if (const json::Value* t = m.find("timers"))
    for (const auto& [name, v] : t->members()) {
      if (const json::Value* x = v.find("count")) out[name + ".count"] = x->as_double();
      if (const json::Value* x = v.find("seconds")) out[name + ".seconds"] = x->as_double();
      if (const json::Value* x = v.find("max_seconds"))
        out[name + ".max_seconds"] = x->as_double();
    }
  return out;
}

json::Value to_json(const Flat& f) {
  json::Value o = json::Value::object();
  for (const auto& [name, v] : f) o.set(name, v);
  return o;
}

// --- requests -------------------------------------------------------------

api::VerifyRequest default_request(const std::string& id,
                                   const std::vector<std::string>& signals) {
  api::VerifyRequest req;
  req.id = id;
  for (const std::string& s : signals) {
    api::PropertySpec spec;
    spec.signal = s;
    req.props.push_back(std::move(spec));
  }
  req.options.budget_ms = kRequestBudgetMs;
  req.certify = true;
  return req;
}

// One answered request as the benchmark records it.
struct Answer {
  std::string id;
  /// Which design answered: "processor@paper" or "builtin:NAME".
  std::string design;
  std::string phase;  // "single" | "cold" | "warm"
  double latency_s = 0.0;
  api::VerifyResponse resp;
  // Position of each answered property in the design's output order (the
  // order expected verdicts are listed in), parallel to resp.results.
  std::vector<size_t> output_index;
};

json::Value answer_json(const Answer& a) {
  json::Value o = json::Value::object();
  o.set("id", a.id);
  o.set("design", a.design);
  o.set("phase", a.phase);
  o.set("latency_s", a.latency_s);
  o.set("response_s", a.resp.seconds);
  o.set("ok", a.resp.ok);
  o.set("error", a.resp.error);
  o.set("cert_ok", a.resp.cert_ok);
  o.set("cert_failed", a.resp.cert_failed);
  o.set("warm_hit", a.resp.warm.hit);
  o.set("warm_bytes", a.resp.warm.bytes);
  json::Value props = json::Value::array();
  for (size_t i = 0; i < a.resp.results.size(); ++i) {
    const api::PropertyVerdict& v = a.resp.results[i];
    json::Value p = json::Value::object();
    p.set("name", v.name);
    p.set("index", a.output_index.at(i));
    p.set("verdict", v.verdict);
    p.set("iterations", v.iterations);
    p.set("seconds", v.seconds);
    props.push(std::move(p));
  }
  o.set("properties", std::move(props));
  return o;
}

// The timed section's result, shared by every workload.
struct Pass {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double load_s = 0.0;
  std::vector<Answer> answers;
  json::Value coverage = json::Value::array();
  Flat metrics;
};

struct Mode {
  bool smoke = false;
  bool setup_only = false;
};

// Times `setup` kSetups times and keeps the last result. The previous result
// is freed before each timed call, so every sample is construction alone.
template <typename Fn>
auto repeat_setup(std::vector<double>* times, Fn setup) {
  decltype(setup()) last{};
  for (size_t i = 0; i < kSetups; ++i) {
    last = {};
    const Stopwatch w;
    last = setup();
    times->push_back(w.seconds());
  }
  return last;
}

// The Table 1 processor: paper scale, or the generator's default (small)
// parameters for smoke runs.
designs::ProcessorDesign processor(bool smoke) {
  designs::ProcessorDesign d = designs::make_processor(
      smoke ? designs::ProcessorParams{} : designs::paper_scale_processor());
  d.netlist.add_output("bad_mutex", d.bad_mutex);
  d.netlist.add_output("error_flag", d.error_flag);
  return d;
}

const char* processor_label(bool smoke) {
  return smoke ? "processor@small" : "processor@paper";
}

// Runs one certified single-property request on a loaded design through
// api::run_verify, the path the CLI takes.
void run_single_request(const api::LoadedDesign& design, const char* label,
                        const std::string& signal, Pass* pass) {
  const auto& outs = design.netlist.outputs();
  Answer a;
  a.id = signal;
  a.design = label;
  a.phase = "single";
  const auto it = std::find_if(outs.begin(), outs.end(),
                               [&](const auto& o) { return o.first == signal; });
  a.output_index.push_back(static_cast<size_t>(it - outs.begin()));
  api::RunOutput out;
  std::string err;
  const Stopwatch w;
  if (!api::run_verify(design, default_request(a.id, {signal}), nullptr, false,
                       nullptr, &out, &err))
    die("run_verify: " + err);
  a.latency_s = w.seconds();
  accumulate(&pass->metrics, registry_delta(out.baseline));
  a.resp = std::move(out.response);
  pass->answers.push_back(std::move(a));
}

void aiger_workload(const Mode& mode, Pass* pass) {
  const bool smoke = mode.smoke;
  const std::string bytes = repeat_setup(&pass->setup_s, [smoke] {
    return aiger::write_aiger(processor(smoke).netlist, /*binary=*/true);
  });
  if (mode.setup_only) return;
  const int64_t cpu0 = prof::process_cpu_ns();
  const Stopwatch wall;
  api::DesignRef ref;
  ref.text = bytes;
  ref.format = "aiger";
  api::LoadedDesign design;
  std::string err;
  if (!api::load_design(ref, &design, &err))
    die("load_design: " + err);
  pass->load_s = wall.seconds();
  run_single_request(design, processor_label(smoke), "bad_mutex", pass);
  pass->wall_s = wall.seconds();
  pass->cpu_s = static_cast<double>(prof::process_cpu_ns() - cpu0) * 1e-9;
}

// --- serve_repeat ---------------------------------------------------------

// Blocking newline-delimited JSON client over a Unix socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) die(std::string("socket: ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) die("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      die(std::string("connect: ") + std::strerror(errno));
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { ::close(fd_); }

  void send_line(const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) die(std::string("send: ") + std::strerror(errno));
      off += static_cast<size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) die("server closed the connection mid-request");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct BatchRequest {
  std::string builtin;
  std::vector<std::string> signals;  // request order
  std::vector<size_t> output_index;  // design output position of each signal
};

// Every exported output of each builtin, in design output order. Session
// clustering is greedy in request order and batch wall time follows it, so
// the order is fixed (see README.md).
std::vector<BatchRequest> serve_batches(bool smoke) {
  std::vector<BatchRequest> out;
  const std::vector<std::string> smoke_names = {"fifo", "processor"};
  for (const std::string& name : smoke ? smoke_names : designs::builtin_names()) {
    bool ok = false;
    const Netlist n = designs::make_builtin(name, &ok);
    if (!ok) die("unknown builtin " + name);
    BatchRequest b;
    b.builtin = name;
    for (size_t i = 0; i < n.outputs().size(); ++i) {
      b.signals.push_back(n.outputs()[i].first);
      b.output_index.push_back(i);
    }
    out.push_back(std::move(b));
  }
  return out;
}

std::string socket_path() {
  return ".bench_build/e2ebench-" + std::to_string(::getpid()) + ".sock";
}

std::unique_ptr<serve::Server> start_server(const std::string& path) {
  serve::ServerOptions opt;
  opt.unix_socket = path;
  opt.workers = 1;
  auto server = std::make_unique<serve::Server>(opt);
  std::string err;
  if (!server->start(&err)) die("server start: " + err);
  return server;
}

Answer serve_request(Client& client, const BatchRequest& b, const char* phase,
                     Flat* metrics) {
  Answer a;
  a.id = b.builtin + "-" + phase;
  a.design = "builtin:" + b.builtin;
  a.phase = phase;
  api::VerifyRequest req = default_request(a.id, b.signals);
  req.design.path = "builtin:" + b.builtin;
  const Stopwatch w;
  client.send_line(req.to_json().dump());
  for (;;) {
    std::string perr;
    const json::Value doc = json::parse(client.read_line(), &perr);
    if (!perr.empty()) die("unparsable server line: " + perr);
    const json::Value* type = doc.find("type");
    const std::string t = type != nullptr ? type->as_string() : "";
    // The server binds one registry per request, so each batch summary's
    // metrics block is exactly this request's work.
    if (t == "batch-summary") {
      if (const json::Value* m = doc.find("metrics"))
        accumulate(metrics, flatten_summary_metrics(*m));
    } else if (t == "response") {
      a.latency_s = w.seconds();
      std::string rerr;
      if (!api::VerifyResponse::from_json(doc, &a.resp, &rerr))
        die("bad response: " + rerr);
      break;
    }
  }
  if (!a.resp.ok) die("request " + a.id + " failed: " + a.resp.error);
  // Results come back in request order (labelled with the signal's gate
  // name, not the output name); map them to design output order.
  if (a.resp.results.size() != b.signals.size())
    die("request " + a.id + " answered " + std::to_string(a.resp.results.size()) +
        " of " + std::to_string(b.signals.size()) + " properties");
  a.output_index = b.output_index;
  return a;
}

void serve_workload(const Mode& mode, Pass* pass) {
  const std::string path = socket_path();
  std::vector<BatchRequest> batches;
  std::unique_ptr<serve::Server> server;
  for (size_t i = 0; i < kSetups; ++i) {
    if (server) {
      server->stop();
      ::unlink(path.c_str());
    }
    const Stopwatch w;
    batches = serve_batches(mode.smoke);
    server = start_server(path);
    pass->setup_s.push_back(w.seconds());
  }
  if (mode.setup_only) {
    server->stop();
    ::unlink(path.c_str());
    return;
  }
  const int64_t cpu0 = prof::process_cpu_ns();
  const Stopwatch wall;
  {
    Client client(path);
    for (const BatchRequest& b : batches)
      for (const char* phase : {"cold", "warm"})
        pass->answers.push_back(serve_request(client, b, phase, &pass->metrics));
  }
  pass->wall_s = wall.seconds();
  pass->cpu_s = static_cast<double>(prof::process_cpu_ns() - cpu0) * 1e-9;
  server->stop();
  ::unlink(path.c_str());
}

// --- coverage_iu ----------------------------------------------------------

void coverage_workload(const Mode& mode, Pass* pass) {
  const bool smoke = mode.smoke;
  const designs::IuDesign iu = repeat_setup(&pass->setup_s, [smoke] {
    return designs::make_iu(smoke ? designs::IuParams{} : designs::paper_scale_iu());
  });
  if (mode.setup_only) return;
  const struct {
    const char* name;
    size_t set;
  } sets[] = {{"IU1", 0}, {"IU5", 4}};
  const int64_t cpu0 = prof::process_cpu_ns();
  const Stopwatch wall;
  for (const auto& s : sets) {
    CoverageOptions opt;
    opt.time_limit_s = kCoverageBudgetS;
    const MetricsSnapshot base = MetricsRegistry::global().snapshot();
    const CoverageResult r = rfn_coverage_analysis(iu.netlist, iu.coverage_sets[s.set], opt);
    accumulate(&pass->metrics, registry_delta(base));
    json::Value o = json::Value::object();
    o.set("set", s.name);
    o.set("total", r.total_states);
    o.set("unreachable", r.unreachable);
    o.set("reachable", r.reachable);
    o.set("unknown", r.unknown);
    o.set("iterations", r.iterations);
    o.set("abstract_regs", r.final_abstract_regs);
    o.set("seconds", r.seconds);
    pass->coverage.push(std::move(o));
  }
  pass->wall_s = wall.seconds();
  pass->cpu_s = static_cast<double>(prof::process_cpu_ns() - cpu0) * 1e-9;
}

uint64_t parse_uint(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || s[0] == '-')
    die(std::string(flag) + " needs a non-negative integer, got '" + s + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  bool trace = false;
  Mode mode;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) die("missing value for " + arg);
    const char* val = argv[++i];
    if (arg == "--workload") workload = val;
    else if (arg == "--trace") trace = parse_uint("--trace", val) != 0;
    else if (arg == "--smoke") mode.smoke = parse_uint("--smoke", val) != 0;
    else if (arg == "--setup-only") mode.setup_only = parse_uint("--setup-only", val) != 0;
    else die("unknown argument " + arg);
  }

  if (trace) SpanTracer::global().enable(kSpanRing);
  Pass pass;
  if (workload == "aiger_mutex") aiger_workload(mode, &pass);
  else if (workload == "serve_repeat") serve_workload(mode, &pass);
  else if (workload == "coverage_iu") coverage_workload(mode, &pass);
  else die("unknown workload '" + workload + "'");

  json::Value out = json::Value::object();
  out.set("workload", workload);
  json::Value setup = json::Value::array();
  for (double s : pass.setup_s) setup.push(s);
  out.set("setup_s", std::move(setup));
  out.set("wall_s", pass.wall_s);
  out.set("cpu_s", pass.cpu_s);
  out.set("load_s", pass.load_s);
  out.set("peak_rss_mb", peak_rss_mb());
  json::Value answers = json::Value::array();
  for (const Answer& a : pass.answers) answers.push(answer_json(a));
  out.set("requests", std::move(answers));
  out.set("coverage", std::move(pass.coverage));
  out.set("metrics", to_json(pass.metrics));
  if (trace) {
    SpanTracer::global().disable();
    const json::Value doc = SpanTracer::global().to_chrome_json();
    const json::Value* dropped = doc.find_path("otherData.dropped_events");
    out.set("dropped_events", dropped != nullptr ? dropped->as_double() : -1.0);
    out.set("folded", prof::folded_stacks(doc));
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
