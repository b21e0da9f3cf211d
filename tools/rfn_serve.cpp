// rfn_serve — verification as a service.
//
//   rfn_serve --socket PATH | --port N [options]
//
// A long-lived daemon on the rfn::api surface: newline-delimited rfn-req-v1
// verify requests in, streamed rfn-trace-v2 records plus one final
// rfn-resp-v1 verdict line out per request (see serve/server.hpp for the
// protocol, including the "ping" and "shutdown" control types).
//
// What staying resident buys: a WarmStateCache keyed by design hash keeps
// each design's netlist instance and its ReuseCache — pooled incremental
// SAT solvers, the final BDD variable order, the subcircuit memo — alive
// across requests, so a repeat request on the same design starts warm. The
// cache is bounded by --warm-mb and evicts LRU. A bounded FairQueue
// schedules admitted jobs fair-share by tenant and rejects fast, with a
// named reason, when the declared watchdog budgets would oversubscribe the
// configured windows.
//
// Quickstart:
//
//   rfn_serve --socket /tmp/rfn.sock &
//   printf '%s\n' '{"type":"verify","version":"rfn-req-v1","id":"r1",
//     "design":{"path":"builtin:fifo"}}' | nc -U /tmp/rfn.sock
//
// Exit status: 0 clean shutdown, 2 usage or bind errors.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "api/api.hpp"
#include "serve/server.hpp"

using namespace rfn;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: rfn_serve (--socket PATH | --port N) [options]\n"
      "  --socket PATH        listen on a Unix-domain socket\n"
      "  --port N             listen on loopback TCP port N (0 = ephemeral)\n"
      "  --workers N          queue-draining worker threads (default 1,\n"
      "                       at most the hardware thread count)\n"
      "  --queue-cap N        admitted-but-unfinished job bound (default 64)\n"
      "  --admit-ms X         wall-time admission window over outstanding\n"
      "                       budget-ms/time-limit demands (default off)\n"
      "  --admit-mem-mb N     admission window over outstanding\n"
      "                       budget-mem-mb demands (default off)\n"
      "  --admit-bdd-nodes N  admission window over outstanding\n"
      "                       budget-bdd-nodes demands (default off)\n"
      "  --default-demand-ms X  time demand assumed for requests that\n"
      "                       declare no budget (default 300000)\n"
      "  --warm-mb N          warm-state cache byte budget in MB\n"
      "                       (default 256; 0 = unbounded)\n"
      "  --no-warm            serve every request cold\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Reals and int64 windows parse like rfn-req-v1 overrides
    // (api::parse_real / api::parse_int64): non-numeric, trailing, non-finite
    // or out-of-range text is a usage error, never a silent cast.
    auto number = [&](auto parse, auto* out) {
      const char* text = i + 1 < argc ? argv[++i] : "";
      if (api::parse_flag(text, parse, out)) return true;
      std::fprintf(stderr, "rfn_serve: %s needs a number, got '%s'\n",
                   arg.c_str(), text);
      return false;
    };
    // Counts parse like rfn-req-v1 counts (api::parse_count): negative,
    // fractional or trailing text, or a value above `max`, is a usage
    // error. All of them are checked before the server (and its worker
    // threads) exists.
    auto count = [&](size_t max, size_t* out) {
      const char* text = i + 1 < argc ? argv[++i] : "";
      size_t v = 0;
      if (api::parse_flag(text, api::parse_count, &v) && v <= max)
        return *out = v, true;
      std::fprintf(stderr, "rfn_serve: %s needs a count <= %zu, got '%s'\n",
                   arg.c_str(), max, text);
      return false;
    };
    size_t n = 0;
    if (arg == "--socket" && i + 1 < argc) {
      opt.unix_socket = argv[++i];
    } else if (arg == "--port") {
      if (!count(65535, &n)) return 2;
      opt.tcp_port = static_cast<int>(n);
    } else if (arg == "--workers") {
      // Capped like session.workers, at the hardware thread count.
      if (!count(std::max(1u, std::thread::hardware_concurrency()),
                 &opt.workers))
        return 2;
    } else if (arg == "--queue-cap") {
      if (!count(SIZE_MAX, &opt.admission.queue_capacity)) return 2;
    } else if (arg == "--admit-ms") {
      if (!number(api::parse_real, &opt.admission.time_window_ms)) return 2;
    } else if (arg == "--admit-mem-mb") {
      if (!number(api::parse_int64, &opt.admission.mem_window_mb)) return 2;
    } else if (arg == "--admit-bdd-nodes") {
      if (!number(api::parse_int64, &opt.admission.bdd_node_window)) return 2;
    } else if (arg == "--default-demand-ms") {
      if (!number(api::parse_real, &opt.admission.default_demand_ms)) return 2;
    } else if (arg == "--warm-mb") {
      if (!count(INT64_MAX >> 20, &n)) return 2;
      opt.warm_budget_bytes = static_cast<int64_t>(n) << 20;
    } else if (arg == "--no-warm") {
      opt.warm_enabled = false;
    } else {
      std::fprintf(stderr, "rfn_serve: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (opt.unix_socket.empty() && opt.tcp_port < 0) return usage();

  serve::Server server(opt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "rfn_serve: %s\n", error.c_str());
    return 2;
  }
  if (!opt.unix_socket.empty()) {
    std::fprintf(stderr, "rfn_serve: listening on %s\n",
                 opt.unix_socket.c_str());
  }
  if (opt.tcp_port >= 0) {
    std::fprintf(stderr, "rfn_serve: listening on 127.0.0.1:%d\n",
                 server.tcp_port());
  }
  std::fflush(stderr);
  server.wait();
  server.stop();
  serve::WarmStats ws = server.warm_stats();
  std::fprintf(stderr,
               "rfn_serve: served %zu requests (warm hits %zu, misses %zu, "
               "evictions %zu)\n",
               server.served(), ws.hits, ws.misses, ws.evictions);
  return 0;
}
