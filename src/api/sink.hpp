#pragma once
// TraceSink: one interface behind which every rfn-trace-v2 record —
// property, certificate, batch-summary — leaves the run path.
//
// Before the rfn::api extraction, emission was a set of path-string options
// threaded through the CLI (write to --trace-json, print, etc.), which a
// long-lived server cannot reuse: it needs the records pushed to a socket
// as they are produced, not written to a file after the run. The sink
// abstraction gives both consumers the same producer:
//
//   * StreamTraceSink  — JSON Lines to an ostream, byte-identical to the
//     pre-extraction `--trace-json` output (one compact dump() per line);
//   * CallbackTraceSink — each record handed to a closure; rfn_serve wraps
//     one around its connection writer to stream records mid-run;
//   * CollectTraceSink — records buffered in memory for tests and for the
//     CLI-vs-server equivalence checks.
//
// Sinks are not thread-safe by themselves; api::run_verify serializes its
// calls (the session's on_property callback fires under the session's
// emission mutex).

#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace rfn::api {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Accepts one rfn-trace-v2 record (a self-contained JSON object).
  virtual void record(const json::Value& rec) = 0;
};

/// JSON Lines to a stream: the --trace-json file format.
class StreamTraceSink : public TraceSink {
 public:
  explicit StreamTraceSink(std::ostream& os) : os_(os) {}
  void record(const json::Value& rec) override { os_ << rec.dump() << "\n"; }

 private:
  std::ostream& os_;
};

/// Each record handed to a closure (the server's per-connection writer).
class CallbackTraceSink : public TraceSink {
 public:
  explicit CallbackTraceSink(std::function<void(const json::Value&)> fn)
      : fn_(std::move(fn)) {}
  void record(const json::Value& rec) override { fn_(rec); }

 private:
  std::function<void(const json::Value&)> fn_;
};

/// Records buffered in memory (tests, equivalence checks).
class CollectTraceSink : public TraceSink {
 public:
  void record(const json::Value& rec) override { records_.push_back(rec); }
  const std::vector<json::Value>& records() const { return records_; }

 private:
  std::vector<json::Value> records_;
};

}  // namespace rfn::api
