#include "core/portfolio.hpp"

#include <bit>

#include "sim/sim64.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/trace.hpp"

namespace rfn {

RaceResult race(const std::vector<PortfolioJob>& jobs,
                const CancelToken* parent) {
  const Stopwatch watch;
  RaceResult res;
  if (jobs.empty()) return res;
  Span race_span("portfolio.race");

  SpanTracer& tracer = SpanTracer::global();
  MetricsRegistry& m = MetricsRegistry::global();
  size_t inconclusive = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const PortfolioJob& job = jobs[i];
    Span job_span(tracer.enabled() ? tracer.intern(job.name) : "job");
    const char* outcome = "skipped";
    if (res.conclusive || should_stop(parent)) {
      ++res.cancelled;
    } else {
      ++res.launched;
      // The per-job budget starts now, chained to the caller's token.
      const int64_t cpu0 = prof::thread_cpu_ns();
      const CancelToken token(job.time_limit_s, parent);
      const bool won = job.run(token);
      const int64_t cpu_ns = prof::thread_cpu_ns() - cpu0;
      if (cpu_ns != 0) {  // 0: no thread-CPU clock on this platform
        const double cpu = static_cast<double>(cpu_ns) * 1e-9;
        res.cpu_seconds += cpu;
        m.timer("engine.cpu." + job.name).record(cpu);
      }
      if (won) {
        res.conclusive = true;
        res.winner = i;
        res.winner_name = job.name;
        outcome = "won";
      } else if (should_stop(parent)) {
        ++res.cancelled;
        outcome = "cancelled";
      } else {
        ++inconclusive;
        outcome = "inconclusive";
      }
    }
    job_span.annotate("outcome", outcome);
  }
  res.seconds = watch.seconds();
  if (tracer.enabled())
    race_span.annotate("winner", res.conclusive
                                     ? tracer.intern(res.winner_name)
                                     : "(none)");

  m.counter("portfolio.races").add(1);
  m.counter("portfolio.jobs_launched").add(res.launched);
  m.counter("portfolio.jobs_cancelled").add(res.cancelled);
  m.counter("portfolio.jobs_inconclusive").add(inconclusive);
  m.timer("portfolio.race").record(res.seconds);
  if (res.conclusive) m.counter("portfolio.wins." + res.winner_name).add(1);
  RFN_DEBUG("portfolio race: winner=%s launched=%zu cancelled=%zu %.3fs",
            res.conclusive ? res.winner_name.c_str() : "(none)", res.launched,
            res.cancelled, res.seconds);
  return res;
}

Trace random_sim_error_trace(const Netlist& n, GateId bad, size_t max_cycles,
                             uint64_t seed, const CancelToken* cancel) {
  // Pass 1: cheap detection across 64 lanes at once.
  size_t hit_cycle = 0;
  int hit_lane = -1;
  {
    Rng rng(seed);
    Sim64 sim(n);
    sim.load_initial_state(rng);
    for (size_t c = 0; c < max_cycles; ++c) {
      if (should_stop(cancel)) return Trace{};
      sim.randomize_inputs(rng);
      sim.eval();
      if (const uint64_t word = sim.value(bad); word != 0) {
        hit_cycle = c;
        hit_lane = std::countr_zero(word);
        break;
      }
      sim.step();
    }
  }
  if (hit_lane < 0) return Trace{};

  // Pass 2: re-simulate the identical stimulus and transcribe the hit lane
  // into a fully-assigned binary trace.
  Trace trace;
  trace.steps.resize(hit_cycle + 1);
  Rng rng(seed);
  Sim64 sim(n);
  sim.load_initial_state(rng);
  for (size_t c = 0; c <= hit_cycle; ++c) {
    TraceStep& step = trace.steps[c];
    for (GateId r : n.regs()) step.state.push_back({r, sim.value_bit(r, hit_lane)});
    sim.randomize_inputs(rng);
    for (GateId in : n.inputs())
      step.inputs.push_back({in, sim.value_bit(in, hit_lane)});
    sim.eval();
    if (c < hit_cycle) sim.step();
  }
  RFN_CHECK(sim.value_bit(bad, hit_lane), "replay lost the simulation hit");
  return trace;
}

}  // namespace rfn
