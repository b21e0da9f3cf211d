// Portfolio race tests: priority order, per-job budgets, parent
// cancellation, stats, per-engine cancellation hooks, and the
// one-BddMgr-per-worker ownership rule that session workers rely on
// (exercised under TSan via -DRFN_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "atpg/seq_atpg.hpp"
#include "core/hybrid_trace.hpp"
#include "core/portfolio.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "netlist/builder.hpp"
#include "sat/bmc.hpp"
#include "sim/sim3.hpp"
#include "util/executor.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rfn {
namespace {

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

/// Mod-8 counter with no inputs: state runs 000 -> 111 in 7 steps, and
/// `bad` = r0 & r1 & r2 first rises at cycle 8. The property fails.
Netlist make_counter_fail() {
  NetBuilder b;
  const GateId r0 = b.reg("r0", Tri::F);
  const GateId r1 = b.reg("r1", Tri::F);
  const GateId r2 = b.reg("r2", Tri::F);
  b.set_next(r0, b.not_(r0));
  b.set_next(r1, b.xor_(r1, r0));
  b.set_next(r2, b.xor_(r2, b.and_(r1, r0)));
  b.output("bad", b.and_(r2, b.and_(r1, r0)));
  return b.take();
}

/// Mod-3 counter: states cycle 00 -> 10 -> 01; state 11 is unreachable, so
/// `bad` = r0 & r1 never rises. The property holds.
Netlist make_counter_safe() {
  NetBuilder b;
  const GateId r0 = b.reg("r0", Tri::F);
  const GateId r1 = b.reg("r1", Tri::F);
  b.set_next(r0, b.and_(b.not_(r0), b.not_(r1)));
  b.set_next(r1, r0);
  b.output("bad", b.and_(r0, r1));
  return b.take();
}

TEST(Portfolio, SequentialDegradationRunsInPriorityOrder) {
  std::vector<int> order;
  auto recording_job = [&](int id, bool conclusive) {
    return PortfolioJob{"job" + std::to_string(id), -1.0,
                        [&order, id, conclusive](const CancelToken&) {
                          order.push_back(id);
                          return conclusive;
                        }};
  };
  std::vector<PortfolioJob> jobs;
  jobs.push_back(recording_job(0, false));  // inconclusive, runs first
  jobs.push_back(recording_job(1, true));   // wins
  jobs.push_back(recording_job(2, true));   // behind the winner: skipped
  const RaceResult r = race(jobs);
  EXPECT_TRUE(r.conclusive);
  EXPECT_EQ(r.winner_name, "job1");
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(r.launched, 2u);
  EXPECT_EQ(r.cancelled, 1u);
}

TEST(Portfolio, JobBudgetExpiresWithoutWinner) {
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"budgeted", 0.05, [&](const CancelToken& token) {
                    for (int i = 0; i < 5000; ++i) {
                      if (token.cancelled()) return false;  // budget expired
                      sleep_ms(1);
                    }
                    ADD_FAILURE() << "budget never expired";
                    return false;
                  }});
  const Stopwatch watch;
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const RaceResult r = race(jobs);
  EXPECT_FALSE(r.conclusive);
  EXPECT_LT(watch.seconds(), 2.0);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(d.value("portfolio.jobs_inconclusive"), 1.0);
}

TEST(Portfolio, CancelledParentTokenSkipsAllJobs) {
  CancelToken parent;
  parent.cancel();
  std::atomic<int> ran{0};
  std::vector<PortfolioJob> jobs;
  for (int i = 0; i < 3; ++i)
    jobs.push_back({"j" + std::to_string(i), -1.0, [&](const CancelToken&) {
                      ++ran;
                      return true;
                    }});
  const RaceResult r = race(jobs, &parent);
  EXPECT_FALSE(r.conclusive);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(r.launched, 0u);
  EXPECT_EQ(r.cancelled, 3u);
}

TEST(Portfolio, StatsAccumulateAcrossRaces) {
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"alpha", -1.0, [](const CancelToken&) { return true; }});
  jobs.push_back({"beta", -1.0, [](const CancelToken&) { return true; }});
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  race(jobs);
  race(jobs);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(d.value("portfolio.races"), 2.0);
  EXPECT_EQ(d.value("portfolio.jobs_launched"), 2.0);  // alpha wins;
  EXPECT_EQ(d.value("portfolio.jobs_cancelled"), 2.0);  // beta never starts
  EXPECT_EQ(d.value("portfolio.wins.alpha"), 2.0);
  EXPECT_EQ(d.value("portfolio.wins.beta"), 0.0);
  EXPECT_GE(d.value("portfolio.race.seconds"), 0.0);
}

// The ownership rule from DESIGN.md: every concurrent job owns its BddMgr
// outright. Session workers run one property (one manager) per executor
// thread, so eight reachability jobs over one shared (immutable) netlist on
// four workers; under -DRFN_SANITIZE=thread this test is the lock-in that
// per-worker managers plus read-only netlist sharing are race-free.
TEST(Portfolio, PerWorkerBddMgrOwnership) {
  const Netlist m = make_counter_fail();
  std::vector<ReachStatus> status(8, ReachStatus::ResourceOut);
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = status.size();
  {
    Executor exec(4);
    for (size_t i = 0; i < status.size(); ++i)
      exec.submit([&, i] {
        BddMgr mgr;  // owned by this job alone
        Encoder enc(mgr, m);
        ImageComputer img(enc);
        const Bdd bad =
            mgr.exists(enc.signal_fn(m.output("bad")), enc.input_vars());
        status[i] = forward_reach(img, enc.initial_states(), bad).status;
        std::lock_guard<std::mutex> lk(mu);
        if (--pending == 0) cv.notify_all();
      });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return pending == 0; });
  }
  for (size_t i = 0; i < status.size(); ++i)
    EXPECT_EQ(status[i], ReachStatus::BadReachable) << "job " << i;
}

TEST(Portfolio, EngineCancellationHooks) {
  const Netlist m = make_counter_fail();
  const GateId bad = m.output("bad");
  CancelToken tok;
  tok.cancel();

  BddMgr mgr;
  Encoder enc(mgr, m);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());

  // BDD reachability: a cancelled fixpoint reports ResourceOut.
  ReachOptions ro;
  ro.cancel = &tok;
  EXPECT_EQ(forward_reach(img, enc.initial_states(), bad_set, ro).status,
            ReachStatus::ResourceOut);

  // Sequential ATPG: a cancelled search reports Abort.
  AtpgOptions ao;
  ao.cancel = &tok;
  EXPECT_EQ(reach_target(m, 8, bad, true, {}, ao).status, AtpgStatus::Abort);

  // Hybrid trace engine: a cancelled walk yields no traces.
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);
  HybridTraceOptions ho;
  ho.cancel = &tok;
  EXPECT_TRUE(hybrid_error_traces(enc, m, reach, bad_set, 1, ho).empty());

  // 3-valued simulation: a cancelled eval() reports stopped(), and a
  // cancelled trace replay answers X.
  Sim3 sim(m);
  sim.set_should_stop(&tok);
  sim.load_initial_state();
  sim.eval();
  EXPECT_TRUE(sim.stopped());
  const SeqAtpgResult cex = reach_target(m, 8, bad, true, {}, AtpgOptions{});
  ASSERT_EQ(cex.status, AtpgStatus::Sat);
  EXPECT_EQ(simulate_trace(m, cex.trace, bad, &tok), Tri::X);
}

// Race real engines in the Step-2 lineup: every engine is sound, so the
// winner must report a verdict consistent with the design's ground truth,
// and priority order makes the formal engine the winner.
TEST(Portfolio, EngineRaceVerdictsAgree) {
  for (const bool fails : {true, false}) {
    const Netlist m = fails ? make_counter_fail() : make_counter_safe();
    const GateId bad = m.output("bad");
    BddMgr mgr;
    Encoder enc(mgr, m);
    ImageComputer img(enc);
    const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());
    ReachResult reach;
    SatBmc bmc(m);
    std::vector<PortfolioJob> jobs;
    jobs.push_back({"bdd-reach", -1.0, [&](const CancelToken& token) {
                      ReachOptions ro;
                      ro.cancel = &token;
                      reach = forward_reach(img, enc.initial_states(), bad_set, ro);
                      return reach.status != ReachStatus::ResourceOut;
                    }});
    jobs.push_back({"sat-bmc", -1.0, [&](const CancelToken& token) {
                      return bmc.check(bad, 10, m.regs(), &token).status ==
                             AtpgStatus::Sat;
                    }});
    const RaceResult r = race(jobs);
    ASSERT_TRUE(r.conclusive) << "fails=" << fails;
    EXPECT_EQ(r.winner_name, "bdd-reach") << "fails=" << fails;
    EXPECT_EQ(reach.status,
              fails ? ReachStatus::BadReachable : ReachStatus::Proved);
    EXPECT_EQ(r.launched, 1u);
    EXPECT_EQ(r.cancelled, 1u);
  }
}

}  // namespace
}  // namespace rfn
