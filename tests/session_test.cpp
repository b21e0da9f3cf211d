// Batch-session tests: options validation, the consolidated status strings,
// the subcircuit memo, and — the acceptance check — batch verdicts
// identical to independent single-property run_property runs on designs with
// identical / nested / overlapping / disjoint property cones.

#include "core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "api/api.hpp"
#include "core/status.hpp"
#include "designs/fifo.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"

namespace rfn {
namespace {

bool any_error_contains(const std::vector<std::string>& errors,
                        const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

TEST(RfnOptionsValidate, DefaultsAreValid) {
  EXPECT_TRUE(RfnOptions{}.validate().empty());
}

TEST(RfnOptionsValidate, ReportsEveryProblemAtOnce) {
  RfnOptions opt;
  opt.max_iterations = 0;
  opt.traces_per_iteration = 0;
  opt.budget_bdd_nodes = -1;
  const auto errors = opt.validate();
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(any_error_contains(errors, "max_iterations"));
  EXPECT_TRUE(any_error_contains(errors, "traces_per_iteration"));
  EXPECT_TRUE(any_error_contains(errors, "budget_bdd_nodes"));
}

TEST(RfnOptionsValidate, NegativeProbeTimeAndZeroBudgets) {
  RfnOptions opt;
  opt.race_probe_time_s = -1.0;
  opt.reach.max_live_nodes = 0;
  opt.reach.max_steps = 0;
  const auto errors = opt.validate();
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(any_error_contains(errors, "race_probe_time_s"));
  EXPECT_TRUE(any_error_contains(errors, "max_live_nodes"));
}

TEST(StatusStrings, CanonicalSpellings) {
  // These strings are part of the rfn-trace-v2 schema — changing them
  // breaks every consumer (trace_report.py, bench_gate.py, the CI gate).
  EXPECT_STREQ(to_string(Verdict::Holds), "T");
  EXPECT_STREQ(to_string(Verdict::Fails), "F");
  EXPECT_STREQ(to_string(Verdict::Unknown), "?");
  EXPECT_STREQ(to_string(Verdict::ResourceOut), "resource-out");
  EXPECT_STREQ(to_string(ReachStatus::Proved), "proved");
  EXPECT_STREQ(to_string(ReachStatus::BadReachable), "bad-reachable");
  EXPECT_STREQ(to_string(ReachStatus::ResourceOut), "resource-out");
  EXPECT_STREQ(to_string(AtpgStatus::Sat), "sat");
  EXPECT_STREQ(to_string(AtpgStatus::Unsat), "unsat");
  EXPECT_STREQ(to_string(AtpgStatus::Abort), "abort");
}

TEST(SubcircuitMemoTest, HitsOnRepeatedExtraction) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r1 = b.reg("r1");
  const GateId r2 = b.reg("r2");
  b.set_next(r1, in);
  b.set_next(r2, b.not_(r1));
  b.output("p", r2);
  const Netlist m = b.take();

  SubcircuitMemo memo;
  const auto a = memo.get(m, {r2}, {r2});
  const auto b2 = memo.get(m, {r2}, {r2});
  EXPECT_EQ(a.get(), b2.get());
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  // A different register set is a different model.
  const auto c = memo.get(m, {r2}, {r1, r2});
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(memo.misses(), 2u);
}

// A 3-bit counter that counts 0..5 under an enable and wraps, with one
// reachable property (cnt == 3) and one unreachable one (cnt == 7). Both
// cones are the whole counter: identical cones, opposite polarity.
struct Counter {
  Netlist n;
  GateId bad_a, bad_b;
};

Counter make_counter() {
  NetBuilder b;
  const GateId en = b.input("en");
  const Word cnt = b.reg_word("cnt", 3, 0);
  const Word wrapped =
      b.mux_word(b.eq_const(cnt, 5), b.inc_word(cnt), b.constant_word(0, 3));
  b.set_next_word(cnt, b.mux_word(en, cnt, wrapped));
  Counter c;
  c.bad_a = b.eq_const(cnt, 3);
  c.bad_b = b.eq_const(cnt, 7);
  b.name(c.bad_a, "bad_a");
  b.name(c.bad_b, "bad_b");
  b.output("bad_a", c.bad_a);
  b.output("bad_b", c.bad_b);
  c.n = b.take();
  return c;
}

TEST(VerifySessionTest, IdenticalConesOppositePolarityRunSolo) {
  const Counter c = make_counter();
  VerifySession session(c.n, {});
  const auto results =
      session.run({{"", c.bad_a, {}}, {"", c.bad_b, {}}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "bad_a");
  EXPECT_EQ(results[1].name, "bad_b");
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
  // Each record is the property's own run: its verdict, and the iteration
  // count of an independent run of that property alone.
  const GateId bads[] = {c.bad_a, c.bad_b};
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(results[i].stats.verdict, results[i].verdict);
    EXPECT_EQ(results[i].stats.iterations,
              run_property(c.n, bads[i], RfnOptions{}).iterations)
        << results[i].name;
  }
  // The Fails trace drives bad_a itself to 1; the Holds property has none.
  ASSERT_GT(results[0].trace.cycles(), 0u);
  EXPECT_EQ(simulate_trace(c.n, results[0].trace, c.bad_a), Tri::T);
  EXPECT_EQ(results[1].trace.cycles(), 0u);
}

TEST(VerifySessionTest, DisjointConesRunIndependently) {
  NetBuilder b;
  const GateId r1 = b.reg("toggler");
  b.set_next(r1, b.not_(r1));  // 0,1,0,1,... -> reachable
  const GateId r2 = b.reg("stuck");
  b.set_next(r2, r2);  // stays 0 -> unreachable
  b.output("bad1", r1);
  b.output("bad2", r2);
  const Netlist m = b.take();

  VerifySession session(m, {});
  const auto results = session.run({{"", r1, {}}, {"", r2, {}}});
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
}

TEST(VerifySessionTest, OverridesForceSoloRuns) {
  const Counter c = make_counter();
  PropertyRequest pa{"a", c.bad_a, {}};
  PropertyRequest pb{"b", c.bad_b, {}};
  pb.overrides.max_iterations = 30;
  VerifySession session(c.n, {});
  const auto results = session.run({pa, pb});
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
}

TEST(VerifySessionTest, EmptyBatch) {
  const Counter c = make_counter();
  VerifySession session(c.n, {});
  EXPECT_TRUE(session.run({}).empty());
}

TEST(VerifySessionTest, MatchesSingleRunsOnFifo) {
  // The acceptance cross-check, cross_engine_test style: the batch path and
  // the single-property compatibility path must report identical verdicts
  // for a four-property overlapping-cone suite — the FIFO's three occupancy
  // flags plus their disjunction ("some flag errs"), the composite any-error
  // line testbenches expose.
  designs::FifoDesign fifo = designs::make_fifo({.addr_bits = 2, .data_bits = 2});
  const GateId any = fifo.netlist.add(
      GateType::Or, {fifo.bad_push_full, fifo.bad_push_af, fifo.bad_push_hf});
  const std::vector<GateId> bads = {fifo.bad_push_full, fifo.bad_push_af,
                                    fifo.bad_push_hf, any};

  RfnOptions opt;
  opt.time_limit_s = 60.0;
  std::vector<PropertyRequest> props;
  for (GateId bad : bads) props.push_back({"", bad, {}});
  std::vector<Verdict> ref;
  for (GateId bad : bads)
    ref.push_back(run_property(fifo.netlist, bad, opt).verdict);

  // Inline, and with concurrent property jobs.
  for (size_t workers : {0, 2}) {
    SessionOptions sopt;
    sopt.defaults = opt;
    sopt.workers = workers;
    VerifySession session(fifo.netlist, sopt);
    const auto batch = session.run(props);
    for (size_t i = 0; i < bads.size(); ++i) {
      EXPECT_EQ(batch[i].verdict, ref[i])
          << "property " << batch[i].name << ", workers " << workers;
      EXPECT_EQ(batch[i].verdict, Verdict::Holds);
    }
  }
}

TEST(VerifySessionTest, BatchTraceV2HasOneRecordPerProperty) {
  api::LoadedDesign design;
  design.netlist = make_counter().n;
  api::VerifyRequest req;
  for (const char* signal : {"bad_a", "bad_b"}) {
    api::PropertySpec spec;
    spec.signal = signal;
    req.props.push_back(spec);
  }
  api::CollectTraceSink sink;
  api::RunOutput out;
  std::string error;
  ASSERT_TRUE(api::run_verify(design, req, &sink, false, nullptr, &out, &error))
      << error;

  const std::vector<json::Value>& records = sink.records();
  ASSERT_EQ(records.size(), out.results.size() + 1);  // N properties + summary
  EXPECT_EQ(records[0].find("type")->as_string(), "property");
  EXPECT_EQ(records[0].find("name")->as_string(), "bad_a");
  EXPECT_EQ(records[0].find("verdict")->as_string(), "F");
  EXPECT_EQ(records[1].find("verdict")->as_string(), "T");
  // Each property record carries its run's iterations, numbered from 0.
  for (size_t p = 0; p < 2; ++p) {
    const json::Value* iters = records[p].find("per_iteration");
    ASSERT_NE(iters, nullptr);
    ASSERT_EQ(iters->items().size(), records[p].find("iterations")->as_uint());
    ASSERT_FALSE(iters->items().empty());
    for (size_t k = 0; k < iters->items().size(); ++k)
      EXPECT_EQ(iters->items()[k].find("iter")->as_uint(), k);
  }
  EXPECT_EQ(records[2].find("type")->as_string(), "batch-summary");
  EXPECT_EQ(records[2].find("trace_version")->as_string(), "rfn-trace-v2");
}

TEST(VerifySessionTest, InvalidDefaultsDie) {
  const Counter c = make_counter();
  SessionOptions sopt;
  sopt.defaults.traces_per_iteration = 0;
  VerifySession session(c.n, sopt);
  EXPECT_DEATH(session.run({{"", c.bad_a, {}}}), "traces_per_iteration");
}

TEST(RunPropertyTest, InvalidOptionsDie) {
  // run_property guards itself: no front door needs to have validated.
  const Counter c = make_counter();
  RfnOptions opt;
  opt.max_iterations = 0;
  EXPECT_DEATH(run_property(c.n, c.bad_a, opt), "max_iterations");
  opt = {};
  opt.budget_bdd_nodes = -7;
  EXPECT_DEATH(run_property(c.n, c.bad_a, opt), "budget_bdd_nodes");
}

TEST(RunPropertyTest, SeedRegistersResumeFromRefinedAbstraction) {
  const Counter c = make_counter();
  const RfnResult first = run_property(c.n, c.bad_b);
  EXPECT_EQ(first.verdict, Verdict::Holds);
  // A second run seeded with the refined set, as crucial-register hints of
  // a reuse cache, must reach the same verdict without shrinking the
  // abstraction.
  ReuseCache cache;
  cache.crucial_hints = first.final_registers;
  const RfnResult second = run_property(c.n, c.bad_b, {}, &cache);
  EXPECT_EQ(second.verdict, Verdict::Holds);
  EXPECT_EQ(second.seeded_registers, first.final_registers.size());
  EXPECT_GE(second.final_registers.size(), first.final_registers.size());
}

}  // namespace
}  // namespace rfn
