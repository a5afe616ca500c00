// Pass-graph pipeline runtime: scheduling, caching, dirty-node sweeps, and
// the golden-parity guarantee that the pipelined scenario chain is
// byte-identical to the stage functions called in sequence
// (testutil::run_scenario) at any lane count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace {

using namespace nbv6;
using engine::Pass;
using engine::PassCache;
using engine::PassContext;
using engine::Pipeline;

Pass make_pass(std::string name, std::vector<std::string> inputs,
               std::vector<std::string> outputs, int* counter = nullptr) {
  Pass p;
  p.name = std::move(name);
  p.inputs = std::move(inputs);
  p.outputs = std::move(outputs);
  p.run = [outputs = p.outputs, counter](PassContext& ctx) {
    if (counter != nullptr) ++*counter;
    for (const auto& out : outputs) ctx.out(out, int{1});
  };
  return p;
}

// ----------------------------------------------------------- validation

TEST(Pipeline, RejectsDuplicatePassName) {
  Pipeline pipe;
  pipe.add(make_pass("a", {}, {"x"}));
  EXPECT_THROW(pipe.add(make_pass("a", {}, {"y"})), std::invalid_argument);
}

TEST(Pipeline, RejectsDuplicateOutputProducer) {
  Pipeline pipe;
  pipe.add(make_pass("a", {}, {"x"}));
  EXPECT_THROW(pipe.add(make_pass("b", {}, {"x"})), std::invalid_argument);
}

TEST(Pipeline, RejectsMissingRunFunction) {
  Pipeline pipe;
  Pass p;
  p.name = "a";
  p.outputs = {"x"};
  EXPECT_THROW(pipe.add(std::move(p)), std::invalid_argument);
}

TEST(Pipeline, RejectsUnproducedInput) {
  Pipeline pipe;
  pipe.add(make_pass("a", {"ghost"}, {"x"}));
  EXPECT_THROW(pipe.run(), std::invalid_argument);
}

TEST(Pipeline, RejectsDependencyCycle) {
  Pipeline pipe;
  pipe.add(make_pass("a", {"y"}, {"x"}));
  pipe.add(make_pass("b", {"x"}, {"y"}));
  try {
    pipe.run();
    FAIL() << "cycle not detected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

TEST(Pipeline, RejectsUndeclaredOutputWrite) {
  Pipeline pipe;
  Pass p;
  p.name = "a";
  p.outputs = {"x"};
  p.run = [](PassContext& ctx) { ctx.out("not_mine", int{1}); };
  pipe.add(std::move(p));
  EXPECT_THROW(pipe.run(), std::logic_error);
}

TEST(Pipeline, RejectsUnsetDeclaredOutput) {
  Pipeline pipe;
  Pass p;
  p.name = "a";
  p.outputs = {"x", "y"};
  p.run = [](PassContext& ctx) { ctx.out("x", int{1}); };  // forgets y
  pipe.add(std::move(p));
  EXPECT_THROW(pipe.run(), std::logic_error);
}

TEST(Pipeline, SchedulesDependenciesBeforeDependents) {
  Pipeline pipe;
  // Registered deliberately out of dependency order.
  pipe.add(make_pass("sink", {"mid"}, {"end"}));
  pipe.add(make_pass("mid", {"root_out"}, {"mid"}));
  pipe.add(make_pass("root", {}, {"root_out"}));
  const auto order = pipe.schedule();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "root");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "sink");
}

// -------------------------------------------------------------- caching

TEST(Pipeline, SecondRunIsFullyCached) {
  int runs_a = 0;
  int runs_b = 0;
  Pipeline pipe;
  pipe.add(make_pass("a", {}, {"x"}, &runs_a));
  pipe.add(make_pass("b", {"x"}, {"y"}, &runs_b));

  PassCache cache;
  auto s1 = pipe.run(&cache);
  EXPECT_EQ(s1.executed, 2u);
  EXPECT_EQ(s1.cached, 0u);
  auto s2 = pipe.run(&cache);
  EXPECT_EQ(s2.executed, 0u);
  EXPECT_EQ(s2.cached, 2u);
  EXPECT_EQ(runs_a, 1);
  EXPECT_EQ(runs_b, 1);
  EXPECT_EQ(pipe.executions("a"), 1u);
  EXPECT_EQ(pipe.output<int>("y"), 1);
}

TEST(Pipeline, WithoutCacheEveryRunExecutes) {
  int runs = 0;
  Pipeline pipe;
  pipe.add(make_pass("a", {}, {"x"}, &runs));
  pipe.run();
  pipe.run();
  EXPECT_EQ(runs, 2);
}

TEST(Pipeline, ConfigDigestChangeDirtiesDownstream) {
  int runs_a = 0;
  int runs_b = 0;
  int runs_c = 0;
  Pipeline pipe;
  pipe.add(make_pass("a", {}, {"x"}, &runs_a));
  pipe.add(make_pass("b", {"x"}, {"y"}, &runs_b));
  pipe.add(make_pass("c", {"y"}, {"z"}, &runs_c));

  PassCache cache;
  pipe.run(&cache);
  // Dirty the middle pass: upstream stays cached, the dirty suffix re-runs.
  pipe.set_config_digest("b", 42);
  auto stats = pipe.run(&cache);
  EXPECT_EQ(stats.cached, 1u);    // a
  EXPECT_EQ(stats.executed, 2u);  // b, c
  EXPECT_EQ(runs_a, 1);
  EXPECT_EQ(runs_b, 2);
  EXPECT_EQ(runs_c, 2);
  // Reverting the digest lands back on the original cache entries.
  pipe.set_config_digest("b", 0);
  auto back = pipe.run(&cache);
  EXPECT_EQ(back.executed, 0u);
  EXPECT_EQ(back.cached, 3u);
}

// A cache hit must require more than a matching 64-bit digest: a colliding
// entry stored by a different pass (different name, or different output
// arity) previously bound out of bounds / wrong-typed values silently.
TEST(PassCache, CollidingEntryFromDifferentPassIsAMiss) {
  PassCache cache;
  cache.store(42, "alpha",
              {engine::PipelineValue::wrap(int{1}),
               engine::PipelineValue::wrap(int{2})});
  EXPECT_FALSE(cache.find(42, "beta", 2).has_value());   // name mismatch
  EXPECT_FALSE(cache.find(42, "alpha", 1).has_value());  // arity mismatch
  EXPECT_TRUE(cache.find(42, "alpha", 2).has_value());
  EXPECT_FALSE(cache.find(43, "alpha", 2).has_value());  // plain miss

  // erase is name-guarded the same way.
  EXPECT_FALSE(cache.erase(42, "beta"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.erase(42, "alpha"));
  EXPECT_EQ(cache.size(), 0u);
}

// Forced end-to-end collision: pre-store an impostor entry under the exact
// digest a two-output pass will compute. Pre-fix, Pipeline::run trusted the
// digest and read the impostor's single-element output list out of bounds;
// now the mismatch reads as a miss and the pass executes.
TEST(Pipeline, ForcedDigestCollisionTreatedAsMiss) {
  int runs = 0;
  Pipeline pipe;
  pipe.add(make_pass("wide", {}, {"x", "y"}, &runs));
  // A source pass's digest: its name and config digest (0), no inputs.
  const std::uint64_t digest =
      engine::DigestBuilder().str("wide").u64(0).value();

  PassCache cache;
  cache.store(digest, "impostor",
              {engine::PipelineValue::wrap(std::string("not an int"))});
  const auto stats = pipe.run(&cache);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cached, 0u);
  EXPECT_EQ(runs, 1);
  // The pass stored its outputs over the impostor, under the same key: the
  // collision above was a real one, not a near miss.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.find(digest, "wide", 2).has_value());
  EXPECT_EQ(pipe.output<int>("x"), 1);
  EXPECT_EQ(pipe.output<int>("y"), 1);
}

// A pass failure must not leave bound state half-populated: before the
// fix, output_value served the failed run's fresh upstream results (and
// nothing downstream) exactly as if the run had completed.
TEST(Pipeline, ThrowingPassClearsBoundState) {
  auto armed = std::make_shared<bool>(false);
  Pipeline pipe;
  pipe.add(make_pass("a", {}, {"x"}));
  Pass boom;
  boom.name = "boom";
  boom.inputs = {"x"};
  boom.outputs = {"y"};
  boom.run = [armed](PassContext& ctx) {
    if (*armed) throw std::runtime_error("pass blew up");
    ctx.out("y", int{2});
  };
  pipe.add(std::move(boom));

  // Successful run: both resources bound.
  pipe.run();
  EXPECT_EQ(pipe.output<int>("x"), 1);
  EXPECT_EQ(pipe.output<int>("y"), 2);

  // Failed run: nothing bound — neither the failed pass's missing output
  // nor the upstream output that did re-run this time.
  *armed = true;
  EXPECT_THROW(pipe.run(), std::runtime_error);
  EXPECT_THROW((void)pipe.output_value("x"), std::logic_error);
  EXPECT_THROW((void)pipe.output_value("y"), std::logic_error);

  // The pipeline stays usable: disarm and run clean again.
  *armed = false;
  pipe.run();
  EXPECT_EQ(pipe.output<int>("y"), 2);
}

TEST(Pipeline, UncachedSinkPassAlwaysExecutes) {
  int sink_runs = 0;
  Pipeline pipe;
  pipe.add(make_pass("a", {}, {"x"}));
  Pass sink = make_pass("sink", {"x"}, {"written"}, &sink_runs);
  sink.cache_outputs = false;
  pipe.add(std::move(sink));

  PassCache cache;
  pipe.run(&cache);
  pipe.run(&cache);
  EXPECT_EQ(sink_runs, 2);
}

// ----------------------------------------------- scenario pass dirtying

engine::FleetConfig small_config() {
  engine::FleetConfig cfg;
  cfg.residences = 8;
  cfg.days = 6;
  cfg.seed = 7;
  return cfg;
}

engine::TimelineEvent fix_event(double fraction) {
  engine::TimelineEvent ev;
  ev.kind = engine::TimelineEventKind::cpe_fix;
  ev.start_day = 1;
  ev.end_day = 4;
  ev.fraction = fraction;
  return ev;
}

TEST(ScenarioPipeline, TimelineChangeKeepsSampleCached) {
  const auto catalog = traffic::build_paper_catalog();
  PassCache cache;

  auto base = small_config();
  Pipeline p1 = core::make_scenario_pipeline(base, catalog);
  p1.run(&cache);

  auto variant = base;
  variant.timeline->events.push_back(fix_event(0.5));
  Pipeline p2 = core::make_scenario_pipeline(variant, catalog);
  auto stats = p2.run(&cache);

  // Only the population slice digests identically: sample hits, the
  // timeline pass and everything downstream re-runs.
  EXPECT_EQ(p2.executions("sample"), 0u);
  EXPECT_EQ(p2.executions("timeline"), 1u);
  EXPECT_EQ(p2.executions("simulate"), 1u);
  EXPECT_EQ(stats.cached, 1u);
  EXPECT_EQ(stats.executed, 5u);
}

TEST(ScenarioPipeline, SeedChangeRerunsEverything) {
  const auto catalog = traffic::build_paper_catalog();
  PassCache cache;

  Pipeline p1 = core::make_scenario_pipeline(small_config(), catalog);
  p1.run(&cache);

  auto reseeded = small_config();
  reseeded.seed.mut() += 1;
  Pipeline p2 = core::make_scenario_pipeline(reseeded, catalog);
  auto stats = p2.run(&cache);
  EXPECT_EQ(stats.cached, 0u);
  EXPECT_EQ(stats.executed, 6u);
}

TEST(ScenarioPipeline, ReplaceScenarioConfigDirtiesInPlace) {
  const auto catalog = traffic::build_paper_catalog();
  PassCache cache;

  auto base = small_config();
  Pipeline pipe = core::make_scenario_pipeline(base, catalog);
  pipe.run(&cache);
  EXPECT_EQ(pipe.executions("sample"), 1u);

  auto variant = base;
  variant.timeline->events.push_back(fix_event(0.25));
  core::replace_scenario_config(pipe, variant, catalog);
  auto stats = pipe.run(&cache);
  // In-place dirty sweep: same pipeline object, sample still cached (its
  // lifetime counter stays at 1), dirty suffix re-ran.
  EXPECT_EQ(pipe.executions("sample"), 1u);
  EXPECT_EQ(pipe.executions("timeline"), 2u);
  EXPECT_EQ(stats.cached, 1u);
}

TEST(ScenarioPipeline, WhatIfForestSamplesBaseExactlyOnce) {
  const auto catalog = traffic::build_paper_catalog();
  PassCache cache;
  const auto base = small_config();

  std::vector<std::unique_ptr<Pipeline>> pipes;
  for (int v = 0; v < 5; ++v) {
    auto cfg = base;
    if (v > 0) cfg.timeline->events.push_back(fix_event(0.2 * v));
    pipes.push_back(std::make_unique<Pipeline>(
        core::make_scenario_pipeline(cfg, catalog)));
    pipes.back()->run(&cache);
  }
  std::uint64_t sample_execs = 0;
  for (const auto& p : pipes) sample_execs += p->executions("sample");
  EXPECT_EQ(sample_execs, 1u);
}

// -------------------------------------------------------- golden parity

// The pipelined scenario chain must be byte-identical to the stage
// functions called in sequence for every committed scenario, at 1, 4, and 8
// lanes, with cross-lane cache reuse in play (a cached pass result from a
// 1-lane run binds into an 8-lane pipeline).
TEST(ScenarioPipeline, PipelinedRunsMatchStandaloneByteForByte) {
  const auto catalog = traffic::build_paper_catalog();
  const auto files = testutil::scenario_files();
  ASSERT_FALSE(files.empty());

  for (const auto& path : files) {
    std::string error;
    auto cfg = engine::FleetConfig::load(path, &error);
    ASSERT_TRUE(cfg) << path << ": " << error;

    const std::string expected =
        testutil::canonical_serialize(testutil::run_scenario(*cfg, catalog, 1));

    PassCache cache;  // shared across lane counts on purpose
    for (int lanes : {1, 4, 8}) {
      std::unique_ptr<engine::ThreadPool> pool;
      if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);

      Pipeline pipe = core::make_scenario_pipeline(*cfg, catalog);
      pipe.run(&cache, pool.get());

      testutil::ScenarioRun run;
      run.cfg = *cfg;
      run.result = pipe.output<engine::FleetResult>("fleet_result");
      run.report = pipe.output<core::FleetStatsReport>("stats_report");
      run.window_panel = pipe.output<core::GroupComparison>("window_panel");
      const std::string got = testutil::canonical_serialize(run);
      EXPECT_EQ(got, expected)
          << testutil::scenario_stem(path) << " @ " << lanes << " lanes: "
          << testutil::first_diff(got, expected);
    }
  }
}

}  // namespace
