// Timeline tests: event-spec parsing (including the extended FleetConfig
// section), the purity guarantee — day states depend only on (seed, index,
// day, horizon) — and the end-to-end behavioural effects of each event
// kind on a simulated fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/fleet_analysis.h"
#include "engine/fleet.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "engine/timeline.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace nbv6::engine {
namespace {

// ------------------------------------------------------------- parsing

TEST(TimelineParse, EventSpecsRoundTrip) {
  auto ev = Timeline::parse_event("rollout_wave", "start=10 end=30 frac=0.8");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, TimelineEventKind::rollout_wave);
  EXPECT_EQ(ev->start_day, 10);
  EXPECT_EQ(ev->end_day, 30);
  EXPECT_DOUBLE_EQ(ev->fraction, 0.8);

  auto fix = Timeline::parse_event("cpe_fix", "day=20");
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->start_day, 20);
  EXPECT_EQ(fix->end_day, 20);
  EXPECT_DOUBLE_EQ(fix->fraction, 1.0);  // default

  auto outage = Timeline::parse_event("outage", "start=5 end=35 frac=0.25 len=4");
  ASSERT_TRUE(outage.has_value());
  EXPECT_EQ(outage->duration_days, 4);

  auto seasonal = Timeline::parse_event("seasonal", "amp=0.5 period=28");
  ASSERT_TRUE(seasonal.has_value());
  EXPECT_DOUBLE_EQ(seasonal->amplitude, 0.5);
  EXPECT_EQ(seasonal->period_days, 28);
  // No end: runs to the horizon.
  EXPECT_EQ(seasonal->end_day, std::numeric_limits<int>::max());
}

TEST(TimelineParse, RejectsBadSpecs) {
  // Unknown kind / key.
  EXPECT_FALSE(Timeline::parse_event("comet_strike", "day=3").has_value());
  EXPECT_FALSE(Timeline::parse_event("outage", "banana=3").has_value());
  // Kind-inapplicable keys.
  EXPECT_FALSE(Timeline::parse_event("rollout_wave", "amp=0.5").has_value());
  EXPECT_FALSE(Timeline::parse_event("seasonal", "len=4").has_value());
  // Ranges.
  EXPECT_FALSE(Timeline::parse_event("outage", "start=9 end=3").has_value());
  EXPECT_FALSE(Timeline::parse_event("outage", "frac=1.5").has_value());
  EXPECT_FALSE(Timeline::parse_event("outage", "frac=nan").has_value());
  EXPECT_FALSE(Timeline::parse_event("seasonal", "amp=inf").has_value());
  EXPECT_FALSE(Timeline::parse_event("outage", "start=-2").has_value());
  // day= conflicts with start=/end=, and duplicates are rejected.
  EXPECT_FALSE(Timeline::parse_event("outage", "day=3 start=1").has_value());
  EXPECT_FALSE(Timeline::parse_event("outage", "start=1 start=2").has_value());
  // Malformed tokens.
  EXPECT_FALSE(Timeline::parse_event("outage", "start").has_value());
}

TEST(TimelineParse, FleetConfigTimelineSection) {
  auto cfg = FleetConfig::parse(
      "residences = 8\n"
      "days = 30\n"
      "timeline.rollout_wave = start=5 end=15 frac=0.5\n"
      "timeline.outage = start=20 end=22  # storm\n"
      "timeline.outage = start=2 end=28 frac=0.1 len=3\n"
      "timeline.seasonal = amp=0.25 period=14\n");
  ASSERT_TRUE(cfg.has_value());
  ASSERT_EQ(cfg->timeline->events.size(), 4u);
  EXPECT_EQ(cfg->timeline->events[0].kind, TimelineEventKind::rollout_wave);
  EXPECT_EQ(cfg->timeline->events[1].kind, TimelineEventKind::outage);
  EXPECT_EQ(cfg->timeline->events[2].duration_days, 3);
  EXPECT_EQ(cfg->timeline->events[3].kind, TimelineEventKind::seasonal);

  // Bad event lines fail the whole config parse.
  EXPECT_FALSE(FleetConfig::parse("timeline.outage = start=9 end=1\n"));
  EXPECT_FALSE(FleetConfig::parse("timeline.nope = day=1\n"));
}

TEST(TimelineParse, RejectsEventsStartingPastTheHorizon) {
  // An event whose window opens at or past the last simulated day can
  // never fire: that is a scenario bug, not intent, and must fail loudly —
  // wherever the `days` line sits relative to the event line.
  EXPECT_FALSE(FleetConfig::parse("days = 30\n"
                                  "timeline.outage = day=30\n"));
  EXPECT_FALSE(FleetConfig::parse("timeline.outage = start=100 end=120\n"
                                  "days = 30\n"));
  EXPECT_FALSE(FleetConfig::parse("days = 30\n"
                                  "timeline.nat64_migration = start=45\n"));
  // The last in-horizon start day is fine, as are open-ended windows and
  // windows whose tail runs past the horizon (evaluation clamps them).
  EXPECT_TRUE(FleetConfig::parse("days = 30\n"
                                 "timeline.outage = day=29\n"));
  EXPECT_TRUE(FleetConfig::parse("days = 30\n"
                                 "timeline.seasonal = amp=0.2\n"));
  EXPECT_TRUE(FleetConfig::parse("days = 30\n"
                                 "timeline.rollout_wave = start=10 end=90\n"));
  // The default horizon (no `days` line) is validated the same way.
  EXPECT_TRUE(FleetConfig::parse("timeline.outage = day=29\n"));
  EXPECT_FALSE(FleetConfig::parse("timeline.outage = day=30\n"));

  // Round trip: every committed scenario still parses under the rule.
  for (const auto& file : nbv6::testutil::scenario_files()) {
    SCOPED_TRACE(file);
    EXPECT_TRUE(FleetConfig::load(file).has_value());
  }
}

// -------------------------------------------------------------- purity

TEST(TimelineDayStateTest, PureFunctionOfSeedIndexDay) {
  Timeline tl;
  tl.events.push_back(
      *Timeline::parse_event("rollout_wave", "start=5 end=25 frac=0.6"));
  tl.events.push_back(
      *Timeline::parse_event("outage", "start=10 end=30 frac=0.3 len=3"));
  tl.events.push_back(
      *Timeline::parse_event("seasonal", "amp=0.4 period=14"));

  ResidenceTraits v4_home;   // v4-only base
  ResidenceTraits ds_home;
  ds_home.dual_stack_isp = true;

  const std::uint64_t seed = 99;
  const int days = 40;

  // Same (seed, index, day) -> same state, no matter the call order or how
  // many other (index, day) pairs were evaluated in between.
  auto probe = [&](int index, int day) {
    return timeline_day_state(tl, seed, index, day, days,
                              index % 2 ? ds_home : v4_home);
  };
  std::vector<TimelineDayState> forward, scrambled;
  for (int i = 0; i < 16; ++i)
    for (int d = 0; d < days; ++d) forward.push_back(probe(i, d));
  for (int d = days - 1; d >= 0; --d)
    for (int i = 15; i >= 0; --i) scrambled.push_back(probe(i, d));
  // Reindex scrambled back to forward order and compare.
  for (int i = 0; i < 16; ++i)
    for (int d = 0; d < days; ++d) {
      size_t fwd = static_cast<size_t>(i) * days + static_cast<size_t>(d);
      size_t scr = static_cast<size_t>(days - 1 - d) * 16 +
                   static_cast<size_t>(15 - i);
      EXPECT_EQ(forward[fwd], scrambled[scr]) << "i=" << i << " d=" << d;
    }

  // Monotone events stay monotone: once rolled out / migrated, never back.
  for (int i = 0; i < 16; ++i) {
    bool was_v6 = false;
    for (int d = 0; d < days; ++d) {
      auto s = probe(i, d);
      if (was_v6) {
        EXPECT_TRUE(s.isp_v6) << "rollback at i=" << i << " d=" << d;
      }
      was_v6 = s.isp_v6;
    }
  }
}

TEST(TimelineApply, PrefixStableUnderPopulationGrowth) {
  // Residence i's day plans must not depend on the population size —
  // the same stability sample_stage guarantees for static configs.
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 12;
  cfg.days = 20;
  cfg.seed = 7;
  cfg.timeline->events.push_back(
      *Timeline::parse_event("rollout_wave", "start=3 end=12 frac=0.7"));
  cfg.timeline->events.push_back(
      *Timeline::parse_event("outage", "start=8 end=10 frac=0.4"));

  auto small = sample_stage(cfg, catalog);
  apply_timeline(small, cfg.timeline, cfg.seed, cfg.days,
                 TimelinePlanMode::materialized);

  cfg.residences = 40;
  auto big = sample_stage(cfg, catalog);
  apply_timeline(big, cfg.timeline, cfg.seed, cfg.days,
                 TimelinePlanMode::materialized);
  // And the lazy providers for the grown population must agree day by day
  // with the small population's materialized plans.
  auto big_lazy = sample_stage(cfg, catalog);
  apply_timeline(big_lazy, cfg.timeline, cfg.seed, cfg.days);

  for (size_t i = 0; i < small.configs.size(); ++i) {
    EXPECT_EQ(small.configs[i].day_plan, big.configs[i].day_plan) << i;
    ASSERT_TRUE(big_lazy.configs[i].day_plan_fn) << i;
    for (int d = 0; d < cfg.days; ++d)
      EXPECT_EQ(big_lazy.configs[i].day_plan_fn(d),
                small.configs[i].day_plan[static_cast<size_t>(d)])
          << "residence " << i << " day " << d;
  }
}

TEST(TimelineApply, LazyMatchesMaterializedOnAllScenarios) {
  // The lazy provider and the materialized vector are two routes to the
  // same pure function; every committed scenario must agree on every
  // (residence, day) cell. (Full-simulation byte-parity is pinned by the
  // golden-replay suite; this covers the plan layer exhaustively and
  // cheaply.)
  auto catalog = traffic::build_paper_catalog();
  for (const auto& file : nbv6::testutil::scenario_files()) {
    SCOPED_TRACE(file);
    auto cfg = FleetConfig::load(file);
    ASSERT_TRUE(cfg.has_value());

    auto lazy = sample_stage(*cfg, catalog);
    apply_timeline(lazy, cfg->timeline, cfg->seed, cfg->days,
                   TimelinePlanMode::lazy);
    auto mat = sample_stage(*cfg, catalog);
    apply_timeline(mat, cfg->timeline, cfg->seed, cfg->days,
                   TimelinePlanMode::materialized);

    if (cfg->timeline->empty()) {
      // The static fast path: neither mode installs anything.
      for (const auto& c : lazy.configs) {
        EXPECT_TRUE(c.day_plan.empty());
        EXPECT_FALSE(c.day_plan_fn);
      }
      continue;
    }
    for (size_t i = 0; i < lazy.configs.size(); ++i) {
      // The default path must not keep any residences x days allocation.
      EXPECT_TRUE(lazy.configs[i].day_plan.empty()) << i;
      ASSERT_TRUE(lazy.configs[i].day_plan_fn) << i;
      EXPECT_FALSE(mat.configs[i].day_plan_fn) << i;
      ASSERT_EQ(mat.configs[i].day_plan.size(),
                static_cast<size_t>(cfg->days));
      for (int d = 0; d < cfg->days; ++d)
        EXPECT_EQ(lazy.configs[i].day_plan_fn(d),
                  mat.configs[i].day_plan[static_cast<size_t>(d)])
            << "residence " << i << " day " << d;
    }
  }
}

TEST(TimelineDayStateTest, ExtremeStartAndLenStayDefined) {
  // Parser-legal but absurd values (start and len at INT_MAX) must not
  // overflow the window arithmetic; the event simply never fires inside
  // the horizon.
  Timeline tl;
  tl.events.push_back(
      *Timeline::parse_event("outage", "start=2147483647 len=2147483647"));
  ResidenceTraits base;
  base.dual_stack_isp = true;
  for (int day = 0; day < 10; ++day) {
    auto s = timeline_day_state(tl, 1, 0, day, 10, base);
    EXPECT_FALSE(s.outage) << day;
  }
}

TEST(TimelineApply, LazyFallsBackToStaticOutsideTheHorizon) {
  // The materialized vector falls back to the static configuration for
  // any day outside [0, days): the simulator's bounds check returns
  // kStaticDayPlan. The lazy provider must match even when a config's
  // horizon is later extended past the days given to apply_timeline —
  // fired events must not leak into days the timeline never covered.
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 6;
  cfg.days = 12;
  cfg.seed = 31;
  cfg.timeline->events.push_back(
      *Timeline::parse_event("nat64_migration", "start=2 frac=1.0"));
  cfg.timeline->events.push_back(
      *Timeline::parse_event("seasonal", "amp=0.5 period=7"));

  auto fleet = sample_stage(cfg, catalog);
  apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);
  for (const auto& c : fleet.configs) {
    ASSERT_TRUE(c.day_plan_fn);
    for (int day : {-1, cfg.days.get(), cfg.days + 1, cfg.days + 300})
      EXPECT_EQ(c.day_plan_fn(day), traffic::kStaticDayPlan) << day;
    // Inside the horizon the migration is in force (frac=1.0, day 2+).
    EXPECT_TRUE(c.day_plan_fn(cfg.days - 1).nat64);
  }
}

TEST(TimelineApply, EmptyTimelineLeavesPlansEmpty) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 4;
  cfg.days = 10;
  auto fleet = sample_stage(cfg, catalog);
  apply_timeline(fleet, Timeline{}, cfg.seed, cfg.days);
  for (const auto& c : fleet.configs) {
    EXPECT_TRUE(c.day_plan.empty());
    EXPECT_FALSE(c.day_plan_fn);  // static fast path stays function-free
  }
}

// ------------------------------------------------------------ behaviour

TEST(TimelineBehaviour, RolloutWaveRaisesPostWindowV6) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 32;
  cfg.days = 20;
  cfg.seed = 42;
  cfg.dual_stack_isp_frac = 0.0;  // nobody starts with IPv6
  cfg.broken_v6_frac = 0.0;
  cfg.timeline->events.push_back(
      *Timeline::parse_event("rollout_wave", "start=10 end=10 frac=1.0"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);

  auto metrics = std::vector<core::FleetMetric>{
      core::FleetMetric::v6_byte_fraction};
  auto pre = core::extract_metrics(result, metrics, core::DayWindow{0, 9});
  auto post = core::extract_metrics(result, metrics, core::DayWindow{10, 19});
  // Pre-rollout: v4-only homes push (essentially) no external v6 bytes;
  // post-rollout every home has working IPv6.
  size_t improved = 0, defined = 0;
  for (size_t i = 0; i < result.residences.size(); ++i) {
    double a = pre.values[0][i];
    double b = post.values[0][i];
    if (std::isnan(a) || std::isnan(b)) continue;
    ++defined;
    EXPECT_LT(a, 0.35) << i;  // HE dup flows leak a few v6 bytes at most
    if (b > a) ++improved;
  }
  ASSERT_GT(defined, 20u);
  EXPECT_GT(improved, defined * 8 / 10);

  // And the panel machinery agrees: significant pre/post shift.
  auto panel = core::compare_windows(result, metrics, core::DayWindow{0, 9},
                                     core::DayWindow{10, 19});
  ASSERT_EQ(panel.rows.size(), 1u);
  EXPECT_LT(panel.rows[0].median_a, panel.rows[0].median_b);
  EXPECT_TRUE(panel.rows[0].significant);
}

TEST(TimelineBehaviour, OutageSilencesExternalTrafficOnly) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 12;
  cfg.days = 9;
  cfg.seed = 5;
  cfg.background_only_frac = 0.0;
  cfg.timeline->events.push_back(
      *Timeline::parse_event("outage", "start=3 end=5 frac=1.0"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  EXPECT_GT(result.totals.outage_suppressed, 0u);

  for (const auto& run : result.residences) {
    const auto& ext = run.monitor.daily(flowmon::Scope::external);
    const auto& internal = run.monitor.daily(flowmon::Scope::internal);
    for (int day = 3; day <= 5; ++day) {
      auto it = ext.find(day);
      EXPECT_TRUE(it == ext.end() || it->second.total_flows() == 0)
          << run.config.name << " day " << day << " leaked external flows";
    }
    // The LAN stays noisy through the outage (flows start every hour, so
    // with 3 whole days some internal traffic is effectively certain).
    std::uint64_t internal_flows = 0;
    for (int day = 3; day <= 5; ++day) {
      auto it = internal.find(day);
      if (it != internal.end()) internal_flows += it->second.total_flows();
    }
    EXPECT_GT(internal_flows, 0u) << run.config.name;
  }
}

TEST(TimelineBehaviour, Nat64MakesWanAllV6) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 12;
  cfg.days = 8;
  cfg.seed = 11;
  cfg.broken_v6_frac = 0.0;
  cfg.timeline->events.push_back(
      *Timeline::parse_event("nat64_migration", "day=4 frac=1.0"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  auto metrics = std::vector<core::FleetMetric>{
      core::FleetMetric::v6_flow_fraction};
  // Window starts the day AFTER the migration day: sessions late on the
  // last pre-NAT64 evening can start flows up to a minute past midnight,
  // so day 4 still carries a handful of v4 stragglers by design.
  auto post = core::extract_metrics(result, metrics, core::DayWindow{5, 7});
  for (size_t i = 0; i < result.residences.size(); ++i) {
    double f = post.values[0][i];
    if (std::isnan(f)) continue;  // vacant-ish home with no external flows
    EXPECT_DOUBLE_EQ(f, 1.0) << "residence " << i
                             << " saw v4 WAN flows behind NAT64";
  }
}

TEST(TimelineBehaviour, SeasonalScalesActivityUpAndDown) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 24;
  cfg.days = 28;
  cfg.seed = 13;
  cfg.background_only_frac = 0.0;
  cfg.absence_prob = 0.0;
  // period=28: days 0-13 get the positive half-sine, days 14-27 the
  // negative half.
  cfg.timeline->events.push_back(
      *Timeline::parse_event("seasonal", "start=0 end=27 amp=0.9 period=28"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto with = testutil::simulate_scenario(cfg, catalog, &pool);
  cfg.timeline->events.clear();
  auto without = testutil::simulate_scenario(cfg, catalog, &pool);

  auto day_flows = [](const engine::FleetResult& r, int lo, int hi) {
    std::uint64_t sum = 0;
    for (const auto& [day, split] : r.fleet.daily(flowmon::Scope::external))
      if (day >= lo && day <= hi) sum += split.total_flows();
    return sum;
  };
  // The boosted half clearly outgrows the suppressed half relative to the
  // flat run.
  double boost = static_cast<double>(day_flows(with, 0, 13)) /
                 static_cast<double>(day_flows(without, 0, 13));
  double damp = static_cast<double>(day_flows(with, 14, 27)) /
                static_cast<double>(day_flows(without, 14, 27));
  EXPECT_GT(boost, 1.1);
  EXPECT_LT(damp, 0.9);
}

// ------------------------------------------- adversarial event kinds

TEST(TimelineParse, AdversarialKindsParseWithTheirKeys) {
  auto renum = Timeline::parse_event("prefix_renumber", "start=5 end=20 frac=0.5");
  ASSERT_TRUE(renum.has_value());
  EXPECT_EQ(renum->kind, TimelineEventKind::prefix_renumber);

  auto svc = Timeline::parse_event("service_outage", "start=3 end=9 svc=7 len=2");
  ASSERT_TRUE(svc.has_value());
  EXPECT_EQ(svc->service, 7);
  EXPECT_EQ(svc->duration_days, 2);

  auto cgn = Timeline::parse_event("cgn_exhaustion", "day=4 ports=0");
  ASSERT_TRUE(cgn.has_value());
  EXPECT_EQ(cgn->port_budget, 0);  // zero budget is legal: no v4 WAN at all

  auto turn = Timeline::parse_event("device_turnover", "start=0 end=9 rate=0.75");
  ASSERT_TRUE(turn.has_value());
  EXPECT_DOUBLE_EQ(turn->turnover_rate, 0.75);

  // Required keys and kind-applicability.
  EXPECT_FALSE(Timeline::parse_event("service_outage", "day=1").has_value());
  EXPECT_FALSE(Timeline::parse_event("cgn_exhaustion", "day=1").has_value());
  EXPECT_FALSE(Timeline::parse_event("service_outage", "day=1 svc=64").has_value());
  EXPECT_FALSE(Timeline::parse_event("service_outage", "day=1 svc=-1").has_value());
  EXPECT_FALSE(Timeline::parse_event("cgn_exhaustion", "day=1 ports=-5").has_value());
  EXPECT_FALSE(Timeline::parse_event("device_turnover", "day=1 rate=1.5").has_value());
  EXPECT_FALSE(Timeline::parse_event("prefix_renumber", "day=1 svc=3").has_value());
  EXPECT_FALSE(Timeline::parse_event("cgn_exhaustion", "day=1 ports=10 len=2").has_value());
}

TEST(TimelineParse, ErrorMessagesNameTheOffendingToken) {
  auto msg = [](std::string_view kind, std::string_view spec) {
    std::string error;
    EXPECT_FALSE(Timeline::parse_event(kind, spec, &error).has_value());
    return error;
  };
  EXPECT_NE(msg("comet_strike", "day=3").find("unknown timeline event kind "
                                              "'comet_strike'"),
            std::string::npos);
  EXPECT_NE(msg("outage", "banana=3").find("unknown event key 'banana'"),
            std::string::npos);
  EXPECT_NE(msg("rollout_wave", "amp=0.5").find("not valid for kind "
                                                "'rollout_wave'"),
            std::string::npos);
  EXPECT_NE(msg("outage", "start=1 start=2").find("duplicate event key "
                                                  "'start'"),
            std::string::npos);
  EXPECT_NE(msg("outage", "frac=1.5").find("invalid value '1.5' for event "
                                           "key 'frac'"),
            std::string::npos);
  EXPECT_NE(msg("outage", "start=9 end=3").find("precedes"),
            std::string::npos);
  EXPECT_NE(msg("outage", "start").find("malformed token 'start'"),
            std::string::npos);
  EXPECT_NE(msg("service_outage", "day=1").find("'svc' is required"),
            std::string::npos);
  EXPECT_NE(msg("cgn_exhaustion", "day=1").find("'ports' is required"),
            std::string::npos);
  EXPECT_NE(msg("outage", "day=3 start=1").find("conflicts"),
            std::string::npos);
}

TEST(TimelineDayStateTest, PrefixRenumberStacksEpochsPermanently) {
  Timeline tl;
  tl.events.push_back(*Timeline::parse_event("prefix_renumber", "day=5"));
  tl.events.push_back(*Timeline::parse_event("prefix_renumber", "day=10"));
  ResidenceTraits base;
  base.dual_stack_isp = true;
  for (int index = 0; index < 8; ++index) {
    int prev = 0;
    for (int day = 0; day < 20; ++day) {
      auto s = timeline_day_state(tl, 99, index, day, 20, base);
      EXPECT_GE(s.prefix_epoch, prev) << "epoch rolled back";
      prev = s.prefix_epoch;
      if (day < 5) {
        EXPECT_EQ(s.prefix_epoch, 0);
      }
      if (day >= 10) {
        EXPECT_EQ(s.prefix_epoch, 2);  // both rotations landed
      }
    }
  }
}

TEST(TimelineDayStateTest, CgnBudgetTakesTheMinimumOfOverlappingEvents) {
  Timeline tl;
  tl.events.push_back(
      *Timeline::parse_event("cgn_exhaustion", "start=2 end=10 ports=500"));
  tl.events.push_back(
      *Timeline::parse_event("cgn_exhaustion", "start=5 end=7 ports=100"));
  ResidenceTraits base;
  for (int day = 0; day < 14; ++day) {
    auto s = timeline_day_state(tl, 7, 0, day, 14, base);
    if (day < 2 || day > 10) {
      EXPECT_EQ(s.cgn_port_budget, -1) << "day " << day;
    } else if (day >= 5 && day <= 7) {
      EXPECT_EQ(s.cgn_port_budget, 100) << "day " << day;
    } else {
      EXPECT_EQ(s.cgn_port_budget, 500) << "day " << day;
    }
  }
}

TEST(TimelineDayStateTest, DeviceTurnoverRampsAndPersists) {
  Timeline tl;
  tl.events.push_back(
      *Timeline::parse_event("device_turnover", "start=4 end=7 rate=0.8"));
  ResidenceTraits base;
  base.dual_stack_isp = true;
  double prev = 0.0;
  for (int day = 0; day < 12; ++day) {
    auto s = timeline_day_state(tl, 3, 0, day, 12, base);
    EXPECT_GE(s.v6_ok_uplift, 0.0);
    EXPECT_LE(s.v6_ok_uplift, 1.0);
    if (day < 4) {
      EXPECT_EQ(s.v6_ok_uplift, 0.0) << "day " << day;
    } else {
      EXPECT_GE(s.v6_ok_uplift, prev) << "uplift must never regress";
    }
    prev = s.v6_ok_uplift;
  }
  // Terminal value: the full rate by the window's end, held afterwards.
  auto end_state = timeline_day_state(tl, 3, 0, 7, 12, base);
  auto after = timeline_day_state(tl, 3, 0, 11, 12, base);
  EXPECT_DOUBLE_EQ(end_state.v6_ok_uplift, 0.8);
  EXPECT_DOUBLE_EQ(after.v6_ok_uplift, 0.8);
}

TEST(TimelineApply, DayPlanCarriesAdversarialState) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 6;
  cfg.days = 12;
  cfg.seed = 21;
  cfg.timeline->events.push_back(
      *Timeline::parse_event("prefix_renumber", "day=3"));
  cfg.timeline->events.push_back(
      *Timeline::parse_event("service_outage", "start=4 end=8 svc=2"));
  cfg.timeline->events.push_back(
      *Timeline::parse_event("cgn_exhaustion", "start=6 end=9 ports=40"));

  auto fleet = sample_stage(cfg, catalog);
  apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);
  for (const auto& rc : fleet.configs) {
    ASSERT_TRUE(static_cast<bool>(rc.day_plan_fn));
    EXPECT_EQ(rc.day_plan_fn(0).prefix_epoch, 0);
    EXPECT_EQ(rc.day_plan_fn(11).prefix_epoch, 1);
    EXPECT_EQ(rc.day_plan_fn(5).service_down_mask, std::uint64_t{1} << 2);
    EXPECT_EQ(rc.day_plan_fn(0).service_down_mask, 0u);
    EXPECT_EQ(rc.day_plan_fn(7).cgn_port_budget, 40);
    EXPECT_EQ(rc.day_plan_fn(0).cgn_port_budget, -1);
  }
}

TEST(TimelineBehaviour, ServiceOutageRejectsSessionsInWindowOnly) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 16;
  cfg.days = 12;
  cfg.seed = 5;
  // Popular service index 0 down for days 4..7 everywhere.
  cfg.timeline->events.push_back(
      *Timeline::parse_event("service_outage", "start=4 end=7 svc=0"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  EXPECT_GT(result.totals.service_outage_failed, 0u);
  EXPECT_GT(result.totals.flows, 0u);  // other services keep flowing
  for (size_t d = 0; d < result.totals.daily.size(); ++d) {
    if (d >= 4 && d <= 7) continue;
    EXPECT_EQ(result.totals.daily[d].service_outage_failed, 0u)
        << "failures outside the outage window on day " << d;
  }
  std::uint64_t in_window = 0;
  for (size_t d = 4; d <= 7; ++d)
    in_window += result.totals.daily[d].service_outage_failed;
  EXPECT_EQ(in_window, result.totals.service_outage_failed);
}

TEST(TimelineBehaviour, CgnExhaustionFailsV4SessionsAboveBudget) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 16;
  cfg.days = 10;
  cfg.seed = 11;
  cfg.dual_stack_isp_frac = 0.0;  // all-v4 fleet: every WAN session is CGN'd
  cfg.timeline->events.push_back(
      *Timeline::parse_event("cgn_exhaustion", "start=5 end=9 ports=10"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  EXPECT_GT(result.totals.cgn_failures, 0u);
  for (size_t d = 0; d < 5; ++d)
    EXPECT_EQ(result.totals.daily[d].cgn_failures, 0u)
        << "failures before the exhaustion window on day " << d;

  // An unconstrained rerun has no CGN failures at all.
  FleetConfig open = cfg;
  open.timeline->events.clear();
  auto baseline = testutil::simulate_scenario(open, catalog, &pool);
  EXPECT_EQ(baseline.totals.cgn_failures, 0u);
}

TEST(TimelineBehaviour, DeviceTurnoverRaisesV6UseInBrokenHomes) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 24;
  cfg.days = 16;
  cfg.seed = 13;
  cfg.dual_stack_isp_frac = 1.0;
  cfg.broken_v6_frac = 1.0;  // every home starts with flaky device IPv6
  cfg.timeline->events.push_back(
      *Timeline::parse_event("device_turnover", "start=8 end=15 rate=1"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  auto metrics =
      std::vector<core::FleetMetric>{core::FleetMetric::v6_byte_fraction};
  auto panel = core::compare_windows(result, metrics, core::DayWindow{0, 7},
                                     core::DayWindow{8, 15});
  ASSERT_EQ(panel.rows.size(), 1u);
  EXPECT_LT(panel.rows[0].median_a, panel.rows[0].median_b);
}

TEST(TimelineBehaviour, CpeFixHealsBrokenHomes) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 24;
  cfg.days = 16;
  cfg.seed = 17;
  cfg.dual_stack_isp_frac = 1.0;
  cfg.broken_v6_frac = 1.0;  // everyone starts broken
  cfg.timeline->events.push_back(
      *Timeline::parse_event("cpe_fix", "day=8 frac=1.0"));

  ThreadPool pool(1);  // + the calling thread = 2 lanes
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  auto metrics = std::vector<core::FleetMetric>{
      core::FleetMetric::v6_byte_fraction};
  auto panel = core::compare_windows(result, metrics, core::DayWindow{0, 7},
                                     core::DayWindow{8, 15});
  ASSERT_EQ(panel.rows.size(), 1u);
  EXPECT_LT(panel.rows[0].median_a, panel.rows[0].median_b);
}

// ------------------------------------------- open-loop arrival shaping

TEST(TimelineParse, ArrivalShapingKindsParseWithTheirKeys) {
  auto ramp = Timeline::parse_event("lambda_ramp", "start=7 end=21 mult=3");
  ASSERT_TRUE(ramp.has_value());
  EXPECT_EQ(ramp->kind, TimelineEventKind::lambda_ramp);
  EXPECT_DOUBLE_EQ(ramp->mult, 3.0);

  auto crowd = Timeline::parse_event("flash_crowd",
                                     "day=4 hour=20 hours=2 mult=6");
  ASSERT_TRUE(crowd.has_value());
  EXPECT_EQ(crowd->kind, TimelineEventKind::flash_crowd);
  EXPECT_EQ(crowd->hour, 20);
  EXPECT_EQ(crowd->hour_span, 2);
  EXPECT_DOUBLE_EQ(crowd->mult, 6.0);
  // `hours` defaults to a single burst hour.
  EXPECT_EQ(Timeline::parse_event("flash_crowd", "day=1 hour=8 mult=2")
                ->hour_span, 1);

  // Required keys, ranges, and kind-applicability.
  EXPECT_FALSE(Timeline::parse_event("lambda_ramp", "day=1").has_value());
  EXPECT_FALSE(Timeline::parse_event("lambda_ramp", "day=1 mult=0").has_value());
  EXPECT_FALSE(
      Timeline::parse_event("lambda_ramp", "day=1 mult=17").has_value());
  EXPECT_FALSE(
      Timeline::parse_event("lambda_ramp", "day=1 mult=2 hour=3").has_value());
  EXPECT_FALSE(Timeline::parse_event("flash_crowd", "day=1 mult=2").has_value());
  EXPECT_FALSE(
      Timeline::parse_event("flash_crowd", "day=1 hour=20").has_value());
  EXPECT_FALSE(Timeline::parse_event("flash_crowd",
                                     "day=1 hour=24 mult=2").has_value());
  EXPECT_FALSE(Timeline::parse_event("flash_crowd",
                                     "day=1 hour=3 hours=0 mult=2").has_value());
  EXPECT_FALSE(Timeline::parse_event("flash_crowd",
                                     "day=1 hour=3 hours=25 mult=2").has_value());
  EXPECT_FALSE(Timeline::parse_event("outage", "day=1 mult=2").has_value());
  EXPECT_FALSE(Timeline::parse_event("seasonal", "hour=3").has_value());

  std::string error;
  Timeline::parse_event("lambda_ramp", "day=1", &error);
  EXPECT_NE(error.find("'mult' is required"), std::string::npos);
  Timeline::parse_event("flash_crowd", "day=1 mult=2", &error);
  EXPECT_NE(error.find("'hour' is required"), std::string::npos);
}

TEST(TimelineDayStateTest, LambdaRampClimbsLinearlyAndHolds) {
  Timeline tl;
  tl.events.push_back(
      *Timeline::parse_event("lambda_ramp", "start=4 end=7 mult=5"));
  ResidenceTraits base;
  double prev = 1.0;
  for (int day = 0; day < 12; ++day) {
    auto s = timeline_day_state(tl, 3, 0, day, 12, base);
    if (day < 4) {
      // Pre-window days must be *exactly* 1.0 — batch-mode bit identity
      // depends on the multiplier being the multiplicative identity.
      EXPECT_EQ(s.lambda_mult, 1.0) << "day " << day;
    } else {
      EXPECT_GE(s.lambda_mult, prev) << "ramp must never regress";
      EXPECT_LE(s.lambda_mult, 5.0);
    }
    prev = s.lambda_mult;
  }
  EXPECT_DOUBLE_EQ(timeline_day_state(tl, 3, 0, 7, 12, base).lambda_mult, 5.0);
  EXPECT_DOUBLE_EQ(timeline_day_state(tl, 3, 0, 11, 12, base).lambda_mult, 5.0);
}

TEST(TimelineDayStateTest, StackedRampsComposeAndClampAtSixteen) {
  Timeline tl;
  for (int i = 0; i < 3; ++i)
    tl.events.push_back(
        *Timeline::parse_event("lambda_ramp", "start=0 end=0 mult=8"));
  ResidenceTraits base;
  // 8^3 = 512 raw; the composite clamps to the documented ceiling.
  auto s = timeline_day_state(tl, 5, 0, 3, 6, base);
  EXPECT_DOUBLE_EQ(s.lambda_mult, 16.0);
}

TEST(TimelineDayStateTest, FlashCrowdsUnionHoursAndMultiplyIntensity) {
  Timeline tl;
  tl.events.push_back(
      *Timeline::parse_event("flash_crowd", "start=2 end=4 hour=20 hours=2 mult=3"));
  tl.events.push_back(
      *Timeline::parse_event("flash_crowd", "day=3 hour=21 hours=3 mult=2"));
  ResidenceTraits base;
  for (int day = 0; day < 6; ++day) {
    auto s = timeline_day_state(tl, 9, 0, day, 6, base);
    if (day < 2 || day > 4) {
      EXPECT_EQ(s.flash_hour_mask, 0u) << "day " << day;
      EXPECT_EQ(s.flash_mult, 1.0) << "day " << day;
    } else if (day == 3) {
      // Both crowds active: hours {20,21} ∪ {21,22,23}, intensity 3*2.
      EXPECT_EQ(s.flash_hour_mask,
                (1u << 20) | (1u << 21) | (1u << 22) | (1u << 23));
      EXPECT_DOUBLE_EQ(s.flash_mult, 6.0);
    } else {
      EXPECT_EQ(s.flash_hour_mask, (1u << 20) | (1u << 21)) << "day " << day;
      EXPECT_DOUBLE_EQ(s.flash_mult, 3.0) << "day " << day;
    }
  }
  // A span running past hour 23 drops the overflow instead of wrapping.
  Timeline late;
  late.events.push_back(
      *Timeline::parse_event("flash_crowd", "day=0 hour=23 hours=4 mult=2"));
  auto s = timeline_day_state(late, 9, 0, 0, 2, base);
  EXPECT_EQ(s.flash_hour_mask, 1u << 23);
}

}  // namespace
}  // namespace nbv6::engine
