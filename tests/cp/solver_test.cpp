#include "cp/solver.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mrcp::cp {
namespace {

SolveParams fast_params() {
  SolveParams p;
  p.improvement_fails = 5000;
  p.lns_iterations = 30;
  p.time_limit_s = 5.0;
  p.seed = 3;
  return p;
}

TEST(Solver, PortfolioFixesBadIdOrdering) {
  // The instance from search_test: job-id order alone leaves one late
  // job; the solver's EDF portfolio member finds the 0-late schedule.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});

  const SolveResult result = solve(m, fast_params());
  ASSERT_TRUE(result.best.valid);
  EXPECT_EQ(result.best.num_late, 0);
  EXPECT_TRUE(result.stats.proved_optimal);
  EXPECT_EQ(validate_solution(m, result.best), "");
}

TEST(Solver, EmptyModelSolves) {
  Model m;
  m.add_resource(1, 1);
  const SolveResult result = solve(m, fast_params());
  EXPECT_TRUE(result.best.valid);
  EXPECT_EQ(result.best.num_late, 0);
}

TEST(Solver, WarmStartNeverRegresses) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});
  const SolveResult first = solve(m, fast_params());
  const SolveResult second = solve(m, fast_params(), &first.best);
  EXPECT_LE(second.best.num_late, first.best.num_late);
}

TEST(Solver, DeterministicForSeed) {
  Model m;
  m.add_resource(2, 2);
  for (int i = 0; i < 6; ++i) {
    const CpJobIndex j = m.add_job(Time{0}, Time{150 + 10 * i}, i);
    m.add_task(j, Phase::kMap, Time{40 + 5 * i});
    m.add_task(j, Phase::kReduce, Time{20});
  }
  const SolveResult a = solve(m, fast_params());
  const SolveResult b = solve(m, fast_params());
  ASSERT_EQ(a.best.num_late, b.best.num_late);
  for (std::size_t i = 0; i < a.best.placements.size(); ++i) {
    EXPECT_EQ(a.best.placements[i].start, b.best.placements[i].start);
    EXPECT_EQ(a.best.placements[i].resource, b.best.placements[i].resource);
  }
}

TEST(Solver, LnsImprovesOverSinglePortfolioWhenHelpful) {
  // An instance where pure EDF is suboptimal: two tight-deadline jobs and
  // one mid-deadline short job that EDF wedges between them. We only
  // check the solver does at least as well as the plain EDF descent.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(a, Phase::kMap, Time{60});
  const CpJobIndex b = m.add_job(Time{0}, Time{130}, 1);
  m.add_task(b, Phase::kMap, Time{60});
  const CpJobIndex c = m.add_job(Time{0}, Time{260}, 2);
  m.add_task(c, Phase::kMap, Time{100});

  SetTimesSearch edf(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits greedy;
  greedy.max_fails = 0;
  greedy.stop_after_first_solution = true;
  SearchStats st;
  const Solution edf_sol = edf.run(greedy, nullptr, &st);

  const SolveResult result = solve(m, fast_params());
  EXPECT_LE(result.best.num_late, edf_sol.num_late);
  EXPECT_EQ(validate_solution(m, result.best), "");
}

TEST(Solver, HonoursPinnedTasks) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000}, 0);
  const CpTaskIndex t0 = m.add_task(j, Phase::kMap, Time{50});
  m.add_task(j, Phase::kMap, Time{10});
  m.pin_task(t0, 0, Time{100});
  const SolveResult result = solve(m, fast_params());
  EXPECT_EQ(result.best.placements[0].start, Time{100});
  EXPECT_EQ(validate_solution(m, result.best), "");
}

TEST(Solver, ReportsBestOrdering) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(j, Phase::kMap, Time{10});
  const SolveResult result = solve(m, fast_params());
  // Single job: first portfolio member (EDF) wins.
  EXPECT_EQ(result.stats.best_ordering, JobOrdering::kEdf);
}

TEST(Solver, SolveSecondsPopulated) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(j, Phase::kMap, Time{10});
  const SolveResult result = solve(m, fast_params());
  EXPECT_GE(result.stats.solve_seconds, 0.0);
  EXPECT_LT(result.stats.solve_seconds, 5.0);
}

// Portfolio early stop: once a member reaches the root's late lower bound
// (the statically late jobs) no later member can win the strictly-fewer
// fold, so the solve skips them and returns what running all nine would.

/// Three loose jobs on two machines: any list schedule meets every
/// deadline. With `hopeless` a fourth job's lone map outlasts its
/// deadline, so it is late at the root and in every leaf.
Model loose_model(bool hopeless) {
  Model m;
  m.add_resource(2, 1);
  m.add_resource(2, 1);
  for (int j = 0; j < 3; ++j) {
    const CpJobIndex cj = m.add_job(Time{10 * j}, Time{1000}, j);
    m.add_task(cj, Phase::kMap, Time{40});
    m.add_task(cj, Phase::kMap, Time{30});
    m.add_task(cj, Phase::kReduce, Time{20});
  }
  if (hopeless) {
    const CpJobIndex cj = m.add_job(Time{0}, Time{30}, 3);
    m.add_task(cj, Phase::kMap, Time{50});
  }
  return m;
}

SolveResult solve_with_threads(const Model& m, int num_threads) {
  SolveParams params = fast_params();
  params.num_threads = num_threads;
  params.time_limit_s = 60.0;  // must not bind
  return solve(m, params);
}

TEST(SolverEarlyStop, NoLateJobStopsAfterTheFirstMember) {
  const Model m = loose_model(false);
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(SearchRoot(m).late_lower_bound(), 0);
  const SolveResult r = solve_with_threads(m, 1);
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(r.best.num_late, 0);
  EXPECT_EQ(r.stats.members_run, 1);
  EXPECT_EQ(r.stats.best_ordering, JobOrdering::kEdf);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
}

TEST(SolverEarlyStop, StaticallyLateJobStopsAtTheRootBound) {
  const Model m = loose_model(true);
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(SearchRoot(m).late_lower_bound(), 1);
  const SolveResult r = solve_with_threads(m, 1);
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(r.best.num_late, 1);
  EXPECT_EQ(r.stats.members_run, 1);
  // B&B proves the bound at depth 0.
  EXPECT_TRUE(r.stats.proved_optimal);
  EXPECT_EQ(validate_solution(m, r.best), "");
}

TEST(SolverEarlyStop, RunsEveryMemberWhenNoneReachesTheBound) {
  // Two jobs that each fit alone but not together on one slot: one is
  // late in every schedule, yet neither is late at the root.
  Model m;
  m.add_resource(1, 1);
  for (int j = 0; j < 2; ++j) {
    const CpJobIndex cj = m.add_job(Time{0}, Time{60}, j);
    m.add_task(cj, Phase::kMap, Time{50});
  }
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(SearchRoot(m).late_lower_bound(), 0);
  const SolveResult r = solve_with_threads(m, 1);
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(r.best.num_late, 1);
  EXPECT_EQ(r.stats.members_run, 9);
}

TEST(SolverEarlyStop, SamePlanOnOneAndFourThreads) {
  for (bool hopeless : {false, true}) {
    const Model m = loose_model(hopeless);
    const SolveResult one = solve_with_threads(m, 1);
    const SolveResult four = solve_with_threads(m, 4);
    ASSERT_TRUE(one.best.valid);
    ASSERT_TRUE(four.best.valid);
    EXPECT_EQ(one.best.num_late, four.best.num_late);
    EXPECT_EQ(one.best.total_completion, four.best.total_completion);
    EXPECT_EQ(one.stats.best_ordering, four.stats.best_ordering);
    // On the pool path, members above the first one at the bound may
    // already have started, so only the plan must match.
    EXPECT_GE(four.stats.members_run, 1);
    ASSERT_EQ(one.best.placements.size(), four.best.placements.size());
    for (std::size_t t = 0; t < one.best.placements.size(); ++t) {
      EXPECT_EQ(one.best.placements[t].resource,
                four.best.placements[t].resource);
      EXPECT_EQ(one.best.placements[t].start, four.best.placements[t].start);
    }
  }
}

// Property sweep: random instances always yield valid solutions, and the
// solver never does worse than the plain EDF first descent.
class SolverRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverRandomProperty, AlwaysValidAndNoWorseThanEdf) {
  RandomStream rng(GetParam(), 0);
  Model m;
  const int num_resources = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < num_resources; ++r) {
    m.add_resource(static_cast<int>(rng.uniform_int(1, 3)),
                   static_cast<int>(rng.uniform_int(1, 3)));
  }
  const int num_jobs = static_cast<int>(rng.uniform_int(2, 8));
  for (int jj = 0; jj < num_jobs; ++jj) {
    const Time est{rng.uniform_int(0, 100)};
    Time work;
    const int maps = static_cast<int>(rng.uniform_int(1, 5));
    const int reduces = static_cast<int>(rng.uniform_int(0, 3));
    std::vector<Time> map_durs;
    std::vector<Time> reduce_durs;
    for (int t = 0; t < maps; ++t) {
      map_durs.push_back(Time{rng.uniform_int(5, 60)});
      work += map_durs.back();
    }
    for (int t = 0; t < reduces; ++t) {
      reduce_durs.push_back(Time{rng.uniform_int(5, 60)});
      work += reduce_durs.back();
    }
    // Deadlines between "tight" and "loose".
    const Time deadline = est + work / 2 + Time{rng.uniform_int(20, 200)};
    const CpJobIndex cj = m.add_job(est, deadline, jj);
    for (Time d : map_durs) m.add_task(cj, Phase::kMap, d);
    for (Time d : reduce_durs) m.add_task(cj, Phase::kReduce, d);
  }
  ASSERT_EQ(m.validate(), "");

  SetTimesSearch edf(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits greedy;
  greedy.max_fails = 0;
  greedy.stop_after_first_solution = true;
  SearchStats st;
  const Solution edf_sol = edf.run(greedy, nullptr, &st);
  ASSERT_TRUE(edf_sol.valid);

  SolveParams params = fast_params();
  params.seed = GetParam();
  const SolveResult result = solve(m, params);
  ASSERT_TRUE(result.best.valid);
  EXPECT_EQ(validate_solution(m, result.best), "");
  EXPECT_LE(result.best.num_late, edf_sol.num_late);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace mrcp::cp
