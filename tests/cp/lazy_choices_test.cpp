// Set-times search picks, at every decision, the machine that completes
// the task earliest (then the earliest start, then the fastest machine,
// then the lowest index), but builds the full sorted choice list only
// when the search returns to a level. Three properties pin that down on
// seeded direct models with heterogeneous speeds, unsorted candidate
// lists, anti-affinity groups, pinned tasks and net-constrained
// resources:
//
//   * FirstDescentTakesEarliestCompletionMachine replays each first
//     descent against audit::ReferenceProfile timetables and checks
//     every placement against all eligible machines at its decision
//     point;
//   * SolveDigestMatchesGolden hashes full cp::solve runs (B&B with
//     postponed starts, then LNS) into two digests: a plan digest over
//     placements, late counts, total completions and statuses, and a
//     counter digest over decisions/fails/solutions. Any change to the
//     search tree changes the counter digest; only a change to what the
//     solver returns changes the plan digest (the portfolio's early stop
//     at the root's late lower bound changes the counters, not the
//     plans);
//   * UniformSpeedSolveDigestMatchesGolden runs the same solves with
//     every machine at baseline speed. Its plan digest was recorded when
//     choices were ordered by (start, index): on uniform speeds the
//     completion order reduces to that, and the plans are unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "cp/audit.h"
#include "cp/model.h"
#include "cp/search.h"
#include "cp/solver.h"

namespace mrcp::cp {
namespace {

/// Counter-based draws (splitmix64): the generated models, and with them
/// the golden digest, do not depend on the standard library's
/// distributions.
struct Draw {
  std::uint64_t state;
  std::int64_t in(std::int64_t lo, std::int64_t hi) {
    state = splitmix64(state);
    return lo + static_cast<std::int64_t>(
                    state % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool chance(int percent) { return in(0, 99) < percent; }
};

constexpr int kSpeeds[] = {500, 750, 1000, 1500, 2000};

/// A valid direct model: 3-10 machines with mixed speeds and 1-3 slots
/// per phase, about half of the seeds with link capacities; 3-7 jobs of
/// 1-4 maps and 0-3 reduces with unit slot demand. Candidate lists are
/// shuffled subsets (sometimes with a repeated entry), two or three
/// tasks of a job may share an anti-affinity group (full candidate set),
/// and a job's first map may be pinned at its earliest start.
/// With `uniform_speeds` every machine runs at baseline speed; the draws
/// (and so everything else about the model) stay the same.
Model generate_model(std::uint64_t seed, bool uniform_speeds = false) {
  Draw d{seed * 0x9E3779B97F4A7C15ULL + 0x1A2Bu};
  Model m;
  const int num_resources = static_cast<int>(d.in(3, 10));
  const bool links = d.chance(50);
  for (int r = 0; r < num_resources; ++r) {
    // In a links-constrained cluster machine 0 covers every net demand.
    const int net_capacity = !links ? 0 : r == 0 ? 3 : static_cast<int>(d.in(1, 3));
    const int map_capacity = static_cast<int>(d.in(1, 3));
    const int reduce_capacity = static_cast<int>(d.in(1, 3));
    const int speed = kSpeeds[d.in(0, 4)];
    m.add_resource(map_capacity, reduce_capacity, net_capacity,
                   uniform_speeds ? kBaseSpeedPermille : speed);
  }

  bool pinned = false;
  const int num_jobs = static_cast<int>(d.in(3, 7));
  for (int ji = 0; ji < num_jobs; ++ji) {
    const Time est{d.in(0, 30)};
    const int num_maps = static_cast<int>(d.in(1, 4));
    const int num_reduces = static_cast<int>(d.in(0, 3));
    std::vector<Time> durs;
    Time work;
    for (int k = 0; k < num_maps + num_reduces; ++k) {
      durs.push_back(Time{d.in(2, 20)});
      work += durs.back();
    }
    // Slack from 0.3x to 1.5x of the job's serial base work: tight enough
    // that some jobs are late and the improvement phases backtrack.
    const Time deadline = est + (work * d.in(3, 15)) / 10;
    const CpJobIndex j = m.add_job(est, deadline, ji);
    // Group members take no net demand: only machine 0 is sure to host
    // one, and members need distinct machines.
    const int grouped =
        num_maps + num_reduces >= 2 && d.chance(35)
            ? std::min({num_maps + num_reduces, 3, num_resources})
            : 0;
    std::vector<CpTaskIndex> tasks;
    for (int k = 0; k < num_maps + num_reduces; ++k) {
      const Phase phase = k < num_maps ? Phase::kMap : Phase::kReduce;
      const int net = links && k >= grouped && d.chance(40)
                          ? static_cast<int>(d.in(1, 3))
                          : 0;
      tasks.push_back(m.add_task(j, phase, durs[static_cast<std::size_t>(k)],
                                 1, -1, net));
    }
    if (grouped > 0) {
      const int group = m.num_affinity_groups();
      for (int k = 0; k < grouped; ++k) {
        m.set_affinity_group(tasks[static_cast<std::size_t>(k)], group);
      }
    }
    for (std::size_t k = static_cast<std::size_t>(grouped); k < tasks.size();
         ++k) {
      if (!d.chance(45)) continue;
      std::vector<CpResourceIndex> list;
      for (CpResourceIndex r = 0; r < num_resources; ++r) {
        if (d.chance(50)) list.push_back(r);
      }
      // Machine 0 hosts every net demand, so a restricted list keeps it.
      if (list.empty() || m.task(tasks[k]).net_demand > 0) {
        if (std::find(list.begin(), list.end(), 0) == list.end()) {
          list.push_back(0);
        }
      }
      for (std::size_t i = list.size(); i > 1; --i) {
        std::swap(list[i - 1],
                  list[static_cast<std::size_t>(
                      d.in(0, static_cast<std::int64_t>(i) - 1))]);
      }
      if (d.chance(15)) list.push_back(list.front());
      m.restrict_candidates(tasks[k], list);
    }
    // At most one pinned task per model, so pins never overlap.
    if (!pinned && grouped == 0 && d.chance(15)) {
      const CpTask& first = m.task(tasks.front());
      const CpResourceIndex r =
          first.candidates.empty() ? 0 : first.candidates.front();
      if (first.net_demand <= m.resource(r).net_capacity || !links) {
        m.pin_task(tasks.front(), r, est);
        pinned = true;
      }
    }
  }
  return m;
}

std::vector<CpTaskIndex> preference_order(const Model& m,
                                          const std::vector<int>& ranks,
                                          const std::vector<std::uint8_t>& lpt) {
  std::vector<CpTaskIndex> order;
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    if (!m.task(static_cast<CpTaskIndex>(t)).pinned) {
      order.push_back(static_cast<CpTaskIndex>(t));
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](CpTaskIndex a, CpTaskIndex b) {
    const CpTask& ta = m.task(a);
    const CpTask& tb = m.task(b);
    const auto ja = static_cast<std::size_t>(ta.job);
    const auto jb = static_cast<std::size_t>(tb.job);
    if (ranks[ja] != ranks[jb]) return ranks[ja] < ranks[jb];
    if (ta.phase != tb.phase) return ta.phase == Phase::kMap;
    if (lpt[ja] != 0 && ta.duration != tb.duration) {
      return ta.duration > tb.duration;
    }
    return a < b;
  });
  return order;
}

/// The reference machine-choice key: (end, start, speed descending,
/// index).
struct ChoiceKey {
  Time end;
  Time start;
  int speed;
  CpResourceIndex resource;
  bool operator<(const ChoiceKey& o) const {
    if (end != o.end) return end < o.end;
    if (start != o.start) return start < o.start;
    if (speed != o.speed) return speed > o.speed;
    return resource < o.resource;
  }
};

TEST(LazyChoices, FirstDescentTakesEarliestCompletionMachine) {
  constexpr JobOrdering kOrderings[] = {JobOrdering::kEdf,
                                        JobOrdering::kLeastLaxity,
                                        JobOrdering::kJobId, JobOrdering::kFcfs};
  int models = 0;
  int restricted = 0;
  int grouped = 0;
  int net = 0;
  std::int64_t at_est = 0;
  std::int64_t not_earliest_start = 0;  // a later start finishes first
  std::int64_t speed_ties = 0;  // (end, start) tie broken by speed
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const Model m = generate_model(seed);
    ASSERT_EQ(m.validate(), "") << "seed " << seed;
    ++models;
    Draw d{seed ^ 0x5EEDu};
    const std::vector<int> ranks = make_job_ranks(m, kOrderings[seed % 4]);
    std::vector<std::uint8_t> lpt(m.num_jobs());
    for (auto& f : lpt) f = d.chance(50) ? 1 : 0;

    SetTimesSearch search(m, ranks, lpt);
    SearchLimits limits;
    limits.max_fails = 0;
    limits.postpone_tries = 0;
    limits.stop_after_first_solution = true;
    limits.time_limit_s = 60.0;
    SearchStats st;
    const Solution sol = search.run(limits, nullptr, &st);
    ASSERT_TRUE(sol.valid) << "seed " << seed;
    ASSERT_EQ(validate_solution(m, sol), "") << "seed " << seed;

    // Reference replay: same decision order, O(n^2) reference timetables.
    std::vector<audit::ReferenceProfile> slots;
    std::vector<audit::ReferenceProfile> links;
    for (const CpResource& r : m.resources()) {
      slots.emplace_back(std::max(1, r.map_capacity));
      slots.emplace_back(std::max(1, r.reduce_capacity));
      links.emplace_back(std::max(1, r.net_capacity));
    }
    std::vector<std::vector<int>> group_use(
        static_cast<std::size_t>(m.num_affinity_groups()),
        std::vector<int>(m.num_resources(), 0));
    std::vector<Time> map_end(m.num_jobs());
    for (std::size_t j = 0; j < m.num_jobs(); ++j) {
      map_end[j] = m.job(static_cast<CpJobIndex>(j)).earliest_start;
    }
    auto place = [&](CpTaskIndex ti, CpResourceIndex r, Time start) {
      const CpTask& t = m.task(ti);
      const Time dur = m.duration_on(ti, r);
      slots[static_cast<std::size_t>(r) * 2 + static_cast<std::size_t>(t.phase)]
          .add(start, dur, t.demand);
      if (t.net_demand > 0 && m.resource(r).net_capacity > 0) {
        links[static_cast<std::size_t>(r)].add(start, dur, t.net_demand);
      }
      if (t.affinity_group >= 0) {
        ++group_use[static_cast<std::size_t>(t.affinity_group)]
                   [static_cast<std::size_t>(r)];
      }
      if (t.phase == Phase::kMap) {
        Time& e = map_end[static_cast<std::size_t>(t.job)];
        e = std::max(e, start + dur);
      }
    };
    for (std::size_t ti = 0; ti < m.num_tasks(); ++ti) {
      const CpTask& t = m.task(static_cast<CpTaskIndex>(ti));
      if (t.pinned) {
        place(static_cast<CpTaskIndex>(ti), t.pinned_resource, t.pinned_start);
      }
    }

    std::int64_t eligible_total = 0;
    const std::vector<CpTaskIndex> order = preference_order(m, ranks, lpt);
    for (CpTaskIndex ti : order) {
      const CpTask& t = m.task(ti);
      const CpJob& job = m.job(t.job);
      const Time est = t.phase == Phase::kMap
                           ? job.earliest_start
                           : std::max(job.earliest_start,
                                      map_end[static_cast<std::size_t>(t.job)]);
      CpResourceIndex best_r = kAnyResource;
      ChoiceKey best{};
      Time min_start = kMaxTime;
      for (CpResourceIndex r = 0;
           r < static_cast<CpResourceIndex>(m.num_resources()); ++r) {
        const CpResource& res = m.resource(r);
        if (!t.candidates.empty() &&
            std::find(t.candidates.begin(), t.candidates.end(), r) ==
                t.candidates.end()) {
          continue;
        }
        if (res.capacity(t.phase) < t.demand) continue;
        if (t.net_demand > 0 && m.links_constrained() &&
            res.net_capacity < t.net_demand) {
          continue;
        }
        if (t.affinity_group >= 0 &&
            group_use[static_cast<std::size_t>(t.affinity_group)]
                     [static_cast<std::size_t>(r)] > 0) {
          continue;
        }
        ++eligible_total;
        const Time dur = m.duration_on(ti, r);
        const auto& slot = slots[static_cast<std::size_t>(r) * 2 +
                                 static_cast<std::size_t>(t.phase)];
        // Earliest start feasible on both the slot and the link timetable.
        Time start = est;
        while (true) {
          const Time s1 = slot.earliest_feasible(start, dur, t.demand);
          const Time s2 =
              t.net_demand > 0 && res.net_capacity > 0
                  ? links[static_cast<std::size_t>(r)].earliest_feasible(
                        s1, dur, t.net_demand)
                  : s1;
          start = s2;
          if (s2 == s1) break;
        }
        min_start = std::min(min_start, start);
        const ChoiceKey key{start + dur, start, res.speed_permille, r};
        if (best_r != kAnyResource && key.end == best.end &&
            key.start == best.start && key.speed != best.speed) {
          ++speed_ties;
        }
        if (best_r == kAnyResource || key < best) {
          best_r = r;
          best = key;
        }
      }
      ASSERT_NE(best_r, kAnyResource) << "seed " << seed << " task " << ti;
      const TaskPlacement& got = sol.placements[static_cast<std::size_t>(ti)];
      ASSERT_EQ(got.resource, best_r) << "seed " << seed << " task " << ti;
      ASSERT_EQ(got.start, best.start) << "seed " << seed << " task " << ti;
      place(ti, best_r, best.start);
      if (best.start == est) ++at_est;
      if (best.start != min_start) ++not_earliest_start;
      if (!t.candidates.empty()) ++restricted;
    }

    // A first descent scans each level once, never expands one, and asks
    // at most one query per eligible machine (no links) — fewer once a
    // machine's lower bound cannot beat the best.
    EXPECT_EQ(st.choice_builds, static_cast<std::int64_t>(order.size()));
    EXPECT_EQ(st.levels_expanded, 0);
    if (!m.links_constrained()) {
      EXPECT_LE(st.feasibility_queries, eligible_total) << "seed " << seed;
    }
    grouped += m.num_affinity_groups() > 0 ? 1 : 0;
    net += m.links_constrained() ? 1 : 0;
  }
  EXPECT_GE(models, 200);
  // The generator must actually cover every constraint kind.
  EXPECT_GT(restricted, 200);
  EXPECT_GT(grouped, 40);
  EXPECT_GT(net, 40);
  EXPECT_GT(at_est, 200);
  // The models must exercise both halves of the key: a faster machine
  // that starts later but ends first, and equal scaled durations.
  EXPECT_GT(not_earliest_start, 20);
  EXPECT_GT(speed_ties, 0);
  std::printf("%lld placements not at the earliest start, %lld speed ties\n",
              static_cast<long long>(not_earliest_start),
              static_cast<long long>(speed_ties));
}

TEST(LazyChoices, EqualScaledDurationsTieToTheFasterMachine) {
  // A base duration of 4 runs 3 ticks at 1400 and at 1500 permille
  // (durations round up). Both machines are free at the job's start, so
  // (end, start) ties; the faster machine wins although its index is
  // higher, and the scan stops before querying the slower one: its lower
  // bound equals the best and comes later in the visit order.
  Model m;
  m.add_resource(1, 1, 0, 1400);
  m.add_resource(1, 1, 0, 1500);
  m.add_resource(1, 1, 0, 500);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 0);
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{4});
  ASSERT_EQ(m.duration_on(t, 0), m.duration_on(t, 1));
  ASSERT_EQ(m.validate(), "");

  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits limits;
  limits.stop_after_first_solution = true;
  SearchStats st;
  const Solution sol = search.run(limits, nullptr, &st);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].resource, 1);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].start, Time{0});
  EXPECT_EQ(st.feasibility_queries, 1);
}

TEST(LazyChoices, FasterMachineThatStartsLaterWins) {
  // Machine 0 (half speed) is free at 0; machine 1 (double speed) is busy
  // until 10 with a pinned map. A 20-tick map ends at 40 on machine 0 and
  // at 10 + 10 = 20 on machine 1, so it goes to machine 1.
  Model m;
  m.add_resource(1, 1, 0, 500);
  m.add_resource(1, 1, 0, 2000);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{100}, 0);
  const CpTaskIndex pinned = m.add_task(j0, Phase::kMap, Time{20});
  m.pin_task(pinned, 1, Time{0});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{100}, 1);
  const CpTaskIndex t = m.add_task(j1, Phase::kMap, Time{20});
  ASSERT_EQ(m.validate(), "");

  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits limits;
  limits.stop_after_first_solution = true;
  const Solution sol = search.run(limits, nullptr, nullptr);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].resource, 1);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].start, Time{10});
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
};

/// Digests of 120 seeded cp::solve runs; see the file comment.
struct SolveDigests {
  std::uint64_t plan;
  std::uint64_t counters;
};

SolveDigests solve_digests(bool uniform_speeds) {
  Digest plan;
  Digest counters;
  std::int64_t total_fails = 0;
  int solves_with_fails = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Model m = generate_model(seed + 1000, uniform_speeds);
    EXPECT_EQ(m.validate(), "") << "seed " << seed;
    SolveParams params;
    params.improvement_fails = 300;
    params.postpone_tries = 2;
    params.lns_iterations = 12;
    params.time_limit_s = 600.0;  // never binds: the tree is budget-free
    params.seed = seed;
    params.num_threads = 1;
    const SolveResult r = solve(m, params);
    EXPECT_TRUE(r.best.valid) << "seed " << seed;
    for (const TaskPlacement& p : r.best.placements) {
      plan.add(p.resource);
      plan.add(p.start.count());
    }
    plan.add(r.best.num_late);
    plan.add(r.best.total_completion.count());
    plan.add(static_cast<int>(r.status));
    counters.add(r.stats.decisions);
    counters.add(r.stats.fails);
    counters.add(r.stats.solutions);
    total_fails += r.stats.fails;
    solves_with_fails += r.stats.fails > 0 ? 1 : 0;
  }
  std::printf("plan digest %016llx, counter digest %016llx, fails %lld over "
              "%d solves\n",
              static_cast<unsigned long long>(plan.h),
              static_cast<unsigned long long>(counters.h),
              static_cast<long long>(total_fails), solves_with_fails);
  EXPECT_GT(solves_with_fails, 30);
  return SolveDigests{plan.h, counters.h};
}

TEST(LazyChoices, SolveDigestMatchesGolden) {
  const SolveDigests d = solve_digests(false);
  EXPECT_EQ(d.plan, 0x87203F1D93EFEC63ULL);
  EXPECT_EQ(d.counters, 0x54A86DA064792B90ULL);
}

TEST(LazyChoices, UniformSpeedSolveDigestMatchesGolden) {
  const SolveDigests d = solve_digests(true);
  EXPECT_EQ(d.plan, 0x20AA0491D27E667CULL);
  EXPECT_EQ(d.counters, 0xBD539433F740A18DULL);
}

}  // namespace
}  // namespace mrcp::cp
