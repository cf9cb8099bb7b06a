// Incremental rescheduling epoch-scaling bench (docs/incremental.md).
//
// Measures per-invocation cost of ReplanScope::kDirtyOnly as a function
// of the dirty-set size at a fixed live-set size, against the Table 2
// full-rebuild baseline (kAllUnstarted), and emits
// BENCH_epoch_scaling.json for the perf-smoke CI gate.
//
// Protocol: N jobs (2 maps + 1 reduce each) are submitted at t=0 with a
// far-future earliest start, so nothing ever executes and the live set
// stays constant at 3N tasks while epochs advance. Each epoch marks a
// job window dirty via mark_dirty() and invokes reschedule(), which
// builds a fresh direct model with only the dirty jobs free:
//   - `repetitions` epochs per dirty fraction f;
//   - `repetitions` epochs of a rotating 10% window (every epoch a
//     different region), whose median gives speedup_10pct;
//   - a soak at 10% dirty for `soak-epochs` epochs.
// The full-rebuild baseline re-solves all 3N tasks per epoch under
// kAllUnstarted, `repetitions` times. It is measured twice: with the
// §V.D separation (combined model + matchmaker — the healthy-path
// default, reported as context) and with the direct per-resource model,
// which is the apples-to-apples baseline: a frozen boundary fragments
// concrete slots, so incremental mode can only ever solve the direct
// formulation, and speedup_10pct compares against the direct rebuild.
// Both numbers land in the JSON; see docs/incremental.md for when the
// combined full rebuild is the better deployment choice.
//
// Every timing is reported as the median, min and max over its epochs,
// next to the host's thread count and load average. The search's work
// counters (earliest-feasible queries, choice builds, expanded levels)
// come from one cp::solve of the direct model of the same live set:
// they do not vary with the host, so a change to the hot path shows in
// them without wall-clock noise.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/model_builder.h"
#include "core/mrcp_rm.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

using namespace mrcp;

namespace {

constexpr Time kEarliestStart = Time{1'000'000};  // far future: nothing starts
constexpr Time kEpochStep = Time{1'000};

Job make_bench_job(JobId id) {
  Job j;
  j.id = id;
  j.arrival_time = Time{0};
  j.earliest_start = kEarliestStart;
  j.deadline = kEarliestStart + Time{10'000'000};  // loose: lateness never binds
  auto task = [](TaskType type, Time exec_time) {
    Task t;
    t.type = type;
    t.exec_time = exec_time;
    return t;
  };
  j.map_tasks.push_back(task(TaskType::kMap, Time{800}));
  j.map_tasks.push_back(task(TaskType::kMap, Time{1200}));
  j.reduce_tasks.push_back(task(TaskType::kReduce, Time{1000}));
  return j;
}

cp::SolveParams bench_solve_params() {
  cp::SolveParams p;
  p.portfolio = {cp::JobOrdering::kEdf};  // one deterministic descent
  p.improvement_fails = 0;
  p.lns_iterations = 0;
  p.time_limit_s = 600.0;
  p.num_threads = 1;
  return p;
}

MrcpRm make_rm(int resources, int jobs, ReplanScope scope, bool separation,
               Time* t) {
  MrcpConfig config;
  config.replan_scope = scope;
  config.use_separation = separation;
  config.defer_future_jobs = false;  // far-future jobs must stay live
  config.solve = bench_solve_params();
  MrcpRm rm(Cluster::homogeneous(resources, 4, 4), config);
  for (JobId id = 0; id < jobs; ++id) rm.submit(make_bench_job(id), Time{0});
  *t = Time{0};
  rm.reschedule(*t);
  return rm;
}

/// Marks jobs [begin, end) dirty, advances time one epoch step, and
/// returns the reschedule() wall time.
double timed_epoch(MrcpRm& rm, Time* t, JobId begin, JobId end) {
  for (JobId id = begin; id < end; ++id) rm.mark_dirty(id);
  *t += kEpochStep;
  Stopwatch sw;
  rm.reschedule(*t);
  return sw.elapsed_seconds();
}

/// Median, min and max of a set of epoch times.
struct Timing {
  double median_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
};

Timing summarize(std::vector<double> samples) {
  MRCP_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  return Timing{samples[samples.size() / 2], samples.front(), samples.back()};
}

std::string timing_json(const Timing& t) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"median\": %.6f, \"min\": %.6f, \"max\": %.6f}", t.median_s,
                t.min_s, t.max_s);
  return buf;
}

/// Work counters of one direct-model solve of the whole live set, the
/// model a direct full rebuild solves.
cp::SolveStats direct_rebuild_counters(int resources, int jobs) {
  const Cluster cluster = Cluster::homogeneous(resources, 4, 4);
  std::vector<LiveJob> live;
  live.reserve(static_cast<std::size_t>(jobs));
  for (JobId id = 0; id < jobs; ++id) {
    const Job job = make_bench_job(id);
    LiveJob lj;
    lj.id = id;
    lj.effective_earliest_start = job.earliest_start;
    lj.deadline = job.deadline;
    for (std::size_t ti = 0; ti < job.num_tasks(); ++ti) {
      const Task& task = job.task(ti);
      LiveTask lt;
      lt.task_index = static_cast<int>(ti);
      lt.type = task.type;
      lt.exec_time = task.exec_time;
      lt.res_req = task.res_req;
      lj.tasks.push_back(lt);
    }
    live.push_back(std::move(lj));
  }
  const BuiltModel built = build_direct_model(cluster, live);
  return cp::solve(built.model, bench_solve_params()).stats;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("Incremental rescheduling: per-epoch cost vs dirty-set size");
  flags.add_int("jobs", 10000, "live jobs (3 tasks each)")
      .add_int("resources", 100, "cluster size")
      .add_int("repetitions", 9,
               "timed epochs per full-rebuild mode, dirty fraction and "
               "rotating window")
      .add_int("soak-epochs", 20, "10%-dirty soak epochs")
      .add_string("out", "BENCH_epoch_scaling.json", "JSON output path");
  if (!flags.parse(argc, argv)) return flags.ok() ? 0 : 1;

  const int jobs = static_cast<int>(flags.get_int("jobs"));
  const int resources = static_cast<int>(flags.get_int("resources"));
  const int reps = static_cast<int>(flags.get_int("repetitions"));
  const int soak_epochs = static_cast<int>(flags.get_int("soak-epochs"));
  MRCP_CHECK(jobs >= 100 && resources >= 1 && reps >= 1 && soak_epochs >= 1);
  double load_start[3] = {0.0, 0.0, 0.0};
  const bool have_load = getloadavg(load_start, 3) == 3;

  // ---- Full-rebuild baselines (kAllUnstarted) ----
  Timing full_combined;
  Timing full_direct;
  for (const bool separation : {true, false}) {
    Time t;
    MrcpRm rm = make_rm(resources, jobs, ReplanScope::kAllUnstarted,
                        separation, &t);
    std::vector<double> samples;
    for (int e = 0; e < reps; ++e) {
      t += kEpochStep;
      Stopwatch sw;
      rm.reschedule(t);
      samples.push_back(sw.elapsed_seconds());
    }
    (separation ? full_combined : full_direct) = summarize(samples);
  }
  std::printf("full rebuild (%d tasks, median of %d): combined %.4fs  "
              "direct %.4fs\n",
              jobs * 3, reps, full_combined.median_s, full_direct.median_s);

  const cp::SolveStats counters = direct_rebuild_counters(resources, jobs);
  const double queries_per_build =
      counters.choice_builds > 0
          ? static_cast<double>(counters.feasibility_queries) /
                static_cast<double>(counters.choice_builds)
          : 0.0;
  std::printf("direct rebuild work: %lld queries / %lld choice builds = %.2f "
              "per decision level, %lld levels expanded\n",
              static_cast<long long>(counters.feasibility_queries),
              static_cast<long long>(counters.choice_builds), queries_per_build,
              static_cast<long long>(counters.levels_expanded));

  // ---- Incremental (kDirtyOnly) ----
  Time t;
  Stopwatch init_sw;
  MrcpRm rm = make_rm(resources, jobs, ReplanScope::kDirtyOnly,
                      /*separation=*/false, &t);
  const double initial_full_s = init_sw.elapsed_seconds();

  struct FractionResult {
    double fraction = 0.0;
    JobId dirty_jobs = 0;
    Timing epoch;
  };
  const std::vector<double> fractions = {0.01, 0.05, 0.10, 0.25, 0.50, 1.00};
  std::vector<FractionResult> results;
  for (const double f : fractions) {
    FractionResult r;
    r.fraction = f;
    r.dirty_jobs = static_cast<JobId>(f * jobs);
    std::vector<double> samples;
    for (int e = 0; e < reps; ++e) {
      samples.push_back(timed_epoch(rm, &t, 0, r.dirty_jobs));
    }
    r.epoch = summarize(samples);
    std::printf("dirty %5.0f%% (%ld jobs): %.4fs\n", f * 100,
                static_cast<long>(r.dirty_jobs), r.epoch.median_s);
    results.push_back(r);
  }

  // Rotating 10% window: a different region each epoch.
  const JobId window = static_cast<JobId>(jobs / 10);
  std::vector<double> rotating_samples;
  for (int e = 0; e < reps; ++e) {
    const JobId begin = (static_cast<JobId>(e) * window) %
                        static_cast<JobId>(jobs - window + 1);
    rotating_samples.push_back(timed_epoch(rm, &t, begin, begin + window));
  }
  const Timing rotating_10pct = summarize(rotating_samples);
  std::printf("rotating 10%%: %.4fs\n", rotating_10pct.median_s);

  // Soak: sustained same-window 10%-dirty epochs at the full live size.
  std::vector<double> soak_samples;
  for (int e = 0; e < soak_epochs; ++e) {
    soak_samples.push_back(timed_epoch(rm, &t, 0, window));
  }
  double soak_total = 0.0;
  for (const double s : soak_samples) soak_total += s;
  const double soak_mean_s = soak_total / static_cast<double>(soak_epochs);
  const Timing soak = summarize(soak_samples);
  std::printf("soak (%d epochs at 10%%): mean %.4fs  max %.4fs\n", soak_epochs,
              soak_mean_s, soak.max_s);

  const MrcpStats& st = rm.stats();
  MRCP_CHECK_MSG(st.dirty_promotions == 0,
                 "dirty-set bookkeeping missed an event");
  // Ratio of medians: the perf-smoke gate's input.
  const double speedup = rotating_10pct.median_s > 0.0
                             ? full_direct.median_s / rotating_10pct.median_s
                             : 0.0;
  std::printf("speedup at 10%% dirty: %.1fx\n", speedup);
  double load_end[3] = {0.0, 0.0, 0.0};
  const bool have_load_end = getloadavg(load_end, 3) == 3;

  const std::string out = flags.get_string("out");
  FILE* fp = std::fopen(out.c_str(), "w");
  MRCP_CHECK_MSG(fp != nullptr, "cannot open bench output file");
  std::fprintf(fp, "{\n");
  std::fprintf(fp, "  \"bench\": \"epoch_scaling\",\n");
  std::fprintf(fp, "  \"hardware_threads\": %d,\n",
               ThreadPool::resolve_num_threads(0));
  if (have_load) {
    std::fprintf(fp, "  \"loadavg_start\": [%.2f, %.2f, %.2f],\n",
                 load_start[0], load_start[1], load_start[2]);
  }
  if (have_load_end) {
    std::fprintf(fp, "  \"loadavg_end\": [%.2f, %.2f, %.2f],\n", load_end[0],
                 load_end[1], load_end[2]);
  }
  std::fprintf(fp, "  \"repetitions\": %d,\n", reps);
  std::fprintf(fp, "  \"live_jobs\": %d,\n", jobs);
  std::fprintf(fp, "  \"live_tasks\": %d,\n", jobs * 3);
  std::fprintf(fp, "  \"resources\": %d,\n", resources);
  std::fprintf(fp, "  \"initial_full_s\": %.6f,\n", initial_full_s);
  std::fprintf(fp, "  \"full_rebuild_combined_s\": %.6f,\n",
               full_combined.median_s);
  std::fprintf(fp, "  \"full_rebuild_combined\": %s,\n",
               timing_json(full_combined).c_str());
  std::fprintf(fp, "  \"full_rebuild_direct_s\": %.6f,\n", full_direct.median_s);
  std::fprintf(fp, "  \"full_rebuild_direct\": %s,\n",
               timing_json(full_direct).c_str());
  std::fprintf(fp, "  \"full_rebuild_s\": %.6f,\n", full_direct.median_s);
  std::fprintf(fp,
               "  \"direct_rebuild_work\": {\"decisions\": %lld, "
               "\"feasibility_queries\": %lld, \"choice_builds\": %lld, "
               "\"levels_expanded\": %lld, \"queries_per_build\": %.3f},\n",
               static_cast<long long>(counters.decisions),
               static_cast<long long>(counters.feasibility_queries),
               static_cast<long long>(counters.choice_builds),
               static_cast<long long>(counters.levels_expanded),
               queries_per_build);
  std::fprintf(fp, "  \"fractions\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FractionResult& r = results[i];
    std::fprintf(fp,
                 "    {\"fraction\": %.2f, \"dirty_jobs\": %ld, "
                 "\"epoch_s\": %.6f, \"epoch\": %s}%s\n",
                 r.fraction, static_cast<long>(r.dirty_jobs), r.epoch.median_s,
                 timing_json(r.epoch).c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(fp, "  ],\n");
  std::fprintf(fp, "  \"rotating_10pct_s\": %.6f,\n", rotating_10pct.median_s);
  std::fprintf(fp, "  \"rotating_10pct\": %s,\n",
               timing_json(rotating_10pct).c_str());
  std::fprintf(fp,
               "  \"soak\": {\"epochs\": %d, \"mean_s\": %.6f, "
               "\"median_s\": %.6f, \"min_s\": %.6f, \"max_s\": %.6f},\n",
               soak_epochs, soak_mean_s, soak.median_s, soak.min_s, soak.max_s);
  std::fprintf(fp, "  \"dirty_promotions\": %llu,\n",
               static_cast<unsigned long long>(st.dirty_promotions));
  std::fprintf(fp, "  \"speedup_10pct\": %.2f\n", speedup);
  std::fprintf(fp, "}\n");
  std::fclose(fp);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
