#include "replay.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "des/simulation.h"

namespace mrcpbench {

using mrcp::Job;
using mrcp::JobId;
using mrcp::Plan;
using mrcp::PlannedTask;
using mrcp::ResourceId;
using mrcp::Time;

namespace {

/// Would MrcpRm solve `live` with the §V.D combined-resource model?
/// Mirrors the selection in MrcpRm::reschedule().
bool rm_uses_combined_model(const mrcp::MrcpConfig& config,
                            const mrcp::Cluster& cluster,
                            const std::vector<mrcp::LiveJob>& live) {
  bool links = false;
  for (const mrcp::Resource& r : cluster.resources()) links |= r.net_capacity > 0;
  for (const mrcp::LiveJob& lj : live) {
    for (const mrcp::LiveTask& lt : lj.tasks) {
      if (lt.res_req != 1 || (links && lt.net_demand > 0)) return false;
      if (!lt.candidates.empty() || !lt.racks.empty() ||
          lt.affinity_group >= 0 || !lt.anti_affinity_exclude.empty()) {
        return false;
      }
    }
  }
  return config.use_separation && cluster.uniform_speed_permille() > 0 &&
         config.replan_scope == mrcp::ReplanScope::kAllUnstarted;
}

// The event handlers below follow simulate_mrcp's own handlers (src/sim/)
// call for call, including the order in which events are scheduled: the
// DES breaks same-tick ties by scheduling order, so any deviation would
// hand the RM a different event sequence.
class Replayer {
 public:
  Replayer(const mrcp::Workload& w, const mrcp::MrcpConfig& config,
           const mrcp::sim::FaultConfig& faults, std::uint64_t capture_every,
           Tracer& tracer)
      : w_(w),
        config_(config),
        capture_every_(capture_every),
        tracer_(tracer),
        rm_(w.cluster, config),
        injector_(w.cluster.size(), faults, mrcp::sim::cluster_racks(w.cluster)) {
    MRCP_CHECK_MSG(!faults.stragglers_enabled(),
                   "the replay does not model stragglers");
    tasks_.resize(w.jobs.size());
    remaining_.resize(w.jobs.size());
    result_.records.resize(w.jobs.size());
    for (const Job& job : w.jobs) {
      const auto ji = static_cast<std::size_t>(job.id);
      MRCP_CHECK(ji < w.jobs.size());
      tasks_[ji].resize(job.num_tasks());
      remaining_[ji] = job.num_tasks();
      mrcp::sim::JobRecord& r = result_.records[ji];
      r.id = job.id;
      r.arrival = job.arrival_time;
      r.earliest_start = job.earliest_start;
      r.deadline = job.deadline;
    }
    jobs_left_ = w.jobs.size();
  }

  ReplayResult run() {
    Tracer::Scope span(tracer_, "sim.replay");
    injector_.start(
        des_, [this](ResourceId r, Time t) { on_resource_down(r, t); },
        [this](ResourceId r, Time t) { on_resource_up(r, t); });
    for (const Job& job : w_.jobs) schedule_arrival(job);
    des_.run();
    for (std::size_t left : remaining_) MRCP_CHECK_MSG(left == 0, "job did not finish");
    result_.wall_seconds = span.close();
    result_.stats = rm_.stats();
    result_.degradation = rm_.degradation_counts();
    return std::move(result_);
  }

 private:
  struct TaskState {
    mrcp::des::EventHandle end_event;
    bool started = false;
    bool completed = false;
    ResourceId resource = mrcp::kNoResource;
    Time start = mrcp::kNoTime;
    Time end = mrcp::kNoTime;
  };

  const Plan& timed_reschedule(Time now) {
    Tracer::Scope span(tracer_, "core.reschedule");
    const Plan& plan = rm_.reschedule(now);
    const double s = span.close();
    result_.reschedule_seconds.push_back(s);
    if (s >= config_.solve.time_limit_s) ++result_.budget_bound_calls;
    if (capture_every_ > 0 &&
        result_.reschedule_seconds.size() % capture_every_ == 0) {
      capture(plan, now);
    }
    return plan;
  }

  void schedule_arrival(const Job& job) {
    des_.schedule_at(job.arrival_time, [this, &job] {
      {
        Tracer::Scope span(tracer_, "core.submit");
        rm_.submit(job, des_.now());
      }
      apply_plan(timed_reschedule(des_.now()));
      update_deferral_wakeup();
    });
  }

  void schedule_task_end(JobId job_id, int task_index, Time end,
                         bool committed) {
    TaskState& ts = task(job_id, task_index);
    ts.end_event = des_.schedule_at(end, [this, job_id, task_index, committed] {
      if (!committed) task(job_id, task_index).started = true;
      on_task_end(job_id, task_index);
    });
  }

  void schedule_deferral_wakeup(Time at) {
    deferral_wakeup_ = des_.schedule_at(at, [this] {
      deferral_wakeup_at_ = mrcp::kNoTime;
      apply_plan(timed_reschedule(des_.now()));
      update_deferral_wakeup();
    });
  }

  void on_task_end(JobId job_id, int task_index) {
    TaskState& ts = task(job_id, task_index);
    MRCP_CHECK(ts.started && des_.now() == ts.end);
    ts.completed = true;
    const auto ji = static_cast<std::size_t>(job_id);
    MRCP_CHECK(remaining_[ji] > 0);
    if (--remaining_[ji] == 0) {
      mrcp::sim::finish_job_record(result_.records[ji], des_.now());
      MRCP_CHECK(jobs_left_ > 0);
      if (--jobs_left_ == 0) injector_.stop(des_);
    }
  }

  void apply_plan(const Plan& plan) {
    if (plan.parked_tasks > 0) {
      std::set<std::pair<JobId, int>> in_plan;
      for (const PlannedTask& pt : plan.tasks) in_plan.emplace(pt.job, pt.task_index);
      for (std::size_t ji = 0; ji < tasks_.size(); ++ji) {
        for (std::size_t ti = 0; ti < tasks_[ji].size(); ++ti) {
          TaskState& ts = tasks_[ji][ti];
          if (ts.started || !ts.end_event.pending()) continue;
          if (in_plan.count({static_cast<JobId>(ji), static_cast<int>(ti)})) continue;
          des_.cancel(ts.end_event);
          ts = TaskState{};
        }
      }
    }
    for (const PlannedTask& pt : plan.tasks) {
      TaskState& ts = task(pt.job, pt.task_index);
      if (ts.started) {
        MRCP_CHECK_MSG(ts.resource == pt.resource && ts.start == pt.start &&
                           ts.end == pt.end,
                       "RM moved a started task");
        continue;
      }
      if (ts.end_event.pending()) des_.cancel(ts.end_event);
      ts.started = pt.started;
      ts.resource = pt.resource;
      ts.start = pt.start;
      ts.end = pt.end;
      schedule_task_end(pt.job, pt.task_index, pt.end, /*committed=*/pt.started);
    }
  }

  void update_deferral_wakeup() {
    const Time next = rm_.next_deferred_release();
    if (next == deferral_wakeup_at_) return;
    if (deferral_wakeup_.pending()) des_.cancel(deferral_wakeup_);
    deferral_wakeup_at_ = next;
    if (next == mrcp::kNoTime) return;
    schedule_deferral_wakeup(std::max(next, des_.now()));
  }

  void on_resource_down(ResourceId r, Time t) {
    for (auto& job_tasks : tasks_) {
      for (TaskState& ts : job_tasks) {
        if (!ts.end_event.pending() || ts.resource != r) continue;
        const bool occupies = ts.start < t || (ts.started && ts.start == t);
        if (!occupies || ts.end <= t) continue;
        des_.cancel(ts.end_event);
        ts = TaskState{};
      }
    }
    {
      Tracer::Scope span(tracer_, "core.handle_resource_down");
      rm_.handle_resource_down(r, t);
    }
    apply_plan(timed_reschedule(t));
    update_deferral_wakeup();
  }

  void on_resource_up(ResourceId r, Time t) {
    {
      Tracer::Scope span(tracer_, "core.handle_resource_up");
      rm_.handle_resource_up(r, t);
    }
    apply_plan(timed_reschedule(t));
    update_deferral_wakeup();
  }

  /// Rebuild the live set a re-solve at `now` would see: every task of
  /// the published plan, the started ones pinned where they run.
  void capture(const Plan& plan, Time now) {
    if (plan.parked_tasks > 0 || plan.tasks.empty()) return;
    Tracer::Scope span(tracer_, "bench.capture");
    CapturedLiveSet cap;
    cap.cluster = w_.cluster;
    for (ResourceId r = 0; r < cap.cluster.size(); ++r) {
      if (injector_.is_down(r)) cap.cluster.set_resource_capacity(r, 0, 0);
    }
    std::map<JobId, std::vector<const PlannedTask*>> by_job;
    for (const PlannedTask& pt : plan.tasks) by_job[pt.job].push_back(&pt);
    for (const auto& [id, pts] : by_job) {
      const Job& job = w_.jobs[static_cast<std::size_t>(id)];
      const std::vector<TaskState>& states = tasks_[static_cast<std::size_t>(id)];
      // Hosts of completed anti-affinity siblings stay off-limits.
      std::map<int, std::vector<ResourceId>> burned;
      for (std::size_t ti = 0; ti < states.size(); ++ti) {
        const int group = job.task(ti).affinity_group;
        if (!states[ti].completed || group < 0) continue;
        auto& hosts = burned[group];
        if (std::find(hosts.begin(), hosts.end(), states[ti].resource) ==
            hosts.end()) {
          hosts.push_back(states[ti].resource);
        }
      }
      mrcp::LiveJob lj;
      lj.id = id;
      lj.effective_earliest_start = std::max(job.earliest_start, now);
      lj.deadline = job.deadline;
      std::set<int> live_indices;
      for (const PlannedTask* pt : pts) {
        const mrcp::Task& t = job.task(static_cast<std::size_t>(pt->task_index));
        mrcp::LiveTask lt;
        lt.task_index = pt->task_index;
        lt.type = t.type;
        lt.exec_time = t.exec_time;
        lt.res_req = t.res_req;
        lt.net_demand = t.net_demand;
        lt.candidates = t.candidates;
        lt.racks = t.racks;
        lt.affinity_group = t.affinity_group;
        if (t.affinity_group >= 0) {
          const auto it = burned.find(t.affinity_group);
          if (it != burned.end()) lt.anti_affinity_exclude = it->second;
        }
        if (pt->started) {
          lt.started = true;
          lt.resource = pt->resource;
          lt.start = pt->start;
        }
        lj.tasks.push_back(std::move(lt));
        live_indices.insert(pt->task_index);
      }
      for (const auto& [before, after] : job.precedences) {
        if (live_indices.count(before) && live_indices.count(after)) {
          lj.precedences.emplace_back(before, after);
        }
      }
      cap.live.push_back(std::move(lj));
    }
    cap.combined = rm_uses_combined_model(config_, cap.cluster, cap.live);
    cap.plan = plan;
    result_.captures.push_back(std::move(cap));
  }

  TaskState& task(JobId job, int index) {
    return tasks_[static_cast<std::size_t>(job)][static_cast<std::size_t>(index)];
  }

  const mrcp::Workload& w_;
  const mrcp::MrcpConfig& config_;
  std::uint64_t capture_every_;
  Tracer& tracer_;
  mrcp::des::Simulation des_;
  mrcp::MrcpRm rm_;
  mrcp::sim::FaultInjector injector_;
  ReplayResult result_;
  std::size_t jobs_left_ = 0;
  std::vector<std::vector<TaskState>> tasks_;
  std::vector<std::size_t> remaining_;
  mrcp::des::EventHandle deferral_wakeup_;
  Time deferral_wakeup_at_ = mrcp::kNoTime;
};

}  // namespace

ReplayResult replay_mrcp(const mrcp::Workload& workload,
                         const mrcp::MrcpConfig& config,
                         const mrcp::sim::FaultConfig& faults,
                         std::uint64_t capture_every, Tracer& tracer) {
  Replayer replayer(workload, config, faults, capture_every, tracer);
  return replayer.run();
}

}  // namespace mrcpbench
