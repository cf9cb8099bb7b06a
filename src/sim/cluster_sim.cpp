#include "sim/cluster_sim.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "baseline/minedf_wc.h"
#include "common/check.h"
#include "des/simulation.h"
#include "sim/sim_internal.h"

namespace mrcp::sim {

namespace internal {

std::vector<JobRecord> make_records(const Workload& workload) {
  std::vector<JobRecord> records(workload.jobs.size());
  for (const Job& job : workload.jobs) {
    // validate_workload guarantees dense in-order ids; keep the bound
    // explicit so a caller bypassing validation fails loudly, not UB.
    MRCP_CHECK_MSG(
        job.id >= 0 && static_cast<std::size_t>(job.id) < records.size(),
        "job id out of range (ids must be dense)");
    JobRecord& r = records[static_cast<std::size_t>(job.id)];
    r.id = job.id;
    r.arrival = job.arrival_time;
    r.earliest_start = job.earliest_start;
    r.deadline = job.deadline;
  }
  return records;
}

}  // namespace internal

namespace {

using internal::make_records;

bool cluster_constrains_links(const Cluster& cluster) {
  for (const Resource& r : cluster.resources()) {
    if (r.net_capacity > 0) return true;
  }
  return false;
}

}  // namespace

std::string validate_execution(const Workload& workload,
                               const std::vector<ExecutedTask>& executed,
                               const std::vector<ExecutedTask>& killed,
                               const std::vector<DownInterval>& downtime) {
  // Job j's tasks have the dense indices [first_task[j], first_task[j+1]).
  std::vector<std::size_t> first_task(workload.jobs.size() + 1, 0);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    first_task[j + 1] = first_task[j] + workload.jobs[j].num_tasks();
  }
  // Every task of every job executed successfully exactly once (killed
  // attempts are extra occupancy on top, never a completion).
  const std::size_t expected = first_task.back();
  if (executed.size() != expected) {
    std::ostringstream os;
    os << "executed " << executed.size() << " tasks, expected " << expected;
    return os.str();
  }
  // When any resource constrains its links, a net-demanding task *must*
  // be swept against its resource's link capacity — a zero-capacity
  // resource then has no room for it (rather than silently skipping).
  const bool links_constrained = cluster_constrains_links(workload.cluster);
  // Flat arrays rather than node-based maps: the validator walks every
  // executed task of a run, and its cost should not hinge on how warm
  // the cache is for hundreds of thousands of tree nodes.
  std::vector<const ExecutedTask*> by_task(expected, nullptr);
  std::vector<Time> latest_map_end(workload.jobs.size(), kNoTime);
  // Occupancy steps per (resource, slot kind, time); kind 2 is the link.
  struct Delta {
    ResourceId resource;
    int kind;
    Time time;
    int amount;
  };
  std::vector<Delta> deltas;
  deltas.reserve(2 * (executed.size() + killed.size()));
  auto occupy = [&](const ExecutedTask& et, const Task& task) {
    const int kind = static_cast<int>(task.type);
    deltas.push_back({et.resource, kind, et.start, task.res_req});
    deltas.push_back({et.resource, kind, et.end, -task.res_req});
    if (task.net_demand > 0 && links_constrained) {
      deltas.push_back({et.resource, 2, et.start, task.net_demand});
      deltas.push_back({et.resource, 2, et.end, -task.net_demand});
    }
  };

  for (const ExecutedTask& et : executed) {
    auto fail = [&et](const char* what) {
      return "job " + std::to_string(et.job) + " task " +
             std::to_string(et.task_index) + ": " + what;
    };
    if (et.job < 0 || static_cast<std::size_t>(et.job) >= workload.jobs.size()) {
      return fail("unknown job");
    }
    const auto j = static_cast<std::size_t>(et.job);
    const Job& job = workload.jobs[j];
    if (et.task_index < 0 ||
        static_cast<std::size_t>(et.task_index) >= job.num_tasks()) {
      return fail("bad task index");
    }
    const ExecutedTask*& slot =
        by_task[first_task[j] + static_cast<std::size_t>(et.task_index)];
    if (slot != nullptr) return fail("executed twice");
    slot = &et;
    const Task& task = job.task(static_cast<std::size_t>(et.task_index));
    if (et.resource < 0 || et.resource >= workload.cluster.size()) {
      return fail("bad resource");
    }
    const Resource& host = workload.cluster.resource(et.resource);
    // A task's observed duration is its exec time scaled by the host's
    // speed factor — a fast machine must finish early, a slow one late.
    if (et.end - et.start != host.scaled_duration(task.exec_time)) {
      return fail("wrong duration for the host's speed");
    }
    if (et.start < job.earliest_start) {
      return fail("started before s_j");
    }
    if (!task.candidates.empty() &&
        std::find(task.candidates.begin(), task.candidates.end(),
                  et.resource) == task.candidates.end()) {
      return fail("ran outside its candidate resources");
    }
    if (!task.racks.empty() &&
        std::find(task.racks.begin(), task.racks.end(), host.rack) ==
            task.racks.end()) {
      return fail("ran outside its eligible racks");
    }
    occupy(et, task);
    if (task.type == TaskType::kMap) {
      latest_map_end[j] = std::max(latest_map_end[j], et.end);
    }
  }

  // Downtime intervals, grouped per resource.
  std::vector<std::vector<const DownInterval*>> down_by_res(
      static_cast<std::size_t>(workload.cluster.size()));
  for (const DownInterval& d : downtime) {
    if (d.resource < 0 || d.resource >= workload.cluster.size()) {
      return "downtime interval with bad resource";
    }
    if (d.end != kNoTime && d.end <= d.start) {
      return "downtime interval with non-positive length";
    }
    down_by_res[static_cast<std::size_t>(d.resource)].push_back(&d);
  }

  // Killed attempts: partial occupancy ending exactly at a failure of
  // their resource. They join the capacity sweeps — a slot lost mid-task
  // was still a slot held.
  for (const ExecutedTask& k : killed) {
    auto fail = [&k](const char* what) {
      return "killed attempt job " + std::to_string(k.job) + " task " +
             std::to_string(k.task_index) + ": " + what;
    };
    if (k.job < 0 || static_cast<std::size_t>(k.job) >= workload.jobs.size()) {
      return fail("unknown job");
    }
    const Job& job = workload.jobs[static_cast<std::size_t>(k.job)];
    if (k.task_index < 0 ||
        static_cast<std::size_t>(k.task_index) >= job.num_tasks()) {
      return fail("bad task index");
    }
    if (k.resource < 0 || k.resource >= workload.cluster.size()) {
      return fail("bad resource");
    }
    const Task& task = job.task(static_cast<std::size_t>(k.task_index));
    const Resource& k_host = workload.cluster.resource(k.resource);
    if (k.end < k.start) return fail("negative attempt length");
    if (k.end - k.start >= k_host.scaled_duration(task.exec_time)) {
      return fail("attempt ran to completion yet counts as killed");
    }
    if (!task.candidates.empty() &&
        std::find(task.candidates.begin(), task.candidates.end(),
                  k.resource) == task.candidates.end()) {
      return fail("attempt ran outside its candidate resources");
    }
    if (!task.racks.empty() &&
        std::find(task.racks.begin(), task.racks.end(), k_host.rack) ==
            task.racks.end()) {
      return fail("attempt ran outside its eligible racks");
    }
    bool at_failure = false;
    for (const DownInterval* d : down_by_res[static_cast<std::size_t>(k.resource)]) {
      at_failure = at_failure || d->start == k.end;
    }
    if (!at_failure) {
      return fail("kill time matches no failure of its resource");
    }
    occupy(k, task);
  }

  // No successful interval may overlap its resource's downtime.
  for (const ExecutedTask& et : executed) {
    for (const DownInterval* d : down_by_res[static_cast<std::size_t>(et.resource)]) {
      const Time down_end = d->end == kNoTime ? kMaxTime : d->end;
      if (et.start < down_end && d->start < et.end) {
        std::ostringstream os;
        os << "job " << et.job << " task " << et.task_index
           << " ran during downtime of resource " << et.resource;
        return os.str();
      }
    }
  }

  // Precedence: reduces strictly after all maps of the job.
  for (const ExecutedTask& et : executed) {
    const Job& job = workload.jobs[static_cast<std::size_t>(et.job)];
    const Task& task = job.task(static_cast<std::size_t>(et.task_index));
    if (task.type == TaskType::kReduce &&
        et.start < latest_map_end[static_cast<std::size_t>(et.job)]) {
      return "job " + std::to_string(et.job) +
             ": reduce started before all maps finished";
    }
  }
  // Workflow precedences (user-specified DAG edges). Every task executed
  // exactly once, so every slot of by_task is filled.
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const Job& job = workload.jobs[j];
    for (const auto& [before, after] : job.precedences) {
      MRCP_CHECK_MSG(before >= 0 && after >= 0 &&
                         static_cast<std::size_t>(std::max(before, after)) <
                             job.num_tasks(),
                     "workflow precedence index out of range");
      const ExecutedTask* b = by_task[first_task[j] + static_cast<std::size_t>(before)];
      const ExecutedTask* a = by_task[first_task[j] + static_cast<std::size_t>(after)];
      if (a->start < b->end) {
        return "job " + std::to_string(job.id) +
               ": workflow precedence violated in execution";
      }
    }
  }
  // Anti-affinity: a job's group members must *complete* on pairwise
  // distinct resources. Killed attempts are exempt — a kill releases the
  // host, and the re-run may legally land where a failed sibling attempt
  // once sat.
  {
    std::map<std::tuple<JobId, int, ResourceId>, const ExecutedTask*> holders;
    for (const ExecutedTask& et : executed) {
      const Job& job = workload.jobs[static_cast<std::size_t>(et.job)];
      const Task& task = job.task(static_cast<std::size_t>(et.task_index));
      if (task.affinity_group < 0) continue;
      const auto [it, inserted] = holders.try_emplace(
          std::make_tuple(et.job, task.affinity_group, et.resource), &et);
      if (!inserted) {
        return "job " + std::to_string(et.job) + " task " +
               std::to_string(et.task_index) + ": shares resource " +
               std::to_string(et.resource) + " with task " +
               std::to_string(it->second->task_index) +
               " of the same anti-affinity group";
      }
    }
  }
  // Capacity sweeps (map slots, reduce slots, network links), per
  // (resource, kind) in time order; the steps at one instant apply
  // together, so a task may start exactly where another ends.
  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    return std::tie(a.resource, a.kind, a.time) <
           std::tie(b.resource, b.kind, b.time);
  });
  int usage = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const Delta& d = deltas[i];
    if (i == 0 || d.resource != deltas[i - 1].resource ||
        d.kind != deltas[i - 1].kind) {
      usage = 0;
    }
    usage += d.amount;
    const bool instant_done = i + 1 == deltas.size() ||
                              deltas[i + 1].resource != d.resource ||
                              deltas[i + 1].kind != d.kind ||
                              deltas[i + 1].time != d.time;
    if (!instant_done) continue;
    const Resource& r = workload.cluster.resource(d.resource);
    const int cap = d.kind == 2 ? r.net_capacity
                                : r.capacity(static_cast<TaskType>(d.kind));
    if (usage > cap) {
      std::ostringstream os;
      os << "resource " << d.resource << " "
         << (d.kind == 2 ? "net" : d.kind == 0 ? "map" : "reduce")
         << " over capacity at t=" << d.time;
      return os.str();
    }
  }
  return "";
}

std::string validate_execution(const Workload& workload,
                               const std::vector<ExecutedTask>& executed) {
  return validate_execution(workload, executed, {}, {});
}

SimMetrics simulate_minedf(const Workload& workload,
                           const baseline::MinEdfConfig& config,
                           const SimOptions& options) {
  MRCP_CHECK_MSG(validate_workload(workload).empty(), "invalid workload");
  // MinEDF-WC is a two-phase slot scheduler; it has no notion of
  // user-specified workflow DAGs (only MRCP-RM's CP model does).
  for (const Job& j : workload.jobs) {
    MRCP_CHECK_MSG(j.precedences.empty(),
                   "MinEDF-WC does not support workflow precedences");
  }
  const FaultConfig& faults = options.faults;
  {
    const std::string fault_err = faults.validate();
    MRCP_CHECK_MSG(fault_err.empty(), fault_err.c_str());
  }

  SimMetrics metrics;
  Workload straggled;
  const Workload* active_workload = &workload;
  if (faults.stragglers_enabled()) {
    straggled = workload;
    metrics.failure.straggler_tasks = apply_stragglers(straggled, faults);
    active_workload = &straggled;
  }
  const Workload& w = *active_workload;

  des::Simulation des;
  FaultInjector injector(w.cluster.size(), faults, cluster_racks(w.cluster));
  metrics.records = make_records(w);
  std::vector<ExecutedTask> executed;
  std::vector<std::size_t> remaining(w.jobs.size());
  for (const Job& job : w.jobs) {
    remaining[static_cast<std::size_t>(job.id)] = job.num_tasks();
  }
  std::size_t jobs_left = w.jobs.size();

  baseline::MinEdfWcScheduler* sched_ptr = nullptr;
  des::EventHandle eligibility_wakeup;
  Time eligibility_at = kNoTime;

  // Resource identity does not influence MinEDF-WC decisions (slots are
  // interchangeable), but executed intervals are mapped onto real slots
  // so validate_execution stays meaningful for the baseline too.
  struct SlotState {
    ResourceId resource;
    Time busy_until;
    bool down = false;
  };
  std::vector<SlotState> map_slots;
  std::vector<SlotState> reduce_slots;
  for (const Resource& r : w.cluster.resources()) {
    for (int s = 0; s < r.map_capacity; ++s) map_slots.push_back({r.id, Time{0}, false});
    for (int s = 0; s < r.reduce_capacity; ++s) {
      reduce_slots.push_back({r.id, Time{0}, false});
    }
  }
  // Anti-affinity bookkeeping: resources currently held (running) or
  // permanently burned (completed) by a (job, group)'s members. Kills
  // release their entry; completions never do.
  std::map<std::pair<JobId, int>, std::vector<ResourceId>> group_taken;

  // Running tasks with the slot they occupy, for failure kills.
  struct RunningTask {
    bool is_map = false;
    std::size_t slot = 0;
    Time start = kNoTime;
    Time end = kNoTime;
    des::EventHandle end_event;
  };
  std::map<std::pair<JobId, int>, RunningTask> running;

  auto update_eligibility_wakeup = [&]() {
    if (sched_ptr == nullptr) return;
    const Time next = sched_ptr->next_eligible_time(des.now());
    if (next == eligibility_at) return;
    if (eligibility_wakeup.pending()) des.cancel(eligibility_wakeup);
    eligibility_at = next;
    if (next == kNoTime) return;
    eligibility_wakeup = des.schedule_at(std::max(next, des.now()), [&] {
      eligibility_at = kNoTime;
      sched_ptr->wake(des.now());
    });
  };

  baseline::MinEdfWcScheduler sched(
      w.cluster,
      [&](JobId job_id, int task_index, Time start, Time base_end) -> Time {
        (void)base_end;
        const Job& job = w.jobs[static_cast<std::size_t>(job_id)];
        const Task& task = job.task(static_cast<std::size_t>(task_index));
        const bool is_map = task.type == TaskType::kMap;
        auto& slots = is_map ? map_slots : reduce_slots;
        // Eligible slot search: placement constraints first, then prefer
        // the fastest host, then the lowest slot index — which reduces to
        // the plain first-free-slot scan on a homogeneous, unconstrained
        // cluster.
        std::vector<ResourceId>* taken = nullptr;
        if (task.affinity_group >= 0) {
          taken = &group_taken[{job_id, task.affinity_group}];
        }
        auto eligible = [&](ResourceId r) {
          if (!task.candidates.empty() &&
              std::find(task.candidates.begin(), task.candidates.end(), r) ==
                  task.candidates.end()) {
            return false;
          }
          if (!task.racks.empty()) {
            const int rack = w.cluster.resource(r).rack;
            if (std::find(task.racks.begin(), task.racks.end(), rack) ==
                task.racks.end()) {
              return false;
            }
          }
          return taken == nullptr ||
                 std::find(taken->begin(), taken->end(), r) == taken->end();
        };
        std::size_t slot = slots.size();
        int best_speed = -1;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          const SlotState& s = slots[i];
          if (s.down || s.busy_until > start) continue;
          if (!eligible(s.resource)) continue;
          const int speed = w.cluster.resource(s.resource).speed_permille;
          if (speed > best_speed) {
            best_speed = speed;
            slot = i;
          }
        }
        if (slot == slots.size()) {
          // The free-slot counters guarantee *some* slot is free, so only
          // a placement-constrained task may be refused here.
          MRCP_CHECK_MSG(task.placement_constrained(),
                         "MinEDF-WC launched beyond available capacity");
          return kNoTime;
        }
        const ResourceId res = slots[slot].resource;
        const Time end =
            start + w.cluster.resource(res).scaled_duration(task.exec_time);
        slots[slot].busy_until = end;
        if (taken != nullptr) taken->push_back(res);
        RunningTask rt{is_map, slot, start, end, {}};
        rt.end_event =
            des.schedule_at(end, [&, job_id, task_index, res, start, end] {
              running.erase({job_id, task_index});
              executed.push_back(
                  ExecutedTask{job_id, task_index, res, start, end});
              const auto ji = static_cast<std::size_t>(job_id);
              MRCP_CHECK(remaining[ji] > 0);
              if (--remaining[ji] == 0) {
                JobRecord& record = metrics.records[ji];
                finish_job_record(record, des.now());
                if (record.late && record.failure_affected) {
                  ++metrics.failure.jobs_late_failure_affected;
                }
                MRCP_CHECK(jobs_left > 0);
                if (--jobs_left == 0) injector.stop(des);
              }
              sched_ptr->on_task_finished(job_id, task_index, des.now());
              update_eligibility_wakeup();
            });
        running.emplace(std::make_pair(job_id, task_index), std::move(rt));
        return end;
      },
      config);
  sched_ptr = &sched;

  auto on_resource_down = [&](ResourceId r, Time t) {
    for (SlotState& s : map_slots) {
      if (s.resource == r) s.down = true;
    }
    for (SlotState& s : reduce_slots) {
      if (s.resource == r) s.down = true;
    }
    const Resource& res = w.cluster.resource(r);
    sched.handle_resource_down(res.map_capacity, res.reduce_capacity);
    // Kill the attempts running on r; a task that ends exactly at t is a
    // normal completion (its end event fires later this tick).
    for (auto it = running.begin(); it != running.end();) {
      RunningTask& rt = it->second;
      auto& slots = rt.is_map ? map_slots : reduce_slots;
      if (slots[rt.slot].resource != r || rt.end <= t) {
        ++it;
        continue;
      }
      des.cancel(rt.end_event);
      slots[rt.slot].busy_until = t;
      const auto [job_id, task_index] = it->first;
      metrics.killed.push_back(ExecutedTask{job_id, task_index, r, rt.start, t});
      ++metrics.failure.tasks_killed;
      metrics.failure.wasted_ticks += t - rt.start;
      metrics.records[static_cast<std::size_t>(job_id)].failure_affected = true;
      sched.handle_task_killed(job_id, task_index, rt.end, t);
      // A killed attempt releases its anti-affinity hold: the re-run may
      // land anywhere its live siblings do not sit.
      const Task& killed_task = w.jobs[static_cast<std::size_t>(job_id)].task(
          static_cast<std::size_t>(task_index));
      if (killed_task.affinity_group >= 0) {
        auto& taken = group_taken[{job_id, killed_task.affinity_group}];
        const auto pos = std::find(taken.begin(), taken.end(), r);
        MRCP_CHECK(pos != taken.end());
        taken.erase(pos);
      }
      it = running.erase(it);
    }
    sched.wake(t);
    update_eligibility_wakeup();
  };
  auto on_resource_up = [&](ResourceId r, Time t) {
    for (SlotState& s : map_slots) {
      if (s.resource == r) s.down = false;
    }
    for (SlotState& s : reduce_slots) {
      if (s.resource == r) s.down = false;
    }
    const Resource& res = w.cluster.resource(r);
    sched.handle_resource_up(res.map_capacity, res.reduce_capacity);
    sched.wake(t);
    update_eligibility_wakeup();
  };
  injector.start(des, on_resource_down, on_resource_up);

  for (const Job& job : w.jobs) {
    des.schedule_at(job.arrival_time, [&, &job = job] {
      sched.submit(job, des.now());
      update_eligibility_wakeup();
    });
  }

  des.run();

  for (std::size_t ji = 0; ji < remaining.size(); ++ji) {
    MRCP_CHECK_MSG(remaining[ji] == 0, "job did not finish under MinEDF-WC");
  }
  metrics.total_sched_seconds = sched.stats().total_sched_seconds;
  metrics.rm_invocations = sched.stats().dispatches;
  metrics.downtime = injector.downtime();
  metrics.failure.resource_failures = injector.failures();
  metrics.failure.resource_repairs = injector.repairs();
  metrics.failure.rack_bursts = injector.rack_bursts();

  if (options.validate_execution) {
    const std::string err =
        validate_execution(w, executed, metrics.killed, metrics.downtime);
    MRCP_CHECK_MSG(err.empty(), err.c_str());
  }
  metrics.executed = std::move(executed);
  return metrics;
}

}  // namespace mrcp::sim
