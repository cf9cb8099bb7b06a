#include "core/plan.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "common/check.h"

namespace mrcp {

std::string Plan::to_string() const {
  std::ostringstream os;
  os << "Plan{epoch=" << epoch << ", t=" << planned_at
     << ", tasks=" << tasks.size() << "}";
  return os.str();
}

std::string validate_plan(const Plan& plan, const Cluster& cluster,
                          const std::vector<const Job*>& jobs_by_id) {
  const bool links_constrained = cluster.links_constrained();
  // (resource, phase) -> time -> usage delta
  std::map<std::pair<ResourceId, int>, std::map<Time, int>> deltas;
  // Anti-affinity: (job, group, resource) -> first holder in the plan.
  std::map<std::tuple<JobId, int, ResourceId>, const PlannedTask*>
      group_holders;
  // job -> latest map end / earliest reduce start in this plan
  std::map<JobId, Time> latest_map_end;
  std::map<JobId, Time> earliest_reduce_start;

  for (const PlannedTask& pt : plan.tasks) {
    std::ostringstream where;
    where << "job " << pt.job << " task " << pt.task_index << ": ";
    if (pt.resource < 0 || pt.resource >= cluster.size()) {
      return where.str() + "resource out of range";
    }
    if (pt.start == kNoTime || pt.end <= pt.start) {
      return where.str() + "bad interval";
    }
    if (pt.job < 0 || static_cast<std::size_t>(pt.job) >= jobs_by_id.size() ||
        jobs_by_id[static_cast<std::size_t>(pt.job)] == nullptr) {
      return where.str() + "unknown job";
    }
    const Job& job = *jobs_by_id[static_cast<std::size_t>(pt.job)];
    if (pt.task_index < 0 ||
        static_cast<std::size_t>(pt.task_index) >= job.num_tasks()) {
      return where.str() + "task index out of range";
    }
    const Task& task = job.task(static_cast<std::size_t>(pt.task_index));
    if (task.type != pt.type) return where.str() + "task type mismatch";
    const Resource& host = cluster.resource(pt.resource);
    if (pt.duration() != host.scaled_duration(task.exec_time)) {
      return where.str() +
             "duration does not match task exec time scaled by the "
             "resource speed";
    }
    if (!pt.started && pt.type == TaskType::kMap &&
        pt.start < job.earliest_start) {
      return where.str() + "map scheduled before s_j";
    }
    if (!pt.started && !task.candidates.empty() &&
        std::find(task.candidates.begin(), task.candidates.end(),
                  pt.resource) == task.candidates.end()) {
      return where.str() + "resource not among the task's candidates";
    }
    if (!pt.started && !task.racks.empty() &&
        std::find(task.racks.begin(), task.racks.end(), host.rack) ==
            task.racks.end()) {
      return where.str() + "resource outside the task's racks";
    }
    if (task.affinity_group >= 0) {
      auto [it, inserted] = group_holders.try_emplace(
          std::make_tuple(pt.job, task.affinity_group, pt.resource), &pt);
      if (!inserted) {
        return where.str() + "shares resource " + std::to_string(pt.resource) +
               " with task " + std::to_string(it->second->task_index) +
               " of the same anti-affinity group";
      }
    }
    const int cap = host.capacity(pt.type);
    if (cap < task.res_req) return where.str() + "resource lacks capacity";

    deltas[{pt.resource, static_cast<int>(pt.type)}][pt.start] += task.res_req;
    deltas[{pt.resource, static_cast<int>(pt.type)}][pt.end] -= task.res_req;
    // Swept against every resource once links are constrained anywhere:
    // a zero-capacity resource then rejects net demand instead of
    // silently skipping the check.
    if (task.net_demand > 0 && links_constrained) {
      deltas[{pt.resource, 2}][pt.start] += task.net_demand;
      deltas[{pt.resource, 2}][pt.end] -= task.net_demand;
    }

    if (pt.type == TaskType::kMap) {
      auto [it, inserted] = latest_map_end.try_emplace(pt.job, pt.end);
      if (!inserted) it->second = std::max(it->second, pt.end);
    } else {
      auto [it, inserted] = earliest_reduce_start.try_emplace(pt.job, pt.start);
      if (!inserted) it->second = std::min(it->second, pt.start);
    }
  }

  // Precedence: a plan may omit completed maps, in which case the reduce
  // check is against the maps that are present only (the RM guarantees
  // dropped maps ended before `planned_at` <= any unstarted reduce start).
  for (const auto& [job, reduce_start] : earliest_reduce_start) {
    auto it = latest_map_end.find(job);
    if (it != latest_map_end.end() && reduce_start < it->second) {
      return "job " + std::to_string(job) + ": reduce overlaps its map phase";
    }
  }

  // Workflow precedences between tasks present in the plan (edges with a
  // completed endpoint were filtered by the RM and are satisfied).
  {
    std::map<std::pair<JobId, int>, const PlannedTask*> by_key;
    std::map<JobId, const Job*> jobs_in_plan;
    for (const PlannedTask& pt : plan.tasks) {
      by_key[{pt.job, pt.task_index}] = &pt;
      jobs_in_plan.emplace(pt.job,
                           jobs_by_id[static_cast<std::size_t>(pt.job)]);
    }
    for (const auto& [job_id, job] : jobs_in_plan) {
      for (const auto& [before, after] : job->precedences) {
        const auto b = by_key.find({job_id, before});
        const auto a = by_key.find({job_id, after});
        if (b == by_key.end() || a == by_key.end()) continue;
        if (!a->second->started && a->second->start < b->second->end) {
          return "job " + std::to_string(job_id) +
                 ": workflow precedence violated in plan";
        }
      }
    }
  }

  for (const auto& [key, delta] : deltas) {
    const Resource& r = cluster.resource(key.first);
    const int cap = key.second == 2
                        ? r.net_capacity
                        : r.capacity(static_cast<TaskType>(key.second));
    int usage = 0;
    for (const auto& [time, d] : delta) {
      usage += d;
      if (usage > cap) {
        std::ostringstream os;
        os << "resource " << key.first << " "
           << (key.second == 2   ? "net"
               : key.second == 0 ? "map"
                                 : "reduce")
           << " capacity exceeded at t=" << time;
        return os.str();
      }
    }
  }
  return "";
}

}  // namespace mrcp
