// Builds the CP model (paper Table 1) from the live state of the open
// system: the jobs that have arrived and still have uncompleted tasks.
//
// Two build modes:
//   * direct     — one CP resource per cluster resource; the alternative
//                  constraint ranges over all of them (the formulation of
//                  §III.B exactly as written);
//   * combined   — the §V.D performance optimization: one CP resource
//                  carrying the summed capacity of the cluster. The
//                  combined solve fixes start times; the Matchmaker then
//                  assigns tasks to concrete resources.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "cp/model.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace mrcp {

/// One not-yet-completed task of a live job, as fed to the model builder.
struct LiveTask {
  int task_index = -1;  ///< flat index within the job
  TaskType type = TaskType::kMap;
  Time exec_time;  ///< baseline-speed duration; resources scale it
  int res_req = 1;
  int net_demand = 0;
  bool started = false;          ///< running now: pinned in the model
  ResourceId resource = kNoResource;  ///< valid when started
  Time start = kNoTime;               ///< valid when started
  /// Placement constraints (all empty/-1 = unconstrained):
  std::vector<ResourceId> candidates;  ///< data-locality hosts (empty = any)
  std::vector<int> racks;              ///< eligible rack ids (empty = any)
  int affinity_group = -1;             ///< job-local anti-affinity group
  /// Resources permanently taken by *completed* same-group siblings —
  /// live members may never land there again.
  std::vector<ResourceId> anti_affinity_exclude;
};

/// A job with at least one uncompleted task.
struct LiveJob {
  JobId id = kNoJob;
  /// s_j clamped to the invocation time (paper Table 2 lines 1-4).
  Time effective_earliest_start;
  Time deadline;
  std::vector<LiveTask> tasks;  ///< completed tasks are omitted
  /// User precedences between *live* tasks, as flat indices (edges whose
  /// predecessor already completed are satisfied and must be filtered
  /// out by the caller).
  std::vector<std::pair<int, int>> precedences;
};

/// A built model plus the mapping from CP task indices back to
/// (job id, flat task index).
struct BuiltModel {
  cp::Model model;
  std::vector<std::pair<JobId, int>> task_refs;  ///< by CP task index
  std::vector<JobId> job_refs;                   ///< by CP job index
  bool combined = false;
};

/// Is `r` within the task's placement constraints — candidate list, rack
/// locality, and resources burned by completed anti-affinity siblings?
/// Capacity is not considered.
bool placement_allows(const Cluster& cluster, const LiveTask& lt,
                      ResourceId r);

BuiltModel build_direct_model(const Cluster& cluster,
                              std::span<const LiveJob> jobs);

/// Requires all task res_req == 1 (slot-level matchmaking assumes unit
/// demands, as the paper does: "the value of q_t is typically set to one").
/// Also requires a uniform-speed cluster and no placement constraints —
/// a single summed resource cannot express per-machine speeds or hosts.
BuiltModel build_combined_model(const Cluster& cluster,
                                std::span<const LiveJob> jobs);

}  // namespace mrcp
