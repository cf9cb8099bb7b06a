// Benchmark-side replay of sim::simulate_mrcp's event loop.
//
// The traced run cannot look inside simulate_mrcp, so it drives MrcpRm
// itself: the same DES kernel, fault injector and plan execution, with
// every call (submit, handle_resource_down/up, reschedule) scheduled in
// the same order as simulate_mrcp makes them, so the RM sees the identical
// event sequence. Each call is timed and recorded as a span. The replay
// is checked against an untraced simulate_mrcp run on the same inputs
// (invocation count and degradation counters must agree).
//
// Every k-th invocation the replay also captures the live set a re-solve
// at that instant would see, rebuilt from the published Plan and the
// workload, for the standalone model-build / solver / matchmaker timings.
#pragma once

#include <cstdint>
#include <vector>

#include "core/degradation.h"
#include "core/model_builder.h"
#include "core/mrcp_rm.h"
#include "core/plan.h"
#include "mapreduce/cluster.h"
#include "mapreduce/workload.h"
#include "sim/fault_injector.h"
#include "sim/metrics.h"
#include "trace.h"

namespace mrcpbench {

/// A live set captured after one replay invocation.
struct CapturedLiveSet {
  mrcp::Cluster cluster;  ///< working capacities (down machines zeroed)
  std::vector<mrcp::LiveJob> live;
  mrcp::Plan plan;  ///< the plan the RM published at this invocation
  bool combined = false;  ///< the RM would solve the §V.D combined model
};

struct ReplayResult {
  std::vector<double> reschedule_seconds;  ///< one per reschedule() call
  std::uint64_t budget_bound_calls = 0;    ///< calls >= the solver budget
  double wall_seconds = 0.0;               ///< whole replay
  mrcp::MrcpStats stats;
  mrcp::DegradationCounts degradation;
  std::vector<mrcp::sim::JobRecord> records;
  std::vector<CapturedLiveSet> captures;
};

/// Replay `workload` through MrcpRm under `config` and `faults` (no
/// stragglers), timing every RM call into `tracer`. capture_every == 0
/// captures nothing.
ReplayResult replay_mrcp(const mrcp::Workload& workload,
                         const mrcp::MrcpConfig& config,
                         const mrcp::sim::FaultConfig& faults,
                         std::uint64_t capture_every, Tracer& tracer);

}  // namespace mrcpbench
