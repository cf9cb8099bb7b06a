// The benchmark's workloads (README.md, "Workloads"): the inputs each
// one generates from a seed and the MRCP-RM configuration it runs with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mrcp_rm.h"
#include "mapreduce/workload.h"
#include "sim/fault_injector.h"

namespace mrcpbench {

/// A workload is `instances` independent instances of `jobs` jobs each,
/// generated from per-instance seeds derived from the run's seed. Pooling
/// independent instances, rather than running one long one, is what keeps
/// the per-run figures steady across seeds: near saturation a long run's
/// backlog wanders, so its O and T vary with the seed however long it is.
struct WorkloadSpec {
  std::string name;
  std::size_t instances = 1;
  std::size_t jobs = 0;        ///< jobs per generated instance
  std::size_t smoke_jobs = 0;  ///< tiny instance size for --smoke
  mrcp::MrcpConfig config;
  mrcp::sim::FaultConfig faults;  ///< seed is overwritten per run
  /// Run with the write-ahead journal and snapshots (snapshot every
  /// this many journal records; 0 = durability off).
  std::uint64_t snapshot_every = 0;
  /// Every k-th replay invocation's live set is captured for the
  /// standalone model/solver timings.
  std::uint64_t capture_every = 1;

  /// Facebook Table 4 generator; false = the synthetic Table 3 one on a
  /// heterogeneous cluster.
  bool facebook = true;

  /// Generate the instance for `seed` with `jobs` jobs.
  mrcp::Workload generate(std::uint64_t seed, std::size_t jobs) const;
};

/// Generator (and fault-trace) seed of instance `index` of a run seeded
/// with `seed`.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t index);

const std::vector<WorkloadSpec>& all_workloads();
/// Null when no workload has this name.
const WorkloadSpec* find_workload(const std::string& name);

}  // namespace mrcpbench
