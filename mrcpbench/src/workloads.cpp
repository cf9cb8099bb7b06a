#include "workloads.h"

#include "mapreduce/facebook_workload.h"
#include "mapreduce/synthetic_workload.h"

namespace mrcpbench {

namespace {

// mrcp-sim's default MRCP-RM configuration (one solver thread), except
// for the solver budget. At mrcp-sim's 0.1 s some solves on the large
// live sets of fb_paper and fb_incremental_faults reach the budget, so
// their outcome (and T) would depend on host speed. At 10 s no call comes
// near it: the solver stops on its own search limits, and P and T depend
// only on the inputs (README.md, "Solver budget").
mrcp::MrcpConfig paper_config() {
  mrcp::MrcpConfig c;
  c.solve.time_limit_s = 10.0;
  c.solve.num_threads = 1;
  return c;
}

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> v;

  // Facebook Table 4 at the top of the Fig. 2/3 arrival-rate range, with
  // the paper's default MRCP-RM (§V.D separation, kAllUnstarted,
  // deferral on).
  WorkloadSpec fb;
  fb.name = "fb_paper";
  fb.instances = 6;
  fb.jobs = 1000;
  fb.smoke_jobs = 30;
  fb.config = paper_config();
  fb.capture_every = 100;
  v.push_back(fb);

  // Synthetic Table 3 on a heterogeneous, rack-striped cluster with
  // locality and anti-affinity: always the direct per-machine model.
  WorkloadSpec het;
  het.name = "hetero_direct";
  het.instances = 8;
  het.jobs = 400;
  het.smoke_jobs = 20;
  het.config = paper_config();
  het.capture_every = 50;
  het.facebook = false;
  v.push_back(het);

  // The fb_paper generator under dirty-set incremental rescheduling,
  // machine failures, rack bursts and the write-ahead journal.
  WorkloadSpec inc;
  inc.name = "fb_incremental_faults";
  inc.instances = 3;
  inc.jobs = 400;
  inc.smoke_jobs = 30;
  inc.config = paper_config();
  inc.config.replan_scope = mrcp::ReplanScope::kDirtyOnly;
  inc.faults.mtbf_s = 200000.0;
  inc.faults.mttr_s = 600.0;
  inc.faults.rack_mtbf_s = 500000.0;
  inc.snapshot_every = 1000;
  inc.capture_every = 100;
  v.push_back(inc);
  return v;
}

}  // namespace

mrcp::Workload WorkloadSpec::generate(std::uint64_t seed,
                                      std::size_t num_jobs) const {
  if (facebook) {
    mrcp::FacebookWorkloadConfig c;
    c.num_jobs = num_jobs;
    c.arrival_rate = 5e-4;
    c.seed = seed;
    return mrcp::generate_facebook_workload(c);
  }
  mrcp::SyntheticWorkloadConfig c;
  c.num_jobs = num_jobs;
  c.arrival_rate = 0.02;
  c.num_resources = 50;
  c.speed_choices = {500, 1000, 2000};
  c.num_racks = 5;
  c.locality_prob = 0.5;
  c.affinity_prob = 0.3;
  c.seed = seed;
  return mrcp::generate_synthetic_workload(c);
}

std::uint64_t instance_seed(std::uint64_t seed, std::size_t index) {
  // splitmix64 of (seed, index): distinct, well-mixed instance seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> workloads = make_workloads();
  return workloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace mrcpbench
