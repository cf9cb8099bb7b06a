#include "mapreduce/synthetic_workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace mrcp {

Workload generate_synthetic_workload(const SyntheticWorkloadConfig& config) {
  MRCP_CHECK(config.num_jobs > 0);
  MRCP_CHECK(config.e_max >= 1);
  MRCP_CHECK(config.arrival_rate > 0.0);
  MRCP_CHECK(config.deadline_multiplier_ul >= 1.0);
  MRCP_CHECK(config.start_prob >= 0.0 && config.start_prob <= 1.0);

  // Independent streams per stochastic component, so e.g. changing p does
  // not perturb the sampled task sizes.
  RandomStream arrivals(config.seed, 0);
  RandomStream sizes(config.seed, 1);
  RandomStream exec_times(config.seed, 2);
  RandomStream starts(config.seed, 3);
  RandomStream deadlines(config.seed, 4);
  // Heterogeneity knobs draw from their own streams so enabling them (or
  // turning them off again) never perturbs the homogeneous samples above.
  RandomStream machines(config.seed, 5);
  RandomStream placement(config.seed, 6);

  for (int speed : config.speed_choices) {
    MRCP_CHECK_MSG(speed > 0, "speed choices must be positive permille");
  }
  MRCP_CHECK(config.num_racks >= 1);
  MRCP_CHECK(config.locality_prob >= 0.0 && config.locality_prob <= 1.0);
  MRCP_CHECK(config.affinity_prob >= 0.0 && config.affinity_prob <= 1.0);

  Workload w;
  if (config.speed_choices.empty() && config.num_racks <= 1) {
    w.cluster = Cluster::homogeneous(config.num_resources, config.map_capacity,
                                     config.reduce_capacity);
  } else {
    const DiscreteUniform speed_pick{
        0, static_cast<std::int64_t>(
               std::max<std::size_t>(config.speed_choices.size(), 1)) -
               1};
    for (int i = 0; i < config.num_resources; ++i) {
      const int speed =
          config.speed_choices.empty()
              ? kBaseSpeedPermille
              : config.speed_choices[static_cast<std::size_t>(
                    speed_pick.sample(machines))];
      w.cluster.add_resource_hetero(config.map_capacity,
                                    config.reduce_capacity, 0, speed,
                                    i % config.num_racks);
    }
  }
  const int total_map_slots = w.cluster.total_map_slots();
  const int total_reduce_slots = w.cluster.total_reduce_slots();

  const Exponential interarrival{config.arrival_rate};
  const DiscreteUniform map_exec{1, config.e_max};
  const Bernoulli future_start{config.start_prob};
  const DiscreteUniform start_offset{1, config.s_max};
  const Uniform deadline_mult{1.0, config.deadline_multiplier_ul};

  double arrival_seconds = 0.0;
  w.jobs.reserve(config.num_jobs);
  for (std::size_t i = 0; i < config.num_jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    arrival_seconds += interarrival.sample(arrivals);
    job.arrival_time = seconds_to_ticks(arrival_seconds);

    const auto k_mp = config.num_map_tasks.sample(sizes);
    const auto k_rd = config.num_reduce_tasks.sample(sizes);

    std::int64_t sum_me_seconds = 0;
    job.map_tasks.reserve(static_cast<std::size_t>(k_mp));
    for (std::int64_t t = 0; t < k_mp; ++t) {
      Task task;
      task.type = TaskType::kMap;
      const std::int64_t me_seconds = map_exec.sample(exec_times);
      task.exec_time = seconds_to_ticks(me_seconds);
      sum_me_seconds += me_seconds;
      job.map_tasks.push_back(task);
    }

    // re = (3 * sum(me)) / k_rd + DU[1,10]; integer division in seconds is
    // the natural reading of the paper's formula. The quotient can be 0
    // for tiny jobs; the additive DU[1,10] keeps durations positive.
    const std::int64_t base_re = (3 * sum_me_seconds) / k_rd;
    job.reduce_tasks.reserve(static_cast<std::size_t>(k_rd));
    for (std::int64_t t = 0; t < k_rd; ++t) {
      Task task;
      task.type = TaskType::kReduce;
      const std::int64_t re_seconds = base_re + config.reduce_extra.sample(exec_times);
      task.exec_time = seconds_to_ticks(re_seconds);
      job.reduce_tasks.push_back(task);
    }

    job.earliest_start = job.arrival_time;
    if (future_start.sample(starts)) {
      job.earliest_start += seconds_to_ticks(start_offset.sample(starts));
    }

    const Time te = job.min_execution_time(total_map_slots, total_reduce_slots);
    const double mult = deadline_mult.sample(deadlines);
    job.deadline =
        job.earliest_start + Time{std::llround(static_cast<double>(te.count()) * mult)};

    // Placement constraints. One anti-affinity group spans the first
    // min(k_rd, m) reduce tasks (so the group always fits the cluster);
    // grouped tasks keep the full candidate set, so every group can be
    // placed (Model::validate's member count check is then exact).
    const Bernoulli wants_affinity{config.affinity_prob};
    const std::int64_t group_size =
        std::min<std::int64_t>(k_rd, config.num_resources);
    const bool grouped = config.affinity_prob > 0.0 && group_size >= 2 &&
                         wants_affinity.sample(placement);
    if (grouped) {
      for (std::int64_t t = 0; t < group_size; ++t) {
        job.reduce_tasks[static_cast<std::size_t>(t)].affinity_group = 0;
      }
    }
    if (config.locality_prob > 0.0) {
      const Bernoulli wants_locality{config.locality_prob};
      const std::int64_t m = config.num_resources;
      const DiscreteUniform subset_size{1, std::max<std::int64_t>(1, m / 2)};
      std::vector<ResourceId> ids(static_cast<std::size_t>(m));
      for (std::int64_t t = 0; t < k_mp + k_rd; ++t) {
        Task& task = t < k_mp
                         ? job.map_tasks[static_cast<std::size_t>(t)]
                         : job.reduce_tasks[static_cast<std::size_t>(t - k_mp)];
        if (task.affinity_group >= 0) continue;
        if (!wants_locality.sample(placement)) continue;
        // Partial Fisher-Yates: the first `s` entries become a uniform
        // random subset, emitted in the shuffled (deterministic) order.
        for (std::int64_t r = 0; r < m; ++r) {
          ids[static_cast<std::size_t>(r)] = static_cast<ResourceId>(r);
        }
        const std::int64_t s = subset_size.sample(placement);
        for (std::int64_t r = 0; r < s; ++r) {
          const std::int64_t pick = DiscreteUniform{r, m - 1}.sample(placement);
          std::swap(ids[static_cast<std::size_t>(r)],
                    ids[static_cast<std::size_t>(pick)]);
        }
        task.candidates.assign(ids.begin(), ids.begin() + s);
      }
    }

    w.jobs.push_back(std::move(job));
  }
  return w;
}

}  // namespace mrcp
