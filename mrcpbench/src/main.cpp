// mrcpbench — one workload of the MRCP-RM benchmark (README.md).
//
//   mrcpbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--tmp-dir DIR] [--span-out FILE]
//   mrcpbench --list-workloads
//
// --trace 0 measures the end-to-end metrics: the workload's instances are
// generated from the seed, round-tripped through the trace format, and
// simulated with sim::simulate_mrcp as mrcp-sim does (execution validator
// on, one solver thread), in rounds until S seconds have passed.
// --trace 1 measures the per-layer metrics in one traced pass.
// Prints one JSON object; run.py turns it into the benchmark result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/minedf_wc.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/fallback_scheduler.h"
#include "core/matchmaker.h"
#include "core/model_builder.h"
#include "cp/audit.h"
#include "cp/search.h"
#include "cp/solver.h"
#include "mapreduce/workload_io.h"
#include "replay.h"
#include "sim/cluster_sim.h"
#include "trace.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace mrcpbench;

namespace {

constexpr double kWarmupFraction = 0.1;  // mrcp-sim's default

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string tmp_dir = ".";
  std::string span_out;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "mrcpbench: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (flag == "--list-workloads") {
      for (const WorkloadSpec& w : all_workloads()) std::printf("%s\n", w.name.c_str());
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage_error("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage_error("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      a.tmp_dir = value;
    } else if (flag == "--span-out") {
      a.span_out = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return a;
}

/// Why this build may not report numbers; empty when it may. Timings
/// from Debug, audit, coverage or sanitizer builds measure the
/// instrumentation, not the scheduler.
std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build type)";
#else
  if (MRCP_AUDIT_ENABLED) return "MRCP_AUDIT build";
  if (std::strlen(MRCPBENCH_INSTRUMENTED) > 0) {
    return std::string("instrumented build (") + MRCPBENCH_INSTRUMENTED + ")";
  }
  return "";
#endif
}

double median(std::vector<double> v) {
  MRCP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-speed probe: seconds taken by a fixed CPU and memory workload
/// that does not depend on the repository's code (xorshift fill and sort
/// of 2^16 integers, best of three).
double host_probe_s() {
  static std::vector<std::uint32_t> v(std::size_t{1} << 16);
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    mrcp::Stopwatch sw;
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<std::uint32_t>(x);
    }
    std::sort(v.begin(), v.end());
    best = std::min(best, sw.elapsed_seconds());
  }
  return best;
}

/// The end-to-end times are reported at a reference host speed: a time t
/// measured next to probes that took p seconds (median) is reported as
/// t * kProbeReferenceS / p. On a shared host the CPU speed drifts by
/// +-20% within a minute; the probe drifts with it, so the normalized
/// figures keep what the program changes and drop what the host does.
/// The raw times are reported beside them (README.md, "Host speed").
constexpr double kProbeReferenceS = 0.005;

// ---- JSON output ----

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class Report {
 public:
  void metric(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back(Metric{name, unit, value});
  }
  void info(const std::string& key, const std::string& raw_json) {
    info_.emplace_back(key, raw_json);
  }
  void note(const std::string& text) { notes_.push_back(text); }

  std::string to_json(bool correct, std::uint64_t attempted,
                      std::uint64_t failed) const {
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) out += ',';
      out += "\"" + m.name + "\":{\"value\":" + num(m.value) +
             ",\"unit\":\"" + m.unit + "\"}";
    }
    out += "},\"info\":{";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      if (i > 0) out += ',';
      out += "\"" + info_[i].first + "\":" + info_[i].second;
    }
    out += "},\"notes\":[";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      out += json_escape(notes_[i]);
      out += '"';
    }
    out += "]}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> notes_;
};

std::string build_json() {
  return std::string("{\"compiler\":\"") + MRCPBENCH_COMPILER +
         "\",\"build_type\":\"" + MRCPBENCH_BUILD_TYPE + "\"}";
}

/// A run that breaks the correctness gate prints the reason and no
/// numbers, and exits non-zero.
[[noreturn]] void gate_failure(const std::string& reason) {
  std::printf("{\"correct\":false,\"gate_failure\":\"%s\"}\n",
              json_escape(reason).c_str());
  std::fflush(stdout);
  std::exit(1);
}

// ---- Set-up ----

struct Setup {
  std::vector<mrcp::Workload> instances;
  std::vector<std::uint64_t> seeds;
  std::vector<double> generate_s;  ///< per set-up repetition, all instances
  std::vector<double> roundtrip_s;
  std::vector<double> total_s;
  std::vector<double> probe_s;  ///< host probe before each repetition
};

/// Generate every instance from its seed and round-trip it through the
/// trace format, `reps` times over; the simulations receive the parsed
/// copies, never the generator's objects.
Setup make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t instances, std::size_t jobs, int reps,
                  Tracer& tracer) {
  Setup s;
  for (std::size_t i = 0; i < instances; ++i) {
    s.seeds.push_back(instance_seed(seed, i));
  }
  std::vector<std::string> texts;  // the last repetition's trace text
  for (int rep = 0; rep < reps; ++rep) {
    s.probe_s.push_back(host_probe_s());
    Tracer::Scope total(tracer, "bench.setup");
    double generate = 0.0;
    double roundtrip = 0.0;
    s.instances.clear();
    texts.clear();
    for (std::uint64_t instance : s.seeds) {
      Tracer::Scope gen(tracer, "mapreduce.generate");
      mrcp::Workload generated = spec.generate(instance, jobs);
      generate += gen.close();
      Tracer::Scope io(tracer, "mapreduce.io_roundtrip");
      texts.push_back(mrcp::workload_to_string(generated));
      std::string error;
      s.instances.push_back(mrcp::workload_from_string(texts.back(), &error));
      roundtrip += io.close();
      if (!error.empty()) gate_failure("workload round trip: " + error);
    }
    s.generate_s.push_back(generate);
    s.roundtrip_s.push_back(roundtrip);
    s.total_s.push_back(total.close());
  }
  // Outside the timed set-up: the parsed copies must serialize back to
  // the exact bytes they were parsed from.
  for (std::size_t i = 0; i < texts.size(); ++i) {
    if (mrcp::workload_to_string(s.instances[i]) != texts[i]) {
      gate_failure("workload round trip is not byte-identical");
    }
  }
  return s;
}

// ---- Simulation runs ----

/// Per-run scratch directory for the journal and snapshots; removed
/// (with its files) when the run ends.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& tag) {
    path_ = fs::path(parent) /
            ("mrcpbench-" + tag + "-" + std::to_string(getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string prefix() const { return (path_ / "run").string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

struct SimRun {
  mrcp::sim::SimMetrics metrics;
  mrcp::sim::SimMetrics::Aggregate quality;  ///< warmup-trimmed P, T, N
  double wall_s = 0.0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
};

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

mrcp::sim::SimOptions sim_options(const WorkloadSpec& spec,
                                  std::uint64_t instance_seed, bool validate) {
  mrcp::sim::SimOptions o;
  o.validate_execution = validate;
  o.faults = spec.faults;
  o.faults.seed = instance_seed;
  return o;
}

SimRun run_mrcp(const WorkloadSpec& spec, const mrcp::Workload& w,
                std::uint64_t instance_seed, bool validate, bool durability,
                const std::string& tmp_dir, Tracer& tracer) {
  mrcp::sim::SimOptions o = sim_options(spec, instance_seed, validate);
  std::optional<ScratchDir> dir;
  if (durability && spec.snapshot_every > 0) {
    dir.emplace(tmp_dir, spec.name);
    o.durability.journal_prefix = dir->prefix();
    o.durability.snapshot_every = spec.snapshot_every;
  }
  SimRun r;
  Tracer::Scope span(tracer, "sim.simulate_mrcp");
  r.metrics = mrcp::sim::simulate_mrcp(w, spec.config, o);
  r.wall_s = span.close();
  r.quality = r.metrics.aggregate(kWarmupFraction);
  if (dir) {
    r.journal_bytes = file_size_or_zero(o.durability.journal_path());
    r.snapshot_bytes = file_size_or_zero(o.durability.snapshot_path());
  }
  return r;
}

std::uint64_t incomplete_jobs(const mrcp::sim::SimMetrics& m) {
  std::uint64_t n = 0;
  for (const auto& r : m.records) n += r.completed() ? 0 : 1;
  return n;
}

/// Degradation counters without the wall-clock field, for exact
/// comparisons between runs.
std::string degradation_key(const mrcp::DegradationCounts& d) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "primary=%llu retry=%llu fallback=%llu parked=%llu "
                "skipped=%llu idle=%llu attempts=%llu backpressured=%llu",
                static_cast<unsigned long long>(d.primary),
                static_cast<unsigned long long>(d.retry),
                static_cast<unsigned long long>(d.fallback),
                static_cast<unsigned long long>(d.parked),
                static_cast<unsigned long long>(d.skipped),
                static_cast<unsigned long long>(d.idle),
                static_cast<unsigned long long>(d.solve_attempts),
                static_cast<unsigned long long>(d.jobs_backpressured));
  return buf;
}

/// The schedule-content fingerprint every repetition must reproduce:
/// P, T, N, invocation count and degradation counters.
std::string outcome_key(const SimRun& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "P=%.17g T=%.17g N=%lld invocations=%llu %s",
                r.quality.percent_late, r.quality.mean_turnaround_s,
                static_cast<long long>(r.quality.late),
                static_cast<unsigned long long>(r.metrics.rm_invocations),
                degradation_key(r.metrics.degradation).c_str());
  return buf;
}

/// P, T and N pooled over a workload's instances, each warmup-trimmed as
/// sim::summarize_run trims it.
struct Quality {
  std::size_t jobs = 0;
  std::int64_t late = 0;
  double turnaround_sum_s = 0.0;
  std::uint64_t invocations = 0;

  void add(const mrcp::sim::SimMetrics::Aggregate& a, std::uint64_t calls) {
    jobs += a.jobs;
    late += a.late;
    turnaround_sum_s += a.mean_turnaround_s * static_cast<double>(a.jobs);
    invocations += calls;
  }
  double P() const {
    return jobs == 0 ? 0.0 : 100.0 * static_cast<double>(late) / static_cast<double>(jobs);
  }
  double T() const {
    return jobs == 0 ? 0.0 : turnaround_sum_s / static_cast<double>(jobs);
  }
  std::string json() const {
    return "{\"P_late_pct\":" + num(P()) + ",\"T_turnaround_s\":" + num(T()) +
           ",\"N_late\":" + std::to_string(late) +
           ",\"rm_invocations\":" + std::to_string(invocations) + "}";
  }
};

/// The traced run covers the first few instances only: per-layer figures
/// attribute time between layers and need no pooling across seeds, and
/// the traced pass costs about four simulations per instance.
constexpr std::size_t kTracedInstances = 4;

std::size_t instance_count(const Args& a, const WorkloadSpec& spec) {
  if (a.smoke) return std::min<std::size_t>(2, spec.instances);
  return a.trace ? std::min(kTracedInstances, spec.instances) : spec.instances;
}

// ---- --trace 0: end-to-end metrics ----

int run_end_to_end(const Args& a, const WorkloadSpec& spec, std::size_t jobs) {
  Tracer off(false);
  const Setup setup = make_inputs(spec, a.seed, instance_count(a, spec), jobs,
                                  a.smoke ? 1 : 3, off);

  // Rounds over all instances until the time is up; every round must
  // reproduce each instance's outcome exactly.
  const int min_rounds = a.smoke ? 1 : 2;
  std::vector<double> o_ms;        // per round, raw
  std::vector<double> jobs_per_s;  // per round, raw
  std::vector<double> probe_s;     // per round, median of its probes
  std::vector<std::string> keys;
  Quality quality;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  mrcp::Stopwatch clock;
  for (int round = 0; round < min_rounds || clock.elapsed_seconds() < a.seconds;
       ++round) {
    double sched_s = 0.0;
    double wall_s = 0.0;
    std::size_t round_jobs = 0;
    std::vector<double> probes;
    for (std::size_t i = 0; i < setup.instances.size(); ++i) {
      const mrcp::Workload& w = setup.instances[i];
      probes.push_back(host_probe_s());
      const SimRun r = run_mrcp(spec, w, setup.seeds[i], /*validate=*/true,
                                /*durability=*/true, a.tmp_dir, off);
      attempted += w.size();
      failed += incomplete_jobs(r.metrics);
      sched_s += r.metrics.total_sched_seconds;
      wall_s += r.wall_s;
      round_jobs += w.size();
      const std::string key = outcome_key(r);
      if (round == 0) {
        keys.push_back(key);
        quality.add(r.quality, r.metrics.rm_invocations);
        journal_bytes += r.journal_bytes;
        snapshot_bytes += r.snapshot_bytes;
      } else if (key != keys[i]) {
        gate_failure("round " + std::to_string(round) + " changed instance " +
                     std::to_string(i) + "'s outcome: [" + key + "] vs [" +
                     keys[i] + "]; results depend on host speed");
      }
    }
    probes.push_back(host_probe_s());
    probe_s.push_back(median(probes));
    o_ms.push_back(sched_s / static_cast<double>(round_jobs) * 1e3);
    jobs_per_s.push_back(static_cast<double>(round_jobs) / wall_s);
  }
  // Normalize to the reference host speed (see kProbeReferenceS).
  const auto at_reference = [](const std::vector<double>& t,
                               const std::vector<double>& probe) {
    std::vector<double> out;
    for (std::size_t i = 0; i < t.size(); ++i) {
      out.push_back(t[i] * kProbeReferenceS / probe[i]);
    }
    return out;
  };
  std::vector<double> jobs_per_s_ref;
  for (std::size_t i = 0; i < jobs_per_s.size(); ++i) {
    jobs_per_s_ref.push_back(jobs_per_s[i] * probe_s[i] / kProbeReferenceS);
  }
  const auto json_list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (double x : v) {
      if (out.size() > 1) out += ',';
      out += num(x);
    }
    return out + "]";
  };

  Report rep;
  rep.metric("setup_s", "s", median(at_reference(setup.total_s, setup.probe_s)));
  rep.metric("O_sched_ms", "ms", median(at_reference(o_ms, probe_s)));
  rep.metric("sim_jobs_per_s", "1/s", median(jobs_per_s_ref));
  rep.metric("T_turnaround_s", "s", quality.T());
  rep.metric("peak_rss_mb", "MB", peak_rss_mb());
  rep.info("build", build_json());
  rep.info("instances", std::to_string(setup.instances.size()));
  rep.info("jobs", std::to_string(setup.instances.size() * jobs));
  rep.info("repetitions", std::to_string(o_ms.size()));
  rep.info("quality", quality.json());
  rep.info("raw_setup_s", json_list(setup.total_s));
  rep.info("raw_O_sched_ms", json_list(o_ms));
  rep.info("raw_sim_jobs_per_s", json_list(jobs_per_s));
  rep.info("probe_s", json_list(probe_s));
  if (spec.snapshot_every > 0) {
    rep.info("journal_bytes", std::to_string(journal_bytes));
    rep.info("snapshot_bytes", std::to_string(snapshot_bytes));
  }
  std::printf("%s\n", rep.to_json(failed == 0, attempted, failed).c_str());
  return 0;
}

// ---- --trace 1: per-layer metrics ----

struct CaptureTotals {
  std::size_t models = 0;
  std::size_t combined = 0;
  double build_s = 0.0;
  double validate_model_s = 0.0;
  double search_root_s = 0.0;
  std::vector<double> solve_s;
  double portfolio_s = 0.0;
  double improvement_s = 0.0;
  double lns_s = 0.0;
  std::int64_t lns_improvements = 0;
  double matchmake_s = 0.0;
  double validate_plan_s = 0.0;
  double fallback_s = 0.0;
};

/// Standalone timings of each layer on the captured live sets.
void time_captures(const std::vector<CapturedLiveSet>& captures,
                   const mrcp::Workload& w, const mrcp::MrcpConfig& config,
                   Tracer& tracer, CaptureTotals& t) {
  std::vector<const mrcp::Job*> jobs_by_id(w.jobs.size(), nullptr);
  for (const mrcp::Job& j : w.jobs) jobs_by_id[static_cast<std::size_t>(j.id)] = &j;

  for (const CapturedLiveSet& cap : captures) {
    Tracer::Scope span(tracer, "bench.captured_model");
    ++t.models;
    t.combined += cap.combined ? 1 : 0;

    Tracer::Scope build(tracer, "core.build_model");
    const mrcp::BuiltModel bm = cap.combined
                                    ? mrcp::build_combined_model(cap.cluster, cap.live)
                                    : mrcp::build_direct_model(cap.cluster, cap.live);
    t.build_s += build.close();

    Tracer::Scope validate(tracer, "cp.model_validate");
    const std::string model_err = bm.model.validate();
    t.validate_model_s += validate.close();
    if (!model_err.empty()) gate_failure("captured model invalid: " + model_err);

    Tracer::Scope root_span(tracer, "cp.search_root");
    const mrcp::cp::SearchRoot root(bm.model);
    t.search_root_s += root_span.close();

    mrcp::cp::SolveParams params = config.solve;
    params.seed = config.solve.seed + cap.plan.epoch * 0x9E3779B9ULL;
    Tracer::Scope solve(tracer, "cp.solve");
    const mrcp::cp::SolveResult r = mrcp::cp::solve(bm.model, params, nullptr, &root);
    t.solve_s.push_back(solve.close());
    if (!r.best.valid) gate_failure("captured model: solver found no schedule");
    t.portfolio_s += r.stats.portfolio_seconds;
    t.improvement_s += r.stats.improvement_seconds;
    t.lns_s += r.stats.lns_seconds;
    t.lns_improvements += r.stats.lns_improvements;

    if (bm.combined) {
      std::map<std::pair<mrcp::JobId, int>, mrcp::ResourceId> running;
      for (const mrcp::LiveJob& lj : cap.live) {
        for (const mrcp::LiveTask& lt : lj.tasks) {
          if (lt.started) running[{lj.id, lt.task_index}] = lt.resource;
        }
      }
      std::vector<mrcp::MatchItem> items(bm.task_refs.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        const auto ti = static_cast<mrcp::cp::CpTaskIndex>(i);
        const mrcp::cp::CpTask& ct = bm.model.task(ti);
        const mrcp::cp::TaskPlacement& p = r.best.placements[i];
        items[i].type = ct.phase == mrcp::cp::Phase::kMap ? mrcp::TaskType::kMap
                                                          : mrcp::TaskType::kReduce;
        items[i].start = p.start;
        items[i].end = p.start + bm.model.duration_on(ti, p.resource);
        items[i].pinned = ct.pinned;
        if (ct.pinned) items[i].pinned_resource = running.at(bm.task_refs[i]);
      }
      Tracer::Scope mm(tracer, "core.matchmake");
      const std::vector<mrcp::ResourceId> hosts = mrcp::matchmake(cap.cluster, items);
      t.matchmake_s += mm.close();
      MRCP_CHECK(hosts.size() == items.size());
    }

    Tracer::Scope vp(tracer, "core.validate_plan");
    const std::string plan_err = mrcp::validate_plan(cap.plan, cap.cluster, jobs_by_id);
    t.validate_plan_s += vp.close();
    if (!plan_err.empty()) gate_failure("published plan invalid: " + plan_err);

    Tracer::Scope fb(tracer, "core.fallback_schedule");
    const mrcp::cp::Solution greedy = mrcp::fallback_schedule(bm.model);
    t.fallback_s += fb.close();
    if (!greedy.valid) gate_failure("captured model: fallback found no schedule");
  }
}

/// Sums over a workload's instances of what the traced run measures.
struct TracedTotals {
  double simulate_s = 0.0;
  double sched_s = 0.0;
  double validate_s = 0.0;
  double plain_simulate_s = 0.0;  ///< without the journal (durable workloads)
  std::uint64_t rm_invocations = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  Quality quality;
  // Replay.
  bool consistent = true;
  std::vector<double> reschedule_s;
  double replay_s = 0.0;
  std::uint64_t budget_bound_calls = 0;
  mrcp::MrcpStats stats;  ///< summed; max_live_tasks is the maximum
  std::uint64_t skipped = 0;
  CaptureTotals captures;
  // Baseline.
  double baseline_s = 0.0;
  double baseline_sched_s = 0.0;
  std::size_t baseline_jobs = 0;
  Quality baseline_quality;
};

void add_stats(mrcp::MrcpStats& sum, const mrcp::MrcpStats& s) {
  sum.invocations += s.invocations;
  sum.total_sched_seconds += s.total_sched_seconds;
  sum.solver_decisions += s.solver_decisions;
  sum.solver_fails += s.solver_fails;
  sum.max_live_tasks = std::max(sum.max_live_tasks, s.max_live_tasks);
  sum.solve_attempts += s.solve_attempts;
  sum.fallback_plans += s.fallback_plans;
  sum.jobs_parked += s.jobs_parked;
  sum.solve_wall_seconds += s.solve_wall_seconds;
  sum.model_cache_hits += s.model_cache_hits;
  sum.model_cache_misses += s.model_cache_misses;
  sum.warm_starts_used += s.warm_starts_used;
  sum.dirty_promotions += s.dirty_promotions;
}

void trace_instance(const WorkloadSpec& spec, const mrcp::Workload& w,
                    std::uint64_t seed, std::uint64_t capture_every,
                    const std::string& tmp_dir, Tracer& tracer, TracedTotals& t) {
  // sim: simulate_mrcp with the validator off, then the validator alone.
  const SimRun sim = run_mrcp(spec, w, seed, /*validate=*/false,
                              /*durability=*/true, tmp_dir, tracer);
  {
    Tracer::Scope span(tracer, "sim.validate_execution");
    const std::string err = mrcp::sim::validate_execution(
        w, sim.metrics.executed, sim.metrics.killed, sim.metrics.downtime);
    t.validate_s += span.close();
    if (!err.empty()) gate_failure("execution validator: " + err);
  }
  if (incomplete_jobs(sim.metrics) != 0) gate_failure("jobs did not complete");
  t.simulate_s += sim.wall_s;
  t.sched_s += sim.metrics.total_sched_seconds;
  t.rm_invocations += sim.metrics.rm_invocations;
  t.journal_bytes += sim.journal_bytes;
  t.snapshot_bytes += sim.snapshot_bytes;
  t.quality.add(sim.quality, sim.metrics.rm_invocations);
  // The untraced reference for the tracing overhead: the same simulation
  // without the journal (a second run only where the journal is on).
  double plain_s = sim.wall_s;
  if (spec.snapshot_every > 0) {
    const SimRun plain = run_mrcp(spec, w, seed, /*validate=*/false,
                                  /*durability=*/false, tmp_dir, tracer);
    if (outcome_key(plain) != outcome_key(sim)) {
      gate_failure("the journal changed the schedule outcome");
    }
    plain_s = plain.wall_s;
  }
  t.plain_simulate_s += plain_s;

  // core: the replay, every RM call timed.
  const ReplayResult replay = replay_mrcp(
      w, spec.config, sim_options(spec, seed, false).faults, capture_every, tracer);
  mrcp::sim::SimMetrics replay_metrics;
  replay_metrics.records = replay.records;
  const auto replay_quality = replay_metrics.aggregate(kWarmupFraction);
  t.consistent = t.consistent &&
                 replay.stats.invocations == sim.metrics.rm_invocations &&
                 degradation_key(replay.degradation) ==
                     degradation_key(sim.metrics.degradation) &&
                 replay_quality.late == sim.quality.late &&
                 replay_quality.mean_turnaround_s == sim.quality.mean_turnaround_s;
  t.reschedule_s.insert(t.reschedule_s.end(), replay.reschedule_seconds.begin(),
                        replay.reschedule_seconds.end());
  t.replay_s += replay.wall_seconds;
  t.budget_bound_calls += replay.budget_bound_calls;
  add_stats(t.stats, replay.stats);
  t.skipped += replay.degradation.skipped;
  time_captures(replay.captures, w, spec.config, tracer, t.captures);

  // baseline: MinEDF-WC on identical inputs and faults.
  Tracer::Scope span(tracer, "baseline.simulate_minedf");
  const mrcp::sim::SimMetrics base =
      mrcp::sim::simulate_minedf(w, {}, sim_options(spec, seed, true));
  t.baseline_s += span.close();
  t.baseline_sched_s += base.total_sched_seconds;
  t.baseline_jobs += w.size();
  t.baseline_quality.add(base.aggregate(kWarmupFraction), 0);
}

int run_traced(const Args& a, const WorkloadSpec& spec, std::size_t jobs) {
  Tracer tracer(true);
  const Setup setup = make_inputs(spec, a.seed, instance_count(a, spec), jobs,
                                  a.smoke ? 1 : 3, tracer);
  TracedTotals t;
  for (std::size_t i = 0; i < setup.instances.size(); ++i) {
    trace_instance(spec, setup.instances[i], setup.seeds[i],
                   a.smoke ? 5 : spec.capture_every, a.tmp_dir, tracer, t);
  }
  const mrcp::MrcpStats& st = t.stats;
  const CaptureTotals& cap = t.captures;

  Report rep;
  rep.metric("mapreduce.generate_s", "s", median(setup.generate_s));
  rep.metric("mapreduce.io_roundtrip_s", "s", median(setup.roundtrip_s));

  rep.metric("sim.simulate_s", "s", t.simulate_s);
  rep.metric("sim.self_s", "s", t.simulate_s - t.sched_s);
  rep.metric("sim.validate_s", "s", t.validate_s);
  rep.metric("sim.rm_invocations", "count", static_cast<double>(t.rm_invocations));
  rep.metric("sim.P_late_pct", "%", t.quality.P());
  rep.metric("sim.N_late", "count", static_cast<double>(t.quality.late));

  // Per-call figures need a replay that matched the simulator; otherwise
  // only the RM's own totals are reported.
  const double resched_total = t.consistent ? sum(t.reschedule_s) : st.total_sched_seconds;
  const auto per_call = [&](double q) {
    return t.consistent ? percentile(t.reschedule_s, q) * 1e3 : 0.0;
  };
  rep.metric("core.reschedule_calls", "count", static_cast<double>(st.invocations));
  rep.metric("core.reschedule_p50_ms", "ms", per_call(0.5));
  rep.metric("core.reschedule_p99_ms", "ms", per_call(0.99));
  rep.metric("core.reschedule_max_ms", "ms", per_call(1.0));
  rep.metric("core.reschedule_total_s", "s", resched_total);
  rep.metric("core.self_s", "s", resched_total - st.solve_wall_seconds);
  rep.metric("core.live_tasks_max", "count", static_cast<double>(st.max_live_tasks));
  rep.metric("core.solve_attempts", "count", static_cast<double>(st.solve_attempts));
  rep.metric("core.fallback_plans", "count", static_cast<double>(st.fallback_plans));
  rep.metric("core.jobs_parked", "count", static_cast<double>(st.jobs_parked));
  rep.metric("core.skipped_invocations", "count", static_cast<double>(t.skipped));
  rep.metric("core.model_cache_hits", "count", static_cast<double>(st.model_cache_hits));
  const std::uint64_t lookups = st.model_cache_hits + st.model_cache_misses;
  rep.metric("core.model_cache_hit_ratio", "ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(st.model_cache_hits) /
                                static_cast<double>(lookups));
  rep.metric("core.warm_starts_used", "count", static_cast<double>(st.warm_starts_used));
  rep.metric("core.dirty_promotions", "count", static_cast<double>(st.dirty_promotions));
  rep.metric("core.budget_bound_calls", "count", static_cast<double>(t.budget_bound_calls));
  rep.metric("core.journal_bytes", "bytes", static_cast<double>(t.journal_bytes));
  rep.metric("core.snapshot_bytes", "bytes", static_cast<double>(t.snapshot_bytes));
  rep.metric("core.journal_overhead_s", "s", t.simulate_s - t.plain_simulate_s);
  rep.metric("core.captured_models", "count", static_cast<double>(cap.models));
  rep.metric("core.build_model_s", "s", cap.build_s);
  rep.metric("core.matchmake_s", "s", cap.matchmake_s);
  rep.metric("core.validate_plan_s", "s", cap.validate_plan_s);
  rep.metric("core.fallback_schedule_s", "s", cap.fallback_s);

  rep.metric("cp.solve_s", "s", sum(cap.solve_s));
  rep.metric("cp.solve_p50_ms", "ms", percentile(cap.solve_s, 0.5) * 1e3);
  rep.metric("cp.solve_p99_ms", "ms", percentile(cap.solve_s, 0.99) * 1e3);
  rep.metric("cp.decisions", "count", static_cast<double>(st.solver_decisions));
  rep.metric("cp.fails", "count", static_cast<double>(st.solver_fails));
  rep.metric("cp.decisions_per_s", "1/s",
             st.solve_wall_seconds > 0.0
                 ? static_cast<double>(st.solver_decisions) / st.solve_wall_seconds
                 : 0.0);
  rep.metric("cp.phase_portfolio_s", "s", cap.portfolio_s);
  rep.metric("cp.phase_improvement_s", "s", cap.improvement_s);
  rep.metric("cp.phase_lns_s", "s", cap.lns_s);
  rep.metric("cp.lns_improvements", "count", static_cast<double>(cap.lns_improvements));
  rep.metric("cp.model_validate_s", "s", cap.validate_model_s);
  rep.metric("cp.search_root_s", "s", cap.search_root_s);

  rep.metric("baseline.simulate_s", "s", t.baseline_s);
  rep.metric("baseline.O_sched_ms", "ms",
             t.baseline_sched_s / static_cast<double>(t.baseline_jobs) * 1e3);
  rep.metric("baseline.P_late_pct", "%", t.baseline_quality.P());
  rep.metric("baseline.T_turnaround_s", "s", t.baseline_quality.T());

  // Tracing overhead: the traced replay against the untraced simulation
  // of the same inputs (both without the validator and the journal).
  rep.metric("trace.overhead_s", "s", t.replay_s - t.plain_simulate_s);

  rep.info("build", build_json());
  rep.info("instances", std::to_string(setup.instances.size()));
  rep.info("jobs", std::to_string(setup.instances.size() * jobs));
  rep.info("quality", t.quality.json());
  rep.info("replay_consistent", t.consistent ? "true" : "false");
  rep.info("spans", std::to_string(tracer.spans().size()));
  rep.info("combined_captures", std::to_string(cap.combined));
  if (!t.consistent) {
    rep.note("the replay diverged from simulate_mrcp: core.* come from the "
             "RM's MrcpStats totals only, and the per-call percentiles read 0");
  }
  rep.note("cp.lns_accept_ratio is not measured: cp::solve does not expose "
           "how many LNS neighbourhoods it evaluated");
  if (t.budget_bound_calls != 0) {
    gate_failure(std::to_string(t.budget_bound_calls) +
                 " reschedule calls reached the solver budget");
  }
  if (st.dirty_promotions != 0) gate_failure("dirty_promotions is not 0");

  if (!a.span_out.empty()) {
    std::ofstream out(a.span_out);
    out << tracer.to_json();
    if (!out) gate_failure("cannot write " + a.span_out);
    rep.info("span_file", "\"" + json_escape(a.span_out) + "\"");
  }
  std::printf("%s\n", rep.to_json(true, setup.instances.size() * jobs, 0).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) usage_error("unknown workload " + a.workload);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "mrcpbench: refusing to report from this build: %s\n",
                 refusal.c_str());
    return 3;
  }
  const std::size_t jobs = a.smoke ? spec->smoke_jobs : spec->jobs;
  return a.trace ? run_traced(a, *spec, jobs) : run_end_to_end(a, *spec, jobs);
}
