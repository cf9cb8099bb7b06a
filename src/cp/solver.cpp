#include "cp/solver.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "cp/audit.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace mrcp::cp {

namespace {

/// Per-job intra-order selection for the adaptive portfolio member: LPT
/// for jobs whose deadline is tight relative to a capacity-aware
/// makespan lower bound (LPT reproduces the minimum-makespan list
/// schedule), FIFO for loose jobs (staggered task endings leave earlier
/// holes for future arrivals).
std::vector<std::uint8_t> adaptive_lpt_flags(const Model& model) {
  // Total slot capacity per phase across all resources.
  std::int64_t map_slots = 0;
  std::int64_t reduce_slots = 0;
  for (const CpResource& r : model.resources()) {
    map_slots += r.map_capacity;
    reduce_slots += r.reduce_capacity;
  }
  map_slots = std::max<std::int64_t>(map_slots, 1);
  reduce_slots = std::max<std::int64_t>(reduce_slots, 1);

  std::vector<Time> map_work(model.num_jobs(), Time{0});
  std::vector<Time> map_max(model.num_jobs(), Time{0});
  std::vector<Time> reduce_work(model.num_jobs(), Time{0});
  std::vector<Time> reduce_max(model.num_jobs(), Time{0});
  for (const CpTask& t : model.tasks()) {
    const auto j = static_cast<std::size_t>(t.job);
    if (t.phase == Phase::kMap) {
      map_work[j] += t.duration;
      map_max[j] = std::max(map_max[j], t.duration);
    } else {
      reduce_work[j] += t.duration;
      reduce_max[j] = std::max(reduce_max[j], t.duration);
    }
  }
  std::vector<std::uint8_t> flags(model.num_jobs(), 0);
  for (std::size_t j = 0; j < model.num_jobs(); ++j) {
    const CpJob& job = model.job(static_cast<CpJobIndex>(j));
    const Time lb =
        std::max(map_max[j], ceil_div(map_work[j], map_slots)) +
        std::max(reduce_max[j],
                 ceil_div(reduce_work[j], reduce_slots));
    if (lb <= Time{0}) continue;
    const Time budget = job.deadline - job.earliest_start;
    // Tight: less than ~30% slack over the alone-on-the-cluster bound.
    flags[j] = budget * 10 < lb * 13 ? 1 : 0;
  }
  return flags;
}

/// Ranks with one job promoted to the front (all ranks below its old rank
/// shift up by one). Used by LNS to give a late job first pick.
std::vector<int> promote_job(const std::vector<int>& ranks, std::size_t job) {
  std::vector<int> out = ranks;
  const int old_rank = out[job];
  for (auto& r : out) {
    if (r < old_rank) ++r;
  }
  out[job] = 0;
  return out;
}

/// One worker's result slot, cache-line padded: the portfolio and LNS
/// phases write these concurrently from different threads, and without
/// the alignment two neighbouring slots share a line and every write
/// ping-pongs it between cores (false sharing).
struct alignas(64) ResultSlot {
  Solution sol;
  SearchStats stats;
  bool ran = false;
};

}  // namespace

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible";
    case SolveStatus::kBudgetExhausted: return "budget-exhausted";
    case SolveStatus::kInfeasible: return "infeasible";
  }
  return "unknown";
}

SolveResult solve(const Model& model, const SolveParams& params,
                  const Solution* warm_start, const SearchRoot* shared_root) {
  const std::string model_error = model.validate();
  MRCP_CHECK_MSG(model_error.empty(), model_error.c_str());
  Stopwatch timer;
  SolveResult result;
  SolveStats& stats = result.stats;

  Solution best;
  if (warm_start && warm_start->valid) best = *warm_start;

  auto remaining = [&]() {
    double r = params.time_limit_s - timer.elapsed_seconds();
    if (params.hard_deadline != nullptr) {
      r = std::min(r, params.hard_deadline->remaining_seconds());
    }
    return r;
  };
  auto account = [&](const SearchStats& st) {
    stats.decisions += st.decisions;
    stats.fails += st.fails;
    stats.solutions += st.solutions;
    stats.feasibility_queries += st.feasibility_queries;
    stats.choice_builds += st.choice_builds;
    stats.levels_expanded += st.levels_expanded;
    stats.aborted = stats.aborted || st.aborted;
  };

  const int num_threads = ThreadPool::resolve_num_threads(params.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  // Shared immutable root (pinned-task replay, static lateness, the
  // precedence DAG) plus one cached search object per executor thread:
  // portfolio members and LNS neighbourhoods re-target a cached search
  // with reset() — O(decision-order rebuild) — instead of reconstructing
  // profiles and re-running the priority-topo sort per member, which is
  // what made two solver threads slower than one (docs/perf.md). Slot
  // layout: pool workers use their worker id; the calling thread (the
  // sequential path and the B&B phase) uses the last slot. A caller that
  // re-solves a persistent model across invocations can pass its own
  // root and skip this construction entirely.
  std::optional<SearchRoot> owned_root;
  if (shared_root != nullptr) {
    MRCP_CHECK_MSG(&shared_root->model() == &model,
                   "shared SearchRoot was built for a different model");
  } else {
    owned_root.emplace(model);
  }
  const SearchRoot& root = shared_root != nullptr ? *shared_root : *owned_root;
  std::vector<std::unique_ptr<SetTimesSearch>> searches(
      static_cast<std::size_t>(pool ? num_threads + 1 : 1));
  auto local_search = [&]() -> SetTimesSearch& {
    const int wid = pool ? ThreadPool::current_worker_id() : -1;
    auto& slot = searches[wid >= 0 ? static_cast<std::size_t>(wid)
                                   : searches.size() - 1];
    if (!slot) slot = std::make_unique<SetTimesSearch>(root);
    return *slot;
  };

  // Shared incumbent late-count: workers publish every solution they
  // find and cut branches that strictly exceed it. The winner fold below
  // stays bit-identical to the sequential semantics because a search
  // that ties the bound is never cut (see SearchLimits::shared_late_bound).
  std::atomic<int> shared_late{best.valid ? best.num_late
                                          : std::numeric_limits<int>::max()};
  MRCP_AUDIT_ONLY(audit::SharedBoundAuditor bound_auditor;)
  auto descent_limits = [&](double floor_s) {
    SearchLimits limits;
    limits.max_fails = 0;
    limits.stop_after_first_solution = true;
    limits.postpone_tries = 0;
    limits.time_limit_s = std::max(remaining(), floor_s);
    limits.shared_late_bound = &shared_late;
    limits.hard_deadline = params.hard_deadline;
    MRCP_AUDIT_ONLY(limits.bound_auditor = &bound_auditor;)
    return limits;
  };

  // Phase 1: greedy portfolio over (job ordering, intra-job task order).
  // LPT within jobs reproduces each job's minimum-makespan list schedule
  // (a lone job finishes exactly at its TE); FIFO staggers task endings,
  // which helps later tight-deadline arrivals find early slot holes.
  std::vector<int> best_ranks;
  std::vector<std::uint8_t> best_lpt(model.num_jobs(), 0);
  MRCP_CHECK(!params.portfolio.empty());
  // Intra-order variants, first-listed wins objective ties: adaptive
  // (LPT only where the deadline demands it) is preferred — staggered
  // task endings leave earlier holes for future arrivals, a benefit the
  // per-solve objective cannot see; all-FIFO and all-LPT must strictly
  // improve to be chosen.
  const std::vector<std::uint8_t> adaptive = adaptive_lpt_flags(model);
  const std::vector<std::vector<std::uint8_t>> intra_variants = {
      adaptive, std::vector<std::uint8_t>(model.num_jobs(), 0),
      std::vector<std::uint8_t>(model.num_jobs(), 1)};

  // Member i runs ordering i / |variants| with intra variant i % |variants|.
  // An ordering's ranks are computed when its first member runs, so a
  // solve that stops at an EDF member never ranks by the other orderings.
  struct Ranking {
    std::once_flag once;
    std::vector<int> ranks;
  };
  std::vector<Ranking> rankings(params.portfolio.size());
  auto member_ordering = [&](std::size_t i) {
    return params.portfolio[i / intra_variants.size()];
  };
  auto member_ranks = [&](std::size_t i) -> const std::vector<int>& {
    Ranking& r = rankings[i / intra_variants.size()];
    std::call_once(r.once, [&] {
      r.ranks = make_job_ranks(model, member_ordering(i));
    });
    return r.ranks;
  };
  auto member_lpt = [&](std::size_t i) -> const std::vector<std::uint8_t>& {
    return intra_variants[i % intra_variants.size()];
  };
  const std::size_t num_members =
      params.portfolio.size() * intra_variants.size();

  // Early stop: the root's statically late jobs are late in every leaf,
  // so once a member reaches that count no later member can win the
  // strictly-fewer fold below. `first_at_bound` is the lowest member
  // index that reached it, and members above it skip. The fold's winner
  // always runs — it is the first member at the minimum, so no member
  // before it can have set the index — which keeps the result identical
  // to running every member, on any number of threads.
  const int late_bound = root.late_lower_bound();
  std::atomic<std::size_t> first_at_bound{num_members};
  std::vector<ResultSlot> member_results(num_members);
  auto run_member = [&](std::size_t i) {
    if (i > first_at_bound.load()) return;
    // An exhausted budget skips the member before any setup — the same
    // monotone check on both the sequential and the pool path, so both
    // do identical work when the budget binds (slot stays ran = false).
    if (remaining() <= 0.0 && best.valid) return;
    ResultSlot& out = member_results[i];
    out.ran = true;
    const SearchLimits limits = descent_limits(0.05);
    SetTimesSearch& search = local_search();
    search.reset(member_ranks(i), member_lpt(i));
    out.sol = search.run(limits, nullptr, &out.stats);
    if (out.sol.valid && out.sol.num_late <= late_bound) {
      std::size_t first = first_at_bound.load();
      while (i < first && !first_at_bound.compare_exchange_weak(first, i)) {
      }
    }
  };
  if (pool) {
    pool->run_indexed(num_members, run_member);
  } else {
    for (std::size_t i = 0; i < num_members; ++i) run_member(i);
  }
  // Post-barrier audit, before the fold consumes the member solutions:
  // every member that ran must have produced a constraint-satisfying
  // solution no better than the root bound, and the fold below must land
  // exactly on the best late-count in the member set — a pure function
  // of (warm start, member order), which is what makes the winner
  // independent of thread count and completion timing. The EDF/FIFO
  // member is the degraded-mode fallback plan; the final audit checks
  // that the solve never returns anything worse.
  MRCP_AUDIT_ONLY(
      int audit_expected_late = best.valid ? best.num_late
                                           : std::numeric_limits<int>::max();
      int audit_fallback_late = std::numeric_limits<int>::max();
      for (std::size_t i = 0; i < num_members; ++i) {
        if (!member_results[i].ran || !member_results[i].sol.valid) continue;
        MRCP_AUDIT_CHECK(validate_solution(model, member_results[i].sol));
        if (model.num_tasks() <= audit::kAuditModelSizeLimit) {
          MRCP_AUDIT_CHECK(
              audit::brute_force_check_solution(model, member_results[i].sol));
        }
        MRCP_CHECK_MSG(member_results[i].sol.num_late >= late_bound,
                       "root bound audit: a portfolio member has fewer late "
                       "jobs than the root's late lower bound");
        if (member_ordering(i) == JobOrdering::kEdf &&
            i % intra_variants.size() == 1) {  // the all-FIFO variant
          audit_fallback_late = member_results[i].sol.num_late;
        }
        audit_expected_late =
            std::min(audit_expected_late, member_results[i].sol.num_late);
      })
  // Deterministic winner fold, in member order — identical to running
  // the members sequentially. Selection is keyed on the primary
  // objective only: the completion-time tie-break would otherwise always
  // pick all-LPT by an epsilon, re-synchronizing task endings and
  // hurting future arrivals the current model cannot see.
  for (std::size_t i = 0; i < num_members; ++i) {
    if (!member_results[i].ran) continue;
    ++stats.members_run;
    account(member_results[i].stats);
    Solution& sol = member_results[i].sol;
    const bool strictly_fewer_late =
        sol.valid && (!best.valid || sol.num_late < best.num_late);
    if (strictly_fewer_late) {
      best = std::move(sol);
      best_ranks = member_ranks(i);
      best_lpt = member_lpt(i);
      stats.best_ordering = member_ordering(i);
    }
  }
  MRCP_AUDIT_ONLY({
    const int folded = best.valid ? best.num_late
                                  : std::numeric_limits<int>::max();
    MRCP_CHECK_MSG(folded == audit_expected_late,
                   "portfolio fold audit: folded incumbent does not equal "
                   "the best member late-count");
  })
  if (best_ranks.empty()) best_ranks = member_ranks(0);
  stats.portfolio_seconds = timer.elapsed_seconds();

  // Phases 2 and 3 can only help while some job is late.
  const bool improvable = best.valid && best.num_late > 0;

  // Phase 2: branch-and-bound improvement from the portfolio incumbent.
  if (improvable && params.improvement_fails > 0 && remaining() > 0.0) {
    SetTimesSearch& search = local_search();
    search.reset(best_ranks, best_lpt);
    SearchLimits limits;
    limits.max_fails = params.improvement_fails;
    limits.postpone_tries = params.postpone_tries;
    limits.time_limit_s = remaining();
    limits.hard_deadline = params.hard_deadline;
    SearchStats st;
    Solution sol = search.run(limits, &best, &st);
    MRCP_AUDIT_ONLY(if (sol.valid) {
      MRCP_CHECK_MSG(sol.num_late >= late_bound,
                     "root bound audit: the B&B solution has fewer late "
                     "jobs than the root's late lower bound");
    })
    account(st);
    if (st.exhausted) stats.proved_optimal = true;
    if (sol.better_than(best)) best = sol;
  }
  stats.improvement_seconds =
      timer.elapsed_seconds() - stats.portfolio_seconds;

  // Phase 3: LNS — promote a (random) late job to the front of the
  // ranking and take a fresh first descent. Neighbourhoods are generated
  // and evaluated `lns_batch` at a time; every neighbourhood of a round
  // derives from the incumbent at the start of the round, with the RNG
  // drawn in generation order, and acceptance folds in that same order —
  // so the outcome depends on lns_batch but not on num_threads.
  if (improvable && params.lns_iterations > 0) {
    RandomStream rng(params.seed, 0x1A5);
    const int batch = std::max(1, params.lns_batch);
    struct Neighbourhood {
      std::vector<int> ranks;
      std::vector<std::uint8_t> lpt;
    };
    int iters_left = params.lns_iterations;
    std::vector<ResultSlot> round_results;
    while (iters_left > 0) {
      if (best.num_late == 0 || remaining() <= 0.0) break;
      // Collect currently-late jobs.
      std::vector<std::size_t> late_jobs;
      for (std::size_t j = 0; j < best.job_late.size(); ++j) {
        if (best.job_late[j]) late_jobs.push_back(j);
      }
      if (late_jobs.empty()) break;

      const int round = std::min(batch, iters_left);
      iters_left -= round;
      std::vector<Neighbourhood> nbhs;
      nbhs.reserve(static_cast<std::size_t>(round));
      for (int r = 0; r < round; ++r) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(late_jobs.size()) - 1));
        std::vector<int> ranks = promote_job(best_ranks, late_jobs[pick]);
        std::vector<std::uint8_t> lpt = best_lpt;
        // Neighbourhood moves: flip the late job's intra-job order, and
        // occasionally swap two job priorities for diversification.
        if (rng.bernoulli(0.5)) {
          lpt[late_jobs[pick]] = lpt[late_jobs[pick]] != 0 ? 0 : 1;
        }
        if (model.num_jobs() >= 2 && rng.bernoulli(0.5)) {
          const auto a = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(model.num_jobs()) - 1));
          const auto b = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(model.num_jobs()) - 1));
          std::swap(ranks[a], ranks[b]);
        }
        nbhs.push_back(Neighbourhood{std::move(ranks), std::move(lpt)});
      }

      // Between rounds no worker is running (post-barrier), and the fold
      // above already absorbed every published solution, so this reset
      // can never raise the bound — audited in MRCP_AUDIT builds.
      MRCP_AUDIT_ONLY(bound_auditor.on_reset(best.num_late, shared_late);)
      shared_late.store(best.num_late, std::memory_order_relaxed);
      round_results.assign(nbhs.size(), ResultSlot{});
      auto run_neighbourhood = [&](std::size_t r) {
        const SearchLimits limits = descent_limits(0.01);
        SetTimesSearch& search = local_search();
        search.reset(nbhs[r].ranks, nbhs[r].lpt);
        round_results[r].sol = search.run(limits, nullptr, &round_results[r].stats);
      };
      if (pool && nbhs.size() > 1) {
        pool->run_indexed(nbhs.size(), run_neighbourhood);
      } else {
        for (std::size_t r = 0; r < nbhs.size(); ++r) run_neighbourhood(r);
      }
      MRCP_AUDIT_ONLY(
          for (std::size_t r = 0; r < nbhs.size(); ++r) {
            if (!round_results[r].sol.valid) continue;
            MRCP_AUDIT_CHECK(validate_solution(model, round_results[r].sol));
            MRCP_CHECK_MSG(round_results[r].sol.num_late >= late_bound,
                           "root bound audit: an LNS solution has fewer late "
                           "jobs than the root's late lower bound");
          })
      for (std::size_t r = 0; r < nbhs.size(); ++r) {
        account(round_results[r].stats);
        if (round_results[r].sol.better_than(best)) {
          best = std::move(round_results[r].sol);
          best_ranks = std::move(nbhs[r].ranks);
          best_lpt = std::move(nbhs[r].lpt);
          ++stats.lns_improvements;
        }
      }
    }
  }
  stats.lns_seconds = timer.elapsed_seconds() - stats.portfolio_seconds -
                      stats.improvement_seconds;

  // Final-answer audit: the returned schedule must satisfy every model
  // constraint (independent brute-force oracle on small models), be no
  // worse than the EDF/FIFO fallback plan when that member ran, and sit
  // at the root bound when an early stop skipped members; the shared
  // bound must have stayed a running minimum throughout.
  MRCP_AUDIT_ONLY({
    if (best.valid) {
      MRCP_AUDIT_CHECK(validate_solution(model, best));
      if (model.num_tasks() <= audit::kAuditModelSizeLimit) {
        MRCP_AUDIT_CHECK(audit::brute_force_check_solution(model, best));
      }
    }
    MRCP_CHECK_MSG(best.valid ? best.num_late <= audit_fallback_late
                              : audit_fallback_late ==
                                    std::numeric_limits<int>::max(),
                   "fallback audit: the solve returned more late jobs than "
                   "the EDF/FIFO portfolio member");
    if (first_at_bound.load() < num_members) {
      MRCP_CHECK_MSG(best.valid && best.num_late == late_bound,
                     "early-stop audit: a member reached the root bound but "
                     "the solve did not return a solution at it");
    }
    MRCP_AUDIT_CHECK(bound_auditor.error());
  })
  if (best.valid && best.num_late == 0) stats.proved_optimal = true;
  stats.solve_seconds = timer.elapsed_seconds();
  result.wall_seconds = stats.solve_seconds;
  if (best.valid) {
    result.status =
        stats.proved_optimal ? SolveStatus::kOptimal : SolveStatus::kFeasible;
  } else {
    // No solution at all: either the hard deadline cut every descent
    // short (recoverable — the caller escalates per the degraded-mode
    // ladder) or the searches genuinely exhausted an empty space.
    result.status = stats.aborted ? SolveStatus::kBudgetExhausted
                                  : SolveStatus::kInfeasible;
  }
  result.best = std::move(best);
  return result;
}

}  // namespace mrcp::cp
