// Anytime CP solver facade.
//
// This plays the role CPLEX's CP Optimizer plays in the paper: given a
// Model it returns the best schedule it can find within a budget,
// minimizing the number of late jobs. The strategy is
//   1. a portfolio of first-descent searches, one per (job-ordering
//      strategy, intra-job order) pair — the orderings (EDF, least
//      laxity, job id, FCFS) are the list schedules the paper's §VI.B
//      ordering experiment compares. The portfolio stops at the first
//      member, in member order, whose late count reaches the root's
//      late lower bound (SearchRoot::late_lower_bound): no later member
//      could have strictly fewer late jobs, so the result is unchanged;
//   2. a set-times branch-and-bound improvement run seeded with the
//      portfolio incumbent;
//   3. large-neighbourhood search: randomized perturbations of the job
//      ranking around late jobs, each evaluated with a cheap first
//      descent, accepting improvements.
// Phase 2 and 3 only run while jobs are still late — a zero-late
// incumbent is optimal for the paper's objective.
//
// With num_threads > 1 the portfolio members and each LNS round's
// neighbourhoods run concurrently on a ThreadPool, sharing an atomic
// incumbent late-count that prunes strictly-worse branches; a member
// above the first one that reached the root bound skips. Winner
// selection happens deterministically after the barrier, so for a fixed
// seed the result is independent of thread count and timing (as long as
// the wall-clock budget does not bind) — see docs/cp_engine.md.
#pragma once

#include <cstdint>
#include <vector>

#include "cp/model.h"
#include "cp/search.h"
#include "cp/solution.h"

namespace mrcp::cp {

struct SolveParams {
  /// Orderings to try in the greedy portfolio, in order.
  std::vector<JobOrdering> portfolio = {JobOrdering::kEdf,
                                        JobOrdering::kLeastLaxity,
                                        JobOrdering::kJobId};
  /// Fail budget of the branch-and-bound improvement run (0 disables it).
  std::int64_t improvement_fails = 2000;
  int postpone_tries = 2;
  /// LNS restarts after the improvement run (0 disables LNS).
  int lns_iterations = 20;
  /// LNS neighbourhoods generated and evaluated per round. All of a
  /// round's neighbourhoods are derived from the incumbent at the start
  /// of the round (RNG draws in a fixed order) and their acceptance is
  /// folded in generation order, so results depend on this value but —
  /// for a fixed value — not on num_threads. 1 reproduces the purely
  /// sequential accept-then-regenerate behaviour.
  int lns_batch = 1;
  /// Overall wall-clock budget for the solve.
  double time_limit_s = 0.5;
  std::uint64_t seed = 1;
  /// Worker threads for the portfolio and LNS phases: 1 = run in the
  /// calling thread (default), 0 = one worker per hardware thread, n >
  /// 1 = exactly n workers. For a fixed seed the returned solution is
  /// identical for every value whenever time_limit_s does not bind.
  int num_threads = 1;
  /// Optional hard watchdog shared by every phase (portfolio descents,
  /// B&B improvement, LNS): once expired, running searches abort at the
  /// next check — even mid-descent, so the solve may return no solution
  /// at all (SolveStatus::kBudgetExhausted). Callers own the Deadline;
  /// nullptr (the default) keeps the anytime guarantee that a validated
  /// model always yields a schedule. See docs/degraded_mode.md.
  const Deadline* hard_deadline = nullptr;
};

/// What the solver can promise about its result.
enum class SolveStatus : std::uint8_t {
  kOptimal,          ///< proved optimal (zero late jobs or exhausted search)
  kFeasible,         ///< best-effort schedule found within the budget
  kBudgetExhausted,  ///< hard deadline expired before any solution existed
  kInfeasible,       ///< search space exhausted without a solution
};

const char* solve_status_name(SolveStatus status);

struct SolveStats {
  std::int64_t decisions = 0;
  std::int64_t fails = 0;
  std::int64_t solutions = 0;
  /// Summed SearchStats work counters over every search of the solve.
  std::int64_t feasibility_queries = 0;
  std::int64_t choice_builds = 0;
  std::int64_t levels_expanded = 0;
  /// Portfolio members that ran. The others were skipped because an
  /// earlier member reached the root's late lower bound, or because the
  /// budget ran out.
  std::int64_t members_run = 0;
  int lns_improvements = 0;
  double solve_seconds = 0.0;
  /// Per-phase wall-clock breakdown (sums to ~solve_seconds): greedy
  /// portfolio, branch-and-bound improvement, LNS. Feeds the perf bench
  /// (bench/cp_micro.cpp) so regressions are attributable to a phase.
  double portfolio_seconds = 0.0;
  double improvement_seconds = 0.0;
  double lns_seconds = 0.0;
  JobOrdering best_ordering = JobOrdering::kEdf;
  bool proved_optimal = false;  ///< zero late jobs, or search exhausted
  bool aborted = false;         ///< some search hit the hard deadline
};

struct SolveResult {
  Solution best;
  SolveStats stats;
  /// What `best` is: with the default params (no hard deadline) this is
  /// always kOptimal or kFeasible and `best.valid` holds; a hard
  /// deadline adds the kBudgetExhausted outcome where `best` is invalid
  /// and the caller must fall back (docs/degraded_mode.md).
  SolveStatus status = SolveStatus::kFeasible;
  /// Wall-clock seconds this solve actually consumed (== stats.solve_seconds,
  /// surfaced here so budget-bound solves are visible next to `status`).
  double wall_seconds = 0.0;
};

/// Solve the model. The model must pass Model::validate(). If
/// `warm_start` is a valid solution for this model it seeds the bound.
///
/// `shared_root` lets a caller that solves the same model repeatedly, or
/// that times the root separately (mrcpbench), reuse one SearchRoot
/// instead of replaying pins and re-deriving static state on every
/// call. It must have been constructed for exactly this `model`
/// object (checked); nullptr builds a private root as before.
SolveResult solve(const Model& model, const SolveParams& params,
                  const Solution* warm_start = nullptr,
                  const SearchRoot* shared_root = nullptr);

}  // namespace mrcp::cp
