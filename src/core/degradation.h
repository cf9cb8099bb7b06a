// Degradation ledger: per-invocation attribution of how MRCP-RM obtained
// each published plan (docs/degraded_mode.md).
//
// Every reschedule() appends one InvocationRecord saying which rung of
// the escalation ladder produced the plan — the primary CP solve, a
// frozen-model backoff retry, the EDF fallback scheduler, a backpressure
// short-circuit, or nothing at all (idle / everything parked) — plus how
// many CP attempts ran and how much wall clock they burned. The ledger
// is what makes degraded operation observable: a run that silently fell
// back on every invocation would otherwise look identical to a healthy
// one in the O/N/T/P metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "cp/solver.h"

namespace mrcp {

/// Which rung of the escalation ladder produced an invocation's plan.
enum class InvocationOutcome : std::uint8_t {
  kCpPrimary,  ///< the primary CP solve (healthy path)
  kCpRetry,    ///< a frozen-model retry found its own solution (degraded)
  kFallback,   ///< the EDF fallback scheduler's plan was published (degraded)
  kParked,     ///< nothing schedulable: every live job parked (degraded)
  kSkipped,    ///< backpressure short-circuit: previous plan republished
  kIdle,       ///< no live work at all
};

const char* invocation_outcome_name(InvocationOutcome outcome);

struct InvocationRecord {
  std::uint64_t epoch = 0;  ///< plan epoch this invocation published
  Time sim_time;
  int attempts = 0;  ///< cp::solve calls made (0 = none ran)
  cp::SolveStatus last_status = cp::SolveStatus::kFeasible;  ///< of last attempt
  InvocationOutcome outcome = InvocationOutcome::kIdle;
  double solve_wall_seconds = 0.0;  ///< wall clock inside cp::solve
  std::size_t live_tasks = 0;       ///< tasks in the solved model
  std::size_t parked_jobs = 0;      ///< jobs parked as unplaceable
  // ---- Incremental-mode attribution (docs/incremental.md) ----
  std::size_t dirty_jobs = 0;    ///< jobs re-solved this invocation
  std::size_t frozen_tasks = 0;  ///< boundary tasks pinned, not re-solved
};

/// Aggregate counters over a ledger; embedded in sim::SimMetrics and
/// printed by `mrcp-sim --stats`.
struct DegradationCounts {
  std::uint64_t primary = 0;
  std::uint64_t retry = 0;
  std::uint64_t fallback = 0;
  std::uint64_t parked = 0;
  std::uint64_t skipped = 0;
  std::uint64_t idle = 0;
  std::uint64_t solve_attempts = 0;
  double solve_wall_seconds = 0.0;
  /// Submissions the RM deferred under backpressure (filled by the RM,
  /// not derived from records — see MrcpRm::degradation_counts()).
  std::uint64_t jobs_backpressured = 0;

  std::uint64_t invocations() const {
    return primary + retry + fallback + parked + skipped + idle;
  }
  /// Invocations that did not get a plan from the primary CP solve.
  std::uint64_t degraded() const { return retry + fallback + parked; }
};

class DegradationLedger {
 public:
  void record(const InvocationRecord& rec);

  const std::vector<InvocationRecord>& records() const { return records_; }
  const DegradationCounts& counts() const { return counts_; }

  /// One-line human-readable summary of the counters.
  std::string summary() const;

 private:
  std::vector<InvocationRecord> records_;
  DegradationCounts counts_;
};

}  // namespace mrcp
