// Deterministic EDF schedule over the CP model — the final rung of the
// degraded-mode escalation ladder (docs/degraded_mode.md).
//
// When the CP solve's hard watchdog expires before any descent completes,
// the resource manager still owes the simulator a complete plan. This is
// the first solution of a set-times search with an EDF job ranking and
// FIFO intra-job order and no watchdog: the CP portfolio's EDF/FIFO
// member. Tasks are fixed in EDF job order (maps before reduces, then
// index order), each on the machine that completes it earliest (ties:
// earliest start, then fastest machine, then lowest index). It respects
// pinned/running assignments, map->reduce barriers, user precedence
// edges, per-phase cumulative capacities, network-link capacities and
// anti-affinity groups — i.e. it emits schedules that satisfy every Model
// constraint, just without any optimization of the late-job count.
//
// The descent backtracks only when anti-affinity leaves a task without
// an eligible machine; then it keeps searching until it finds a
// placement, so it is complete. No budget or wall clock enters it, so the
// result is a pure function of the model.
#pragma once

#include "cp/model.h"
#include "cp/solution.h"

namespace mrcp {

/// EDF first-descent schedule for `model`. For a model that passes
/// Model::validate() and has any schedule at all, the result is valid (a
/// complete, constraint-satisfying schedule, evaluated like any CP
/// solution). Returns an invalid solution only when no assignment exists:
/// some non-pinned task fits no resource, or the anti-affinity groups
/// cannot all be placed.
cp::Solution fallback_schedule(const cp::Model& model);

}  // namespace mrcp
