// catlift/anafault/retry.h
//
// The retry/degradation ladder of the failure-containment layer: a fault
// whose simulation fails (non-convergence, singular pivot, exhausted
// budget, injected failure) is re-attempted with progressively more
// conservative solver configurations before the campaign gives up on it.
// The rungs trade speed for robustness in the order the speed was added:
//
//   rung 0   the campaign's own configuration
//   rung 1   modified-Newton bypass off (every solve factors fresh)
//   rung 2   + fixed-grid transient (no LTE stride growth)
//   rung 3   + dense kernel (full-pivot dense LU, no shared ordering)
//   rung 4+  + gmin raised x10 per further rung
//
// Rung 2 changes nothing but the transient's stepping, so an analysis
// that does not integrate in time (DC, AC) skips it: it would repeat
// rung 1's solve exactly.
//
// A fault that exhausts every allowed attempt retires with the
// `quarantined` verdict -- recorded, persisted (store v6), carried across
// revisions, and reported separately from `failed` (see
// docs/robustness.md for the taxonomy).  Each attempt is recorded in
// FaultSimResult::retry_log so the escalation is auditable per fault.

#pragma once

#include "spice/engine.h"

#include <cstdint>
#include <functional>
#include <string>

namespace catlift::anafault {

/// The last rung of the ladder: 4 walks the whole ladder above; 0
/// disables retries (a failure retires `failed` immediately, the
/// pre-containment behavior).
inline constexpr int kDefaultMaxRetries = 4;

/// Solver configuration of the given rung (0 = `base` unchanged).
/// Rungs accumulate: rung 3 is no-bypass + fixed-grid + dense.
spice::SimOptions degrade_sim(const spice::SimOptions& base, int rung);

/// Human-readable rung name for logs/events: "base", "no-bypass",
/// "fixed-grid", "dense", "gmin-x10", "gmin-x100", ...
std::string attempt_label(int rung);

/// Outcome of one kernel attempt.  `retryable` false marks a deterministic
/// failure (e.g. a DC measurement gap) that no degraded rung can fix: the
/// ladder stops there without quarantining the fault.
struct Attempt {
    bool ok = false;
    bool retryable = true;
};

/// What the ladder did for one fault.
struct LadderOutcome {
    std::uint32_t attempts = 0;  ///< attempts made (1 = no retry)
    bool quarantined = false;    ///< every allowed rung failed
    std::string retry_log;       ///< one log_attempt entry per failed attempt
};

/// Run one fault through the ladder: `attempt` is called with the
/// campaign's own configuration first, then with each degraded rung up to
/// rung `max_retries`, until an attempt succeeds or fails non-retryably;
/// a failed attempt leaves its reason in `error`.  Without
/// `integrates_in_time` the fixed-grid rung is skipped.  Every re-attempt
/// is counted (`campaign.retries`) and announced as `fault_retry` (1-based
/// `attempt`, the rung's label as `config`); exhausting the ladder with
/// max_retries > 0 quarantines the fault (`campaign.quarantined`,
/// `fault_quarantined`).
LadderOutcome run_retry_ladder(
    const spice::SimOptions& base, int max_retries, bool integrates_in_time,
    int fault_id,
    const std::function<Attempt(const spice::SimOptions&,
                                std::string& error)>& attempt);

} // namespace catlift::anafault
