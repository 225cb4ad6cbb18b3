#include "anafault/retry.h"

#include "obs/obs.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace catlift::anafault {

/// The rung that only switches the transient to the fixed grid.
constexpr int kFixedGridRung = 2;

spice::SimOptions degrade_sim(const spice::SimOptions& base, int rung) {
    spice::SimOptions o = base;
    if (rung >= 1) {
        // The bypass replays cached linearizations; a marginal circuit is
        // better served by an exact Jacobian every iteration.
        o.bypass = false;
        o.device_bypass_tol = 0.0;
    }
    if (rung >= kFixedGridRung) {
        // LTE stride growth can step a barely-stable circuit over its own
        // dynamics; the fixed grid is the paper's original regime.
        o.adaptive = false;
    }
    if (rung >= 3) {
        // Dense partial-pivot LU with no order restriction: immune to the
        // order-restricted singular pivots the sparse path can hit on
        // pathological injected topologies.
        o.sparse_threshold = std::numeric_limits<std::size_t>::max();
        o.symbolic_cache = nullptr;
    }
    if (rung >= 4) {
        // Classic last resort: swamp the near-singularity with gmin.  One
        // decade per further rung.
        o.gmin = base.gmin * std::pow(10.0, rung - 3);
    }
    return o;
}

std::string attempt_label(int rung) {
    switch (rung) {
        case 0: return "base";
        case 1: return "no-bypass";
        case 2: return "fixed-grid";
        case 3: return "dense";
        default: {
            std::string s = "gmin-x1";
            for (int k = 3; k < rung; ++k) s += "0";
            return s;
        }
    }
}

namespace {

/// Append failed attempt `attempt` (0-based), made on `rung`, to a retry
/// log ("attempt K [rung]: error", K 1-based).
void log_attempt(std::string& retry_log, int attempt, int rung,
                 const std::string& error) {
    if (!retry_log.empty()) retry_log += "; ";
    retry_log += "attempt " + std::to_string(attempt + 1) + " [" +
                 attempt_label(rung) + "]: " +
                 (error.empty() ? "failed" : error);
}

}  // namespace

LadderOutcome run_retry_ladder(
    const spice::SimOptions& base, int max_retries, bool integrates_in_time,
    int fault_id,
    const std::function<Attempt(const spice::SimOptions&,
                                std::string& error)>& attempt) {
    const int last_rung = std::max(0, max_retries);
    const auto id = static_cast<std::int64_t>(fault_id);
    LadderOutcome out;
    Attempt a;
    std::string error;
    for (int rung = 0; rung <= last_rung; ++rung) {
        if (rung == kFixedGridRung && !integrates_in_time) continue;
        const int k = static_cast<int>(out.attempts);
        if (k > 0) {
            if (obs::metrics_enabled())
                obs::Registry::global().counter("campaign.retries").add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_retry",
                    {obs::arg("fault_id", id),
                     obs::arg("attempt", static_cast<std::int64_t>(k + 1)),
                     obs::arg("config", attempt_label(rung)),
                     obs::arg("error", error)});
        }
        error.clear();
        a = attempt(rung == 0 ? base : degrade_sim(base, rung), error);
        ++out.attempts;
        if (a.ok || !a.retryable) break;
        log_attempt(out.retry_log, k, rung, error);
    }
    out.quarantined = !a.ok && a.retryable && max_retries > 0;
    if (out.quarantined) {
        if (obs::metrics_enabled())
            obs::Registry::global().counter("campaign.quarantined").add(1);
        if (obs::events_enabled())
            obs::emit_event(
                "fault_quarantined",
                {obs::arg("fault_id", id),
                 obs::arg("attempts",
                          static_cast<std::int64_t>(out.attempts)),
                 obs::arg("error", error)});
    }
    return out;
}

} // namespace catlift::anafault
