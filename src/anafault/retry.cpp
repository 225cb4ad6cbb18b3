#include "anafault/retry.h"

#include "obs/obs.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace catlift::anafault {

spice::SimOptions degrade_sim(const spice::SimOptions& base, int attempt) {
    spice::SimOptions o = base;
    if (attempt >= 1) {
        // The bypass replays cached linearizations; a marginal circuit is
        // better served by an exact Jacobian every iteration.
        o.bypass = false;
        o.device_bypass_tol = 0.0;
    }
    if (attempt >= 2) {
        // LTE stride growth can step a barely-stable circuit over its own
        // dynamics; the fixed grid is the paper's original regime.
        o.adaptive = false;
    }
    if (attempt >= 3) {
        // Dense partial-pivot LU with no order restriction: immune to the
        // order-restricted singular pivots the sparse path can hit on
        // pathological injected topologies.
        o.sparse_threshold = std::numeric_limits<std::size_t>::max();
        o.symbolic_cache = nullptr;
    }
    if (attempt >= 4) {
        // Classic last resort: swamp the near-singularity with gmin.  One
        // decade per further attempt.
        o.gmin = base.gmin * std::pow(10.0, attempt - 3);
    }
    return o;
}

std::string attempt_label(int attempt) {
    switch (attempt) {
        case 0: return "base";
        case 1: return "no-bypass";
        case 2: return "fixed-grid";
        case 3: return "dense";
        default: {
            std::string s = "gmin-x1";
            for (int k = 3; k < attempt; ++k) s += "0";
            return s;
        }
    }
}

void log_attempt(std::string& retry_log, int attempt,
                 const std::string& error) {
    if (!retry_log.empty()) retry_log += "; ";
    retry_log += "attempt " + std::to_string(attempt + 1) + " [" +
                 attempt_label(attempt) + "]: " +
                 (error.empty() ? "failed" : error);
}

LadderOutcome run_retry_ladder(
    const spice::SimOptions& base, int max_retries, int fault_id,
    const std::function<Attempt(const spice::SimOptions&,
                                std::string& error)>& attempt) {
    const int attempts_allowed = 1 + std::max(0, max_retries);
    const auto id = static_cast<std::int64_t>(fault_id);
    LadderOutcome out;
    Attempt a;
    std::string error;
    for (int k = 0; k < attempts_allowed; ++k) {
        if (k > 0) {
            if (obs::metrics_enabled())
                obs::Registry::global().counter("campaign.retries").add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_retry",
                    {obs::arg("fault_id", id),
                     obs::arg("attempt", static_cast<std::int64_t>(k + 1)),
                     obs::arg("config", attempt_label(k)),
                     obs::arg("error", error)});
        }
        error.clear();
        a = attempt(k == 0 ? base : degrade_sim(base, k), error);
        out.attempts = static_cast<std::uint32_t>(k + 1);
        if (a.ok || !a.retryable) break;
        log_attempt(out.retry_log, k, error);
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
