#include "anafault/comparator.h"

#include <algorithm>
#include <cmath>

namespace catlift::anafault {

using spice::Waveforms;

/// Amplitude tolerance of an observed supply current [A].
constexpr double kSupplyTol = 10e-3;

// Detection criterion (Fig. 5 caption: "a tolerance of 2V for the
// amplitude and 0.2 us for the time"):
//
//   * amplitude tolerance: at each sample instant the faulty response is
//     compared point-wise against the nominal one; a deviation larger than
//     v_tol is a mismatch;
//   * time tolerance: mismatches are integrated over time, and the fault
//     counts as detected at the instant the *cumulative* mismatch duration
//     exceeds t_tol.
//
// The integrated-duration reading makes the tolerance pair behave the way
// the paper's results require: sampling jitter and sub-t_tol phase wobble
// of the oscillator are forgiven (their mismatch time never accumulates),
// while a frequency-shifted oscillation (the #6 bridge) drifts against the
// nominal edges and accumulates mismatch every cycle, and a constant
// high/low output (the #339 bridge) accumulates mismatch during every
// nominal half-period.  A pure tolerance *window* (min distance to the
// nominal curve within +-t_tol) would classify both of those paper-detected
// faults as undetectable whenever the oscillation period is comparable to
// the window -- so that reading cannot be the one behind Fig. 5.

std::optional<double> detect_time_on(const Waveforms& nominal,
                                     const Waveforms& faulty,
                                     const std::string& node,
                                     const DetectionSpec& spec) {
    require(nominal.has(node), "comparator: nominal lacks node " + node);
    require(faulty.has(node), "comparator: faulty run lacks node " + node);
    const auto& tf = faulty.time();
    require(tf.size() >= 2, "comparator: faulty run too short");

    double accumulated = 0.0;
    for (std::size_t i = 1; i < tf.size(); ++i) {
        const double t = tf[i];
        const double dt = tf[i] - tf[i - 1];
        const double dv =
            std::fabs(faulty.trace(node)[i] - nominal.at(node, t));
        if (dv > spec.v_tol) {
            accumulated += dt;
            if (accumulated > spec.t_tol) return t;
        }
    }
    return std::nullopt;
}

StreamingDetector::StreamingDetector(const Waveforms& nominal,
                                     const DetectionSpec& spec)
    : nominal_(&nominal), t_tol_(spec.t_tol) {
    for (const std::string& node : spec.observed) {
        require(nominal.has(node), "comparator: nominal lacks node " + node);
        channels_.push_back(Channel{node, spec.v_tol, /*required=*/true,
                                    true, false, 0.0});
    }
    for (const std::string& src : spec.observed_supplies) {
        const std::string trace = "i(" + src + ")";
        // detect_time() silently skips supply traces absent from either
        // run; mirror that here.
        if (!nominal.has(trace)) continue;
        channels_.push_back(Channel{trace, kSupplyTol, /*required=*/false,
                                    true, false, 0.0});
    }
}

bool StreamingDetector::feed(const Waveforms& faulty) {
    if (detect_time_) return true;
    // Validate every channel up front (not lazily inside the sample loop):
    // detect_time() throws on a missing required node even when another
    // node would have detected first, and the streaming verdict must
    // match it exactly.
    for (Channel& ch : channels_) {
        if (ch.checked) continue;
        ch.present = faulty.has(ch.trace);
        require(ch.present || !ch.required,
                "comparator: faulty run lacks node " + ch.trace);
        ch.checked = true;
    }
    const auto& tf = faulty.time();
    for (std::size_t i = std::max<std::size_t>(next_, 1); i < tf.size();
         ++i) {
        const double t = tf[i];
        const double dt = tf[i] - tf[i - 1];
        for (Channel& ch : channels_) {
            if (!ch.present) continue;
            const double dv =
                std::fabs(faulty.trace(ch.trace)[i] - nominal_->at(ch.trace, t));
            if (dv > ch.tol) {
                ch.accumulated += dt;
                if (ch.accumulated > t_tol_) {
                    detect_time_ = t;
                    next_ = i + 1;
                    return true;
                }
            }
        }
    }
    next_ = tf.size();
    return false;
}

AcStreamingDetector::AcStreamingDetector(const spice::AcResult& nominal,
                                         std::vector<std::string> observed,
                                         double db_tol)
    : nominal_(&nominal), observed_(std::move(observed)), db_tol_(db_tol) {
    for (const std::string& node : observed_)
        require(nominal_->has(node),
                "ac comparator: nominal lacks node " + node);
}

bool AcStreamingDetector::feed(const spice::AcResult& faulty) {
    const std::size_t upto =
        std::min(faulty.points(), nominal_->points());
    for (std::size_t i = next_; i < upto; ++i) {
        for (const std::string& node : observed_) {
            // A node split can rename the observed node out of the faulty
            // circuit; such a channel is simply not comparable.
            if (!faulty.has(node)) continue;
            const double dev = std::fabs(faulty.mag_db(node, i) -
                                         nominal_->mag_db(node, i));
            max_dev_ = std::max(max_dev_, dev);
            if (dev > db_tol_ && !detect_freq_)
                detect_freq_ = nominal_->freq()[i];
        }
    }
    next_ = upto;
    return detected();
}

std::optional<double> detect_time(const Waveforms& nominal,
                                  const Waveforms& faulty,
                                  const DetectionSpec& spec) {
    std::optional<double> best;
    for (const std::string& node : spec.observed) {
        const auto t = detect_time_on(nominal, faulty, node, spec);
        if (t && (!best || *t < *best)) best = t;
    }
    // Supply-current observation: same integrated-mismatch criterion with
    // the current tolerance.
    for (const std::string& src : spec.observed_supplies) {
        DetectionSpec ispec = spec;
        ispec.v_tol = kSupplyTol;
        const std::string trace = "i(" + src + ")";
        if (!nominal.has(trace) || !faulty.has(trace)) continue;
        const auto t = detect_time_on(nominal, faulty, trace, ispec);
        if (t && (!best || *t < *best)) best = t;
    }
    return best;
}

} // namespace catlift::anafault
