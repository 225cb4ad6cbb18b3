// catlift/anafault/comparator.h
//
// Post-processing phase of the fault simulation cycle: compare the faulty
// response against the fault-free (nominal) one and decide when -- if ever
// -- the fault becomes detectable.
//
// Detection criterion (Fig. 5 caption: "a tolerance of 2V for the
// amplitude and 0.2 us for the time"): the faulty response is compared
// point-wise against the nominal one; amplitude deviations beyond v_tol
// are mismatches, and the fault is detected at the instant the cumulative
// mismatch duration exceeds t_tol.  Sub-t_tol phase wobble is forgiven;
// frequency shifts and stuck outputs accumulate mismatch every cycle.
// (See comparator.cpp for why the alternative tolerance-window reading is
// inconsistent with the paper's Fig. 5 coverage.)

#pragma once

#include "spice/ac.h"
#include "spice/waveform.h"

#include <optional>
#include <string>
#include <vector>

namespace catlift::anafault {

struct DetectionSpec {
    double v_tol = 2.0;      ///< amplitude tolerance [V] (paper: 2 V)
    double t_tol = 0.2e-6;   ///< time tolerance [s]     (paper: 0.2 us)
    std::vector<std::string> observed = {"11"};  ///< monitored nodes

    /// Optional supply-current observation (IDDQ style): names of voltage
    /// sources whose branch current is monitored with a fixed 10 mA
    /// tolerance (comparator.cpp).  Catches shorts that ideal supplies
    /// would otherwise mask (e.g. a VDD-GND bridge holds every node voltage
    /// nominal while drawing amperes).
    std::vector<std::string> observed_supplies;
};

/// Earliest detection time over all observed nodes, or nullopt if the
/// fault stays within tolerance for the whole run.
std::optional<double> detect_time(const spice::Waveforms& nominal,
                                  const spice::Waveforms& faulty,
                                  const DetectionSpec& spec);

/// Detection time on a single node.
std::optional<double> detect_time_on(const spice::Waveforms& nominal,
                                     const spice::Waveforms& faulty,
                                     const std::string& node,
                                     const DetectionSpec& spec);

/// Incremental form of detect_time(): fed one accepted sample at a time
/// while the faulty transient is still running, it reports detection the
/// instant the cumulative mismatch duration first exceeds t_tol on any
/// observed channel.  This is what lets the batch engine abort a faulty
/// run early (ERASER-style) -- the verdict and detection instant are
/// identical to the post-hoc detect_time() over the full run (tested).
///
/// The detector holds a reference to the nominal waveforms; keep them
/// alive for its lifetime.
class StreamingDetector {
public:
    StreamingDetector(const spice::Waveforms& nominal,
                      const DetectionSpec& spec);

    /// Consume every sample appended to `faulty` since the last call.
    /// Returns detected(); once true, further feeds are no-ops.
    bool feed(const spice::Waveforms& faulty);

    bool detected() const { return detect_time_.has_value(); }
    std::optional<double> detect_time() const { return detect_time_; }

private:
    struct Channel {
        std::string trace;         ///< waveform trace name
        double tol = 0.0;          ///< amplitude tolerance (V or A)
        bool required = true;      ///< missing trace is an error
        bool present = true;       ///< trace exists in the faulty run
        bool checked = false;      ///< presence verified on first feed
        double accumulated = 0.0;  ///< mismatch duration so far [s]
    };

    const spice::Waveforms* nominal_;
    double t_tol_;
    std::vector<Channel> channels_;
    std::size_t next_ = 1;  ///< first unprocessed faulty sample index
    std::optional<double> detect_time_;
};

/// Frequency-domain counterpart of StreamingDetector: fed the partial
/// AcResult of a faulty sweep one (or more) frequency points at a time, it
/// reports detection the instant the magnitude response first deviates
/// from the nominal one by more than `db_tol` on any observed node.  Both
/// sweeps must share the AcSpec (point-aligned frequency axes).  The AC
/// fault campaign hooks this into spice::AcPointObserver so a faulty sweep
/// stops mid-axis at its first violation; the verdict and first-violation
/// frequency are identical to scanning the full sweep post hoc.
///
/// The detector holds a reference to the nominal result; keep it alive
/// for the detector's lifetime.
class AcStreamingDetector {
public:
    AcStreamingDetector(const spice::AcResult& nominal,
                        std::vector<std::string> observed, double db_tol);

    /// Consume every frequency point appended to `faulty` since the last
    /// call.  Returns detected().
    bool feed(const spice::AcResult& faulty);

    bool detected() const { return detect_freq_.has_value(); }
    std::optional<double> detect_freq() const { return detect_freq_; }
    /// Worst magnitude deviation over the points fed so far [dB] (with an
    /// early-aborted sweep, over the points before the abort).
    double max_deviation_db() const { return max_dev_; }

private:
    const spice::AcResult* nominal_;
    std::vector<std::string> observed_;
    double db_tol_;
    std::size_t next_ = 0;  ///< first unprocessed frequency point index
    std::optional<double> detect_freq_;
    double max_dev_ = 0.0;
};

} // namespace catlift::anafault
