// catlift/spice/ac.h
//
// Small-signal AC analysis.  The fault simulators AnaFAULT descends from
// (ISPICE [30][31], FSPICE [22], the linear-circuit work of [6]) detected
// faults from AC measurements; this module supplies that capability:
// linearise every device at the DC operating point, stamp complex
// admittances (jwC for capacitors), and sweep the frequency axis.
//
// Sources: a voltage/current source participates in the AC analysis with
// its `ac_mag` amplitude (SPICE's "AC 1" card field); every other source
// is quiet (0).

#pragma once

#include "netlist/netlist.h"

#include <complex>
#include <map>
#include <string>
#include <vector>

namespace catlift::spice {

/// Logarithmic frequency sweep description (.ac dec N fstart fstop).
struct AcSpec {
    int points_per_decade = 10;
    double fstart = 1e3;
    double fstop = 1e9;
};

/// Complex frequency response per node.
class AcResult {
public:
    void add_node(const std::string& name);
    void append(double freq,
                const std::vector<std::complex<double>>& values);

    const std::vector<double>& freq() const { return freq_; }
    std::size_t points() const { return freq_.size(); }
    bool has(const std::string& node) const { return index_.count(node) > 0; }
    /// Node names in registration order.
    const std::vector<std::string>& node_names() const { return names_; }
    const std::vector<std::complex<double>>& response(
        const std::string& node) const;

    /// Magnitude in dB at one sweep point.
    double mag_db(const std::string& node, std::size_t i) const;
    /// Phase in degrees at one sweep point.
    double phase_deg(const std::string& node, std::size_t i) const;

    /// Interpolated magnitude (dB) at an arbitrary frequency.
    double mag_db_at(const std::string& node, double f) const;

    /// -3dB corner relative to the lowest-frequency magnitude; nullopt if
    /// the response never drops 3 dB inside the sweep.
    std::optional<double> corner_frequency(const std::string& node) const;

private:
    std::vector<double> freq_;
    std::vector<std::string> names_;
    std::map<std::string, std::size_t> index_;
    std::vector<std::vector<std::complex<double>>> data_;  // per node
};

} // namespace catlift::spice
