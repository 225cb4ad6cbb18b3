// catlift/anafault/dc_campaign.h
//
// DC fault screening.  AnaFAULT's lineage (ISPICE-era fault simulators
// [30][31][12], referenced in ch. II) covered AC and DC fault simulation;
// a DC operating-point screen is the cheapest first pass: one nonlinear
// solve per fault instead of a full transient.  Faults whose operating
// point deviates beyond tolerance are detectable with a static test;
// the rest (frequency shifts, dynamic faults) need the transient
// campaign -- which is precisely the paper's motivation for transient
// fault simulation on the VCO.
//
// The screen is a policy of the one campaign driver (anafault/driver.h):
// the nominal operating point, one faulty solve per attempt and the record
// round trip below are all it adds.  Every faulty solve warm-starts from
// the nominal operating point, with the kernel's cold strategy ladder as
// its fallback.  Store, resume, collapsing, the retry ladder, events and
// the incremental engine come from the driver.  Its options, per-fault
// result and screen result derive from the shared RunOptions,
// FaultOutcome and CampaignOutput (campaign.h) and declare only the
// observed nodes, the voltage tolerance and the solve strategy.  The store
// binds to dc_screen_manifest(); in a record detect_time is 0 when the
// fault was detected (a DC screen has no sweep coordinate) and metric
// carries the worst |dV|; the solve strategy of a resumed record is not
// persisted (it reports as "stored").

#pragma once

#include "anafault/campaign.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace catlift::anafault {

struct DcScreenOptions : RunOptions {
    /// Observed nodes; DC deviation beyond v_tol on any of them detects.
    std::vector<std::string> observed = {"11"};
    double v_tol = 2.0;
};

struct DcFaultResult : FaultOutcome {
    bool converged = false;      ///< operating point found
    bool detected = false;       ///< deviation beyond tolerance
    double max_deviation = 0.0;  ///< largest |dV| over observed nodes [V]
    std::string strategy;        ///< "warm", "nr", "gmin", "source";
                                 ///< "stored" on a store-resumed or
                                 ///< carried record
};

inline bool is_detected(const DcFaultResult& r) { return r.detected; }
inline bool ran(const DcFaultResult& r) { return r.converged; }

struct DcScreenResult : CampaignOutput<DcFaultResult> {
    std::map<std::string, double> nominal_op;  ///< fault-free node voltages
    int nominal_iterations = 0;  ///< NR cost of the nominal (cold) solve

    /// Faults a static test cannot see (candidates for the transient run).
    std::vector<int> undetected_ids() const;
};

/// Run the DC screen over a fault list.
DcScreenResult run_dc_screen(const netlist::Circuit& ckt,
                             const lift::FaultList& faults,
                             const DcScreenOptions& opt = {});

/// Manifest hash of the DC screen (ckt, faults, opt); same contract as
/// campaign_manifest() for the transient runner.
std::uint64_t dc_screen_manifest(const netlist::Circuit& ckt,
                                 const lift::FaultList& faults,
                                 const DcScreenOptions& opt = {});

/// Store-record round trip for one DC fault verdict (the incremental
/// engine carries these across layout revisions).
batch::FaultSimResult dc_to_record(const DcFaultResult& r);
DcFaultResult dc_from_record(const batch::FaultSimResult& rec);

} // namespace catlift::anafault
