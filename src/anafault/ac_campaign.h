// catlift/anafault/ac_campaign.h
//
// AC fault simulation: the classical frequency-domain detection path of
// AnaFAULT's ancestors (ISPICE AC fault simulation [30][31], linear fault
// recognition from AC measurements [6]).  Each fault is injected, the
// small-signal response is swept, and the fault counts as detected when
// its magnitude response deviates from the nominal one by more than the
// dB tolerance anywhere in the sweep.
//
// The sweep is streamed through an AcStreamingDetector wired into the
// kernel's per-frequency-point observer: a faulty sweep always stops at
// its first dB violation instead of computing the rest of the axis, as the
// transient campaign does in the time domain.  Verdict and first-violation
// frequency equal those of the full sweep; max_deviation_db is reported
// up to the abort point.
//
// The AC campaign is a policy of the one campaign driver
// (anafault/driver.h): the nominal sweep, one faulty sweep per attempt and
// the record round trip below are all it adds.  Store, resume, collapsing,
// the retry ladder, events and the incremental engine come from the
// driver.  Its options, per-fault result and campaign result derive from
// the shared RunOptions, FaultOutcome and CampaignOutput (campaign.h) and
// declare only the sweep and the dB detection.  The store binds to
// ac_campaign_manifest(); in a record detect_time carries the detection
// *frequency* [Hz] and metric the worst dB deviation.

#pragma once

#include "anafault/campaign.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace catlift::anafault {

struct AcCampaignOptions : RunOptions {
    spice::AcSpec sweep;
    std::vector<std::string> observed = {"out"};
    double db_tol = 3.0;  ///< magnitude deviation tolerance [dB]
};

struct AcFaultResult : FaultOutcome {
    bool simulated = false;
    bool detected = false;
    double max_deviation_db = 0.0;       ///< worst deviation over the swept
                                         ///< points (up to the abort, if any)
    std::optional<double> detect_freq;   ///< frequency of first violation
    std::size_t points_saved = 0;        ///< sweep points skipped by abort
};

inline bool is_detected(const AcFaultResult& r) { return r.detected; }
inline bool ran(const AcFaultResult& r) { return r.simulated; }

struct AcCampaignResult : CampaignOutput<AcFaultResult> {
    spice::AcResult nominal;
};

/// Run the AC campaign over a fault list.
AcCampaignResult run_ac_campaign(const netlist::Circuit& ckt,
                                 const lift::FaultList& faults,
                                 const AcCampaignOptions& opt = {});

/// Manifest hash of the AC campaign (ckt, faults, opt): circuit text,
/// per-fault identity, sweep axis, detection knobs and every
/// verdict-determining numeric/kernel knob.  Same contract as
/// campaign_manifest() for the transient runner.
std::uint64_t ac_campaign_manifest(const netlist::Circuit& ckt,
                                   const lift::FaultList& faults,
                                   const AcCampaignOptions& opt = {});

/// Store-record round trip for one AC fault verdict (the incremental
/// engine carries these across layout revisions).
batch::FaultSimResult ac_to_record(const AcFaultResult& r);
AcFaultResult ac_from_record(const batch::FaultSimResult& rec);

} // namespace catlift::anafault
