// catlift/anafault/incremental.h
//
// Incremental cross-revision campaign engine.  The paper's workflow is
// iterative: a layout is revised, LIFT re-extracts the fault list, and the
// campaign is re-run -- yet most faults of the new revision have exactly
// the electrical signature they had before, so their verdicts are already
// known.  This layer diffs the two fault lists (lift::diff_faultlists),
// carries verdicts for signature-identical faults straight out of the
// baseline result store, together with the baseline's nominal, and runs
// the whole revision through the plain campaign driver with them known:
// its loader takes them like records of its own store, so only the added
// / probability-changed remainder reaches the kernel.  The merged store
// it emits is byte-equivalent (in verdicts) to a cold full campaign on
// the revision -- and serves as the baseline store of the *next*
// revision.
//
// One engine, written over the campaign driver's analysis policies
// (anafault/driver.h): run_incremental_campaign drives the transient
// campaign, run_incremental_ac_campaign the AC sweep,
// run_incremental_dc_screen the DC screen (each bound to its own manifest
// hash, so a transient store can never feed an AC carry).  Their options
// and results are one template each, IncrementalRunOptions and
// IncrementalRunResult, over the analysis' option and result types; the
// Incremental{,Ac,Dc}{Options,Result} names are aliases of them.
//
// Carry-over safety: a baseline verdict is only reused when the baseline
// store's manifest reproduces the baseline campaign's manifest hash --
// i.e. the store was written by this exact circuit, fault list, analysis
// axis and numeric/kernel knob set.  Any mismatch (edited deck, different
// tolerances, another kernel configuration, foreign/older store) disables
// carrying entirely and the full revision list is resimulated.

#pragma once

#include "anafault/ac_campaign.h"
#include "anafault/campaign.h"
#include "anafault/dc_campaign.h"

#include <cstddef>
#include <string>

namespace catlift::anafault {

/// Options of an incremental run of one analysis (Options is
/// CampaignOptions, AcCampaignOptions or DcScreenOptions).
template <class Options>
struct IncrementalRunOptions {
    /// Campaign configuration for the revision.  `result_store` names the
    /// *merged* store to emit ("" keeps the merge in memory only);
    /// `resume` additionally reuses records a previous -- possibly
    /// crashed -- incremental run already wrote into the merged store.
    Options campaign;
    /// Result store of the baseline campaign (read-only; never modified).
    std::string baseline_store;
    /// Relative probability tolerance of the fault-list diff: a fault
    /// whose probability moved by more than this fraction is resimulated
    /// even though its electrical signature is unchanged.
    double rel_tol = 0.05;
};
using IncrementalOptions = IncrementalRunOptions<CampaignOptions>;
using IncrementalAcOptions = IncrementalRunOptions<AcCampaignOptions>;
using IncrementalDcOptions = IncrementalRunOptions<DcScreenOptions>;

/// Per-class provenance counters of one incremental run.
struct IncrementalStats {
    std::size_t carried = 0;      ///< verdicts reused from the baseline
    /// Revision faults the carry pass could not cover -- left to the
    /// campaign (a resume against an already-complete merged store may
    /// satisfy them without kernel work: campaign.batch's
    /// scheduled/resumed counters report that split).
    std::size_t resimulated = 0;
    std::size_t added = 0;        ///< signatures new in the revision
    std::size_t removed = 0;      ///< baseline signatures gone in the revision
    std::size_t probability_changed = 0;  ///< same signature, probability
                                          ///< moved beyond rel_tol
    /// True when the baseline store's manifest matched the baseline
    /// campaign (the precondition for carrying anything).
    bool baseline_manifest_matched = false;
    /// Why carrying was disabled ("" when it was allowed).
    std::string carry_block_reason;
};

/// Outcome of an incremental run of one analysis (Output is
/// CampaignResult, AcCampaignResult or DcScreenResult).
template <class Output>
struct IncrementalRunResult {
    /// Merged outcome in revision fault-list order; verdicts identical to
    /// a cold full campaign on the revision.  Kernel-time totals and batch
    /// counters cover only the kernel work this run actually performed.
    Output campaign;
    IncrementalStats inc;
};
using IncrementalResult = IncrementalRunResult<CampaignResult>;
using IncrementalAcResult = IncrementalRunResult<AcCampaignResult>;
using IncrementalDcResult = IncrementalRunResult<DcScreenResult>;

/// Run the revision campaign incrementally against a baseline.
/// `baseline` must be the fault list the baseline store was written for.
/// The merged result keeps the full contract (nominal waveforms / sweep /
/// operating point, coverage) of a cold run.  When the baseline store's
/// manifest matches, the baseline's nominal record is loaded, not
/// simulated (and copied into the merged store when one is set);
/// otherwise the nominal runs.  Throws catlift::Error on
/// inconsistent configuration (e.g. resume requested without a merged
/// store path).
IncrementalResult run_incremental_campaign(const netlist::Circuit& ckt,
                                           const lift::FaultList& baseline,
                                           const lift::FaultList& revision,
                                           const IncrementalOptions& opt);

/// The AC campaign run incrementally against a baseline AC store.
IncrementalAcResult run_incremental_ac_campaign(
    const netlist::Circuit& ckt, const lift::FaultList& baseline,
    const lift::FaultList& revision, const IncrementalAcOptions& opt);

/// The DC screen run incrementally against a baseline DC store.
IncrementalDcResult run_incremental_dc_screen(const netlist::Circuit& ckt,
                                              const lift::FaultList& baseline,
                                              const lift::FaultList& revision,
                                              const IncrementalDcOptions& opt);

/// One-line counter summary ("carried 52/64, resimulated 12, ...").
std::string incremental_summary(const IncrementalResult& res);
std::string incremental_summary(const IncrementalStats& inc,
                                std::size_t total);

} // namespace catlift::anafault
