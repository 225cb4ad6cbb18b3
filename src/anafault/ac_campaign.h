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
// kernel's per-frequency-point observer: with early abort on (default) a
// faulty sweep stops at its first dB violation instead of computing the
// rest of the axis, as the transient campaign does in the time domain.
// Verdict and first-violation frequency are identical either way; only
// max_deviation_db is then reported up to the abort point.
//
// The AC campaign is a policy of the one campaign driver
// (anafault/driver.h): the nominal sweep, one faulty sweep per attempt and
// the record round trip below are all it adds.  Store, resume, collapsing,
// the retry ladder, events and the incremental engine come from the
// driver.  The store binds to ac_campaign_manifest(); in a record
// detect_time carries the detection *frequency* [Hz] and metric the worst
// dB deviation.

#pragma once

#include "anafault/fault_models.h"
#include "anafault/retry.h"
#include "batch/result_store.h"
#include "batch/scheduler.h"
#include "lift/fault.h"
#include "netlist/netlist.h"
#include "spice/engine.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace catlift::anafault {

struct AcCampaignOptions {
    InjectionOptions injection;
    spice::AcSpec sweep;
    std::vector<std::string> observed = {"out"};
    double db_tol = 3.0;  ///< magnitude deviation tolerance [dB]
    spice::SimOptions sim;
    /// Worker threads for the batch scheduler (1 = serial).
    // manifest-exempt: parallelism only changes wall-clock, never
    // which verdict a fault retires with.
    unsigned threads = 1;
    /// Sweep each electrical-effect equivalence class once.
    bool collapse = true;
    /// Stop each faulty sweep at its first dB-tolerance violation instead
    /// of computing every frequency point (verdicts are unchanged).
    bool early_abort = true;
    /// Share the nominal kernel's symbolic analysis (elimination order)
    /// with every faulty sweep; see CampaignOptions::share_symbolic.
    bool share_symbolic = true;
    /// Retry/degradation ladder (anafault/retry.h); see
    /// CampaignOptions::max_retries.  Verdict-affecting, in the manifest.
    int max_retries = kDefaultMaxRetries;
    /// Path of the append-only result store ("" disables persistence).
    // manifest-exempt: where results land, not what they are.
    std::string result_store;
    /// Durability of each store append (batch::Durability); not
    /// verdict-affecting, hence not in the manifest.
    // manifest-exempt: crash-durability of the store file only.
    batch::Durability store_durability = batch::Durability::Flush;
    /// Reuse results already in `result_store` from a previous (possibly
    /// crashed) run of the *same* campaign.
    // manifest-exempt: replays already-verified same-manifest records.
    bool resume = false;
    /// Bind the result store to this manifest instead of the campaign's
    /// own hash (set only by the incremental cross-revision engine).
    // manifest-exempt: IS the manifest binding; hashing it into the
    // hash it overrides would be circular.
    std::optional<std::uint64_t> manifest_override;
};

struct AcFaultResult {
    int fault_id = 0;
    std::string description;
    double probability = 0.0;
    bool simulated = false;
    std::string error;
    bool detected = false;
    double max_deviation_db = 0.0;       ///< worst deviation over the swept
                                         ///< points (up to the abort, if any)
    std::optional<double> detect_freq;   ///< frequency of first violation
    std::size_t points_saved = 0;        ///< sweep points skipped by abort
    double sim_seconds = 0.0;            ///< kernel wall time of the sweep
    std::size_t nr_iterations = 0;       ///< NR cost of the operating point
    std::size_t symbolic_cache_hits = 0; ///< kernel adopted the shared order
    double ordering_seconds = 0.0;       ///< sparse one-time analysis time
    double numeric_seconds = 0.0;        ///< sparse refactor time
    /// Verdict carried from a baseline store by the incremental engine.
    bool carried = false;
    std::uint32_t attempts = 1;  ///< simulation attempts (1 = no retry)
    /// The retry ladder was exhausted: every attempt failed.  Disjoint
    /// from plain `failed` (!simulated && !quarantined).
    bool quarantined = false;
    std::string retry_log;  ///< one entry per failed attempt
};

struct AcCampaignResult {
    spice::AcResult nominal;
    std::vector<AcFaultResult> results;
    batch::BatchStats batch;  ///< scheduler / collapse / abort counters

    std::size_t detected() const;
    double coverage() const;  ///< percent
    /// Faults that failed without exhausting the retry ladder.
    std::size_t failed() const;
    /// Faults retired by the retry ladder: every rung failed.
    std::size_t quarantined() const;
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
