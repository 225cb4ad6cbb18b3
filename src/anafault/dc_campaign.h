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
// the nominal operating point, one faulty solve per attempt (warm-started
// from the nominal one) and the record round trip below are all it adds.
// Store, resume, collapsing, the retry ladder, events and the incremental
// engine come from the driver.  The store binds to dc_screen_manifest();
// in a record detect_time is 0 when the fault was detected (a DC screen
// has no sweep coordinate) and metric carries the worst |dV|; the solve
// strategy of a resumed record is not persisted (it reports as "stored").

#pragma once

#include "anafault/fault_models.h"
#include "anafault/retry.h"
#include "batch/result_store.h"
#include "batch/scheduler.h"
#include "lift/fault.h"
#include "netlist/netlist.h"
#include "spice/engine.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace catlift::anafault {

struct DcScreenOptions {
    InjectionOptions injection;
    /// Observed nodes; DC deviation beyond v_tol on any of them detects.
    std::vector<std::string> observed = {"11"};
    double v_tol = 2.0;
    spice::SimOptions sim;
    /// Worker threads for the batch scheduler (1 = serial).
    // manifest-exempt: parallelism only changes wall-clock, never
    // which verdict a fault retires with.
    unsigned threads = 1;
    /// Solve each electrical-effect equivalence class once.
    bool collapse = true;
    /// Warm-start each faulty operating point from the nominal one (most
    /// faults perturb the circuit locally, so plain NR from the nominal
    /// solution converges in a few iterations; the cold strategy ladder
    /// stays as the fallback).  Caveat: on a faulty circuit that remains
    /// multistable, the warm solve settles in the nominal basin while a
    /// cold solve may pick another operating point -- for a screen that
    /// measures deviation *from nominal* the warm answer is the
    /// conservative one, but set this to false to reproduce cold-start
    /// verdicts exactly.
    bool warm_start = true;
    /// Share the nominal kernel's symbolic analysis (elimination order)
    /// with every faulty solve; see CampaignOptions::share_symbolic.
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
    /// crashed) run of the *same* screen.
    // manifest-exempt: replays already-verified same-manifest records.
    bool resume = false;
    /// Bind the result store to this manifest instead of the screen's own
    /// hash (set only by the incremental cross-revision engine).
    // manifest-exempt: IS the manifest binding; hashing it into the
    // hash it overrides would be circular.
    std::optional<std::uint64_t> manifest_override;
};

struct DcFaultResult {
    int fault_id = 0;
    std::string description;
    double probability = 0.0;
    bool converged = false;      ///< operating point found
    bool detected = false;       ///< deviation beyond tolerance
    double max_deviation = 0.0;  ///< largest |dV| over observed nodes [V]
    double sim_seconds = 0.0;    ///< kernel wall time of the solve
    int nr_iterations = 0;       ///< NR cost of the solve
    std::string strategy;        ///< "warm", "nr", "gmin", "source";
                                 ///< "stored" on a store-resumed or
                                 ///< carried record
    std::size_t symbolic_cache_hits = 0; ///< kernel adopted the shared order
    double ordering_seconds = 0.0;       ///< sparse one-time analysis time
    double numeric_seconds = 0.0;        ///< sparse refactor time
    /// Verdict carried from a baseline store by the incremental engine.
    bool carried = false;
    /// Why the solve (or the deviation measurement) failed; empty when
    /// converged.
    std::string error;
    std::uint32_t attempts = 1;  ///< solve attempts (1 = no retry)
    /// The retry ladder was exhausted: every attempt failed.  Disjoint
    /// from plain `failed` (!converged && !quarantined).
    bool quarantined = false;
    std::string retry_log;  ///< one entry per failed attempt
};

struct DcScreenResult {
    std::map<std::string, double> nominal_op;  ///< fault-free node voltages
    int nominal_iterations = 0;  ///< NR cost of the nominal (cold) solve
    std::vector<DcFaultResult> results;
    batch::BatchStats batch;     ///< scheduler / collapse / warm-start stats

    std::size_t detected() const;
    /// DC fault coverage in percent.
    double coverage() const;
    /// Faults a static test cannot see (candidates for the transient run).
    std::vector<int> undetected_ids() const;
    /// Faults that failed without exhausting the retry ladder.
    std::size_t failed() const;
    /// Faults retired by the retry ladder: every rung failed.
    std::size_t quarantined() const;
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
