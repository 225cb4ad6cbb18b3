// catlift/anafault/campaign.h
//
// The automatic fault simulation loop (paper, ch. V): "After the execution
// of the nominal simulation, the automatic analogue fault simulation is
// performed in a repetitive cycle of three main phases: the preprocessing
// of the original input file, the call of the kernel simulator and a
// post-processing phase that compares results and generates statistics."
//
// That cycle is written once, in the campaign driver (anafault/driver.h),
// and runs for every fault in a lift::FaultList, serially or on a thread
// pool (the paper's follow-up work [21] ran AnaFAULT in parallel on a
// workstation cluster; a shared-memory pool is the laptop equivalent).
// The transient campaign below is one of its three policies; the AC sweep
// (ac_campaign.h) and the DC screen (dc_campaign.h) are the other two and
// share its store, resume, collapsing, retry ladder and events.
// Two ERASER-style trims always run, verdict-identical to the untrimmed
// cycle: one simulation per class of faults with one electrical effect
// (batch/collapse.h), and every faulty run stops at its first confirmed
// detection (StreamingDetector).
//
// This header also declares the vocabulary the three analyses share, once:
// RunOptions (the execution options every option struct derives from),
// FaultOutcome (the identity, containment and cost fields of every
// per-fault result, copied to and from the store record by copy_outcome)
// and CampaignOutput (results, batch counters and the detected / failed /
// quarantined / retries / coverage tallies of every campaign result).

#pragma once

#include "anafault/comparator.h"
#include "anafault/fault_models.h"
#include "anafault/retry.h"
#include "batch/result_store.h"
#include "batch/scheduler.h"
#include "lift/fault.h"
#include "netlist/netlist.h"
#include "spice/engine.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace catlift::anafault {

/// The execution options every analysis shares: how a fault is injected,
/// the kernel knobs, and how the batch engine runs the list.  The tran,
/// AC and DC option structs derive from it and add only their own
/// analysis axis and detection knobs; injection_signature() and
/// run_signature() hash the verdict-affecting fields into every manifest.
struct RunOptions {
    InjectionOptions injection;
    spice::SimOptions sim;
    /// Worker threads (1 = serial).
    // manifest-exempt: parallelism only changes wall-clock; the
    // work-stealing scheduler retires identical verdicts at any
    // worker count (pinned by batch_test.cpp determinism cases).
    unsigned threads = 1;
    /// Campaign-shared symbolic kernel: harvest the nominal analysis'
    /// sparse elimination order (spice::SymbolicCache) and hand it to
    /// every faulty variant, so the one-time fill-reducing analysis runs
    /// once per campaign instead of once per fault.  Only effective when
    /// the kernel is sparse (>= sim.sparse_threshold unknowns);
    /// verdict-affecting (the pivot order steers rounding), so it is part
    /// of the campaign manifest.
    bool share_symbolic = true;
    /// Retry/degradation ladder (anafault/retry.h): degraded re-attempts
    /// allowed after a fault's first simulation failure.  A fault that
    /// exhausts every attempt retires `quarantined`; 0 restores the
    /// pre-containment behavior (first failure retires `failed`).
    /// Verdict-affecting (a retried fault may converge on a lower rung),
    /// so it is part of the campaign manifest.
    int max_retries = kDefaultMaxRetries;
    /// Path of the append-only result store ("" disables persistence).
    // manifest-exempt: where results land, not what they are; the
    // store binds to the campaign via the manifest hash, not its path.
    std::string result_store;
    /// Durability of each store append (batch::Durability): Flush
    /// survives process death, Fsync survives power loss.  Not
    /// verdict-affecting, hence not in the manifest.
    // manifest-exempt: crash-durability of the store file only.
    batch::Durability store_durability = batch::Durability::Flush;
    /// Reuse results already in `result_store` from a previous (possibly
    /// crashed) run of the *same* campaign; without this flag an existing
    /// store is restarted.
    // manifest-exempt: resume replays *already-verified* records of
    // the same manifest; it cannot change what a fault retires as.
    bool resume = false;
};

struct CampaignOptions : RunOptions {
    DetectionSpec detection;
    /// Analysis grid; falls back to the circuit's own .tran card.
    std::optional<netlist::TranSpec> tran;

    CampaignOptions() {
        sim.uic = true;       // paper: start at supply activation
        // LTE-controlled adaptive stepping is the campaign default: an
        // undetected fault's quiescent tail integrates in a handful of
        // solves instead of a full fixed grid, multiplying with early
        // abort.  anafaultc exposes --no-adaptive / --lte-tol.
        sim.adaptive = true;
        // Campaigns replay a device stamp only when its terminals are
        // bitwise unchanged: detection verdicts of margin-rider faults on
        // autonomous oscillators flip under any nonzero device staleness
        // (see SimOptions::device_bypass_tol), and campaign verdicts are
        // the product being sold.  anafaultc exposes --device-bypass-tol.
        sim.device_bypass_tol = 0.0;
    }
};

/// The per-fault fields every analysis' result shares with its store
/// record (batch::FaultSimResult): identity, failure containment, kernel
/// cost and provenance.  The campaign driver fills them itself;
/// copy_outcome() moves them between a result and its record.
struct FaultOutcome {
    int fault_id = 0;
    std::string description;
    double probability = 0.0;
    /// Why the last attempt (or the injection) failed; empty when the
    /// fault ran.
    std::string error;
    double sim_seconds = 0.0;            ///< kernel wall time, all attempts
    std::size_t nr_iterations = 0;       ///< NR cost of the analysis
    std::size_t symbolic_cache_hits = 0; ///< kernel adopted the shared order
    double ordering_seconds = 0.0;       ///< sparse one-time analysis time
    double numeric_seconds = 0.0;        ///< sparse refactor time
    /// Verdict carried from a baseline store by the incremental engine.
    bool carried = false;
    std::uint32_t attempts = 1;  ///< simulation attempts (1 = no retry)
    /// The retry ladder was exhausted: every attempt failed.  Disjoint
    /// from plain `failed` (the fault did not run and is not quarantined).
    bool quarantined = false;
    std::string retry_log;  ///< one entry per failed attempt
};

/// Copy the FaultOutcome fields from a result to its store record or back.
template <class From, class To>
void copy_outcome(const From& from, To& to) {
    to.fault_id = from.fault_id;
    to.description = from.description;
    to.probability = from.probability;
    to.error = from.error;
    to.sim_seconds = from.sim_seconds;
    to.nr_iterations = from.nr_iterations;
    to.symbolic_cache_hits = from.symbolic_cache_hits;
    to.ordering_seconds = from.ordering_seconds;
    to.numeric_seconds = from.numeric_seconds;
    to.carried = from.carried;
    to.attempts = from.attempts;
    to.quarantined = from.quarantined;
    to.retry_log = from.retry_log;
}

/// Outcome of one fault simulation (defined beside the result store that
/// persists it).
using FaultSimResult = batch::FaultSimResult;

/// Verdict predicates of a transient result: detected, and ran to a
/// verdict.  The AC and DC results declare theirs beside their type.
inline bool is_detected(const FaultSimResult& r) {
    return r.detect_time.has_value();
}
inline bool ran(const FaultSimResult& r) { return r.simulated; }

/// The per-fault results of one campaign and the counters every analysis
/// derives from them the same way (through is_detected / ran).
template <class R>
struct CampaignOutput {
    std::vector<R> results;
    batch::BatchStats batch;  ///< scheduler / collapse / abort counters
    /// Wall time this run spent obtaining the nominal analysis: the
    /// simulation, or the load from the result store when an earlier run
    /// persisted it (batch.nominal_resumed).
    double nominal_seconds = 0.0;

    std::size_t detected() const {
        return count([](const R& r) { return is_detected(r); });
    }
    /// Faults that ran to a verdict without being detected.
    std::size_t undetected() const {
        return count([](const R& r) { return ran(r) && !is_detected(r); });
    }
    /// Faults that failed without exhausting the retry ladder (injection
    /// errors, contained exceptions); disjoint from quarantined().
    std::size_t failed() const {
        return count([](const R& r) { return !ran(r) && !r.quarantined; });
    }
    /// Faults retired by the retry ladder: every rung failed.
    std::size_t quarantined() const {
        return count([](const R& r) { return r.quarantined; });
    }
    /// Degraded re-attempts across all faults (resumed records included).
    std::size_t retries() const {
        std::size_t n = 0;
        for (const R& r : results)
            if (r.attempts > 1) n += r.attempts - 1;
        return n;
    }
    /// Fault coverage in percent.
    double coverage() const {
        if (results.empty()) return 0.0;
        return 100.0 * static_cast<double>(detected()) /
               static_cast<double>(results.size());
    }

private:
    template <class Pred>
    std::size_t count(Pred pred) const {
        return static_cast<std::size_t>(
            std::count_if(results.begin(), results.end(), pred));
    }
};

/// Aggregated transient campaign outcome with the coverage computations
/// behind the paper's Fig. 5.
struct CampaignResult : CampaignOutput<FaultSimResult> {
    spice::Waveforms nominal;
    double total_seconds = 0.0;  ///< kernel time this run spent on faults
                                 ///< (store-resumed results excluded; their
                                 ///< original cost stays on each result)
    double tstop = 0.0;

    /// Fault coverage (%) counting faults detected by time t.
    double coverage_at(double t) const;
    /// Final fault coverage (%).
    double final_coverage() const { return coverage_at(tstop); }
    /// Probability-weighted coverage (%): detected probability mass over
    /// total probability mass -- the weighted fault list is "used to
    /// evaluate the effectiveness of the test" (ch. IV).
    double weighted_coverage() const;
    /// Earliest time at which every detectable fault has been detected.
    std::optional<double> time_of_last_detection() const;
    /// Coverage curve sampled at `points` instants (Fig. 5 series).
    std::vector<std::pair<double, double>> coverage_curve(
        std::size_t points = 100) const;
};

/// Run the campaign for every fault in the list.
CampaignResult run_campaign(const netlist::Circuit& ckt,
                            const lift::FaultList& faults,
                            const CampaignOptions& opt = {});

/// Manifest hash of the campaign (ckt, faults, opt) would run: circuit
/// text, per-fault identity, analysis grid and every verdict-determining
/// numeric/kernel knob.  A result store is resumable against a campaign
/// iff the manifests match; the incremental engine likewise only carries
/// baseline verdicts whose store manifest reproduces this hash for the
/// baseline fault list.  Threads and the store path, durability and
/// resume are deliberately excluded (they do not change verdicts).
std::uint64_t campaign_manifest(const netlist::Circuit& ckt,
                                const lift::FaultList& faults,
                                const CampaignOptions& opt = {});

/// Canonical text of every verdict-determining numeric/kernel knob of a
/// SimOptions -- part of run_signature().
std::string sim_knob_signature(const spice::SimOptions& sim);

/// Manifest text of the injection model ("resistor|<short>|<open>"), the
/// first block of every analysis' option text.
std::string injection_signature(const RunOptions& opt);

/// Manifest text of the shared kernel and engine knobs, the last block of
/// every analysis' option text.  `mode` is the analysis' own engine
/// shortcut token ("abort" for tran and AC, "warm" for DC), hashed between
/// the collapse and retry tokens.
std::string run_signature(const RunOptions& opt, const char* mode);

/// Chain every fault's identity (id | description | probability |
/// electrical-effect signature) into a manifest hash -- the fault-list
/// block shared by the tran, AC and DC campaign manifests.
std::uint64_t chain_fault_manifest(std::uint64_t h,
                                   const lift::FaultList& faults);

/// Exact (hex-float) text of a double for manifest hashing.
std::string manifest_double(double v);

/// Run a parametric (soft) fault set through the same cycle.
CampaignResult run_parametric_campaign(
    const netlist::Circuit& ckt, const std::vector<ParametricFault>& faults,
    const CampaignOptions& opt = {});

} // namespace catlift::anafault
