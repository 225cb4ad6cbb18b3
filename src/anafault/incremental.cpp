#include "anafault/incremental.h"

#include "anafault/driver.h"

#include <filesystem>
#include <map>
#include <set>
#include <sstream>

namespace catlift::anafault {

using netlist::Circuit;

namespace {

/// Baseline verdicts keyed by electrical signature.  The store records
/// carry fault ids, the baseline fault list maps ids to signatures; the
/// first record per id wins, mirroring the resume path of run_campaign.
std::map<std::string, const batch::FaultSimResult*> baseline_by_signature(
    const lift::FaultList& baseline, const batch::StoreSnapshot& snap) {
    std::map<int, const batch::FaultSimResult*> by_id;
    for (const batch::FaultSimResult& r : snap.records)
        by_id.emplace(r.fault_id, &r);
    std::map<std::string, const batch::FaultSimResult*> by_sig;
    for (const lift::Fault& f : baseline.faults) {
        const auto it = by_id.find(f.id);
        if (it != by_id.end())
            by_sig[lift::electrical_signature(f)] = it->second;
    }
    return by_sig;
}

/// Rebind a baseline record to the revision fault it is carried for: the
/// identity (id, description, probability) becomes the revision's, the
/// verdict and its original kernel cost stay with the record.
batch::FaultSimResult carry(const batch::FaultSimResult& baseline_record,
                            const lift::Fault& f) {
    batch::FaultSimResult r = baseline_record;
    r.fault_id = f.id;
    r.description = f.describe();
    r.probability = f.probability;
    r.carried = true;
    return r;
}

/// The analysis-independent core: classify the revision against the
/// baseline, validate the baseline store against `baseline_manifest`, and
/// split the revision into carried records and the subset to simulate.
struct CarrySplit {
    std::map<int, batch::FaultSimResult> carried_by_id;
    lift::FaultList subset;
    IncrementalStats inc;
    /// The baseline's nominal record when its manifest matched: same
    /// circuit, analysis spec and knobs, hence the revision's nominal.
    std::optional<batch::NominalRecord> nominal;
};

CarrySplit split_for_carry(const lift::FaultList& baseline,
                           const lift::FaultList& revision, double rel_tol,
                           const std::string& baseline_store,
                           std::uint64_t baseline_manifest) {
    CarrySplit out;

    // Classify the revision against the baseline.  The diff's carried
    // pair list is the single source of truth for the carry/resimulate
    // split: everything not in it (added, probability-changed) is
    // resimulated.
    const lift::FaultListDiff diff =
        lift::diff_faultlists(baseline, revision, rel_tol);
    out.inc.removed = diff.only_a.size();
    out.inc.added = diff.only_b.size();
    out.inc.probability_changed = diff.probability_changed.size();
    std::set<std::string> carried_sigs;
    for (const auto& [a, b] : diff.carried)
        carried_sigs.insert(lift::electrical_signature(b));

    // The baseline store is only trusted when its manifest proves it was
    // written by this circuit + baseline fault list + knob set.
    std::map<std::string, const batch::FaultSimResult*> by_sig;
    const std::optional<batch::StoreSnapshot> snap =
        batch::load_store(baseline_store);
    if (!snap) {
        out.inc.carry_block_reason = baseline_store.empty()
                                         ? "no baseline store given"
                                         : "baseline store missing or not a "
                                           "current-version store";
    } else if (snap->manifest != baseline_manifest) {
        out.inc.carry_block_reason =
            "baseline store manifest does not match this circuit / baseline "
            "fault list / numeric+kernel knobs";
    } else {
        out.inc.baseline_manifest_matched = true;
        by_sig = baseline_by_signature(baseline, *snap);
        out.nominal = snap->nominal;
    }

    // Split the revision: carried verdicts vs the subset to simulate.
    out.subset.circuit = revision.circuit;
    for (const lift::Fault& f : revision.faults) {
        const std::string sig = lift::electrical_signature(f);
        const batch::FaultSimResult* rec = nullptr;
        if (carried_sigs.count(sig)) {
            const auto it = by_sig.find(sig);
            if (it != by_sig.end()) rec = it->second;
        }
        if (rec)
            out.carried_by_id.emplace(f.id, carry(*rec, f));
        else
            out.subset.faults.push_back(f);
    }
    out.inc.carried = out.carried_by_id.size();
    out.inc.resimulated = out.subset.faults.size();
    if (obs::metrics_enabled())
        obs::Registry::global()
            .counter("campaign.carried_from_baseline")
            .add(out.inc.carried);
    if (obs::events_enabled()) {
        for (const auto& [id, r] : out.carried_by_id)
            obs::emit_event(
                "fault_carried",
                {obs::arg("fault_id", static_cast<std::int64_t>(id)),
                 obs::arg("verdict", std::string(detail::verdict_of(r)))});
        obs::emit_event(
            "incremental_carry",
            {obs::arg("carried",
                      static_cast<std::int64_t>(out.inc.carried)),
             obs::arg("resimulated",
                      static_cast<std::int64_t>(out.inc.resimulated)),
             obs::arg("added", static_cast<std::int64_t>(out.inc.added)),
             obs::arg("removed",
                      static_cast<std::int64_t>(out.inc.removed)),
             obs::arg("probability_changed",
                      static_cast<std::int64_t>(
                          out.inc.probability_changed)),
             obs::arg("carry_block_reason", out.inc.carry_block_reason)});
    }
    return out;
}

/// Seed the merged store with the baseline's nominal record and the
/// carried records, bound to the revision manifest, so the subset
/// campaign loads the nominal instead of simulating it, a crash
/// mid-subset never costs a carried verdict, and the merged store resumes
/// -- and serves as the next revision's baseline -- as if a cold full
/// campaign had written it.
void seed_merged_store(const std::string& path, std::uint64_t manifest,
                       bool resume, const CarrySplit& split,
                       batch::Durability durability) {
    if (!resume) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    batch::ResultStore store(path, manifest, durability);
    if (split.nominal && !store.loaded_nominal())
        store.append_nominal(*split.nominal);
    std::set<int> present;
    for (const batch::FaultSimResult& r : store.loaded())
        present.insert(r.fault_id);
    for (const auto& [id, r] : split.carried_by_id)
        if (!present.count(id)) store.append(r);
}

/// The incremental engine over one analysis policy: carry what the
/// baseline store proves (its nominal included), run the remainder as a
/// subset campaign into the merged store, and merge in revision order.
/// Kernel-cost aggregates and batch counters describe the work this run
/// performed.
template <class P>
IncrementalRunResult<typename P::Output> run_incremental(
    const Circuit& ckt, const lift::FaultList& baseline,
    const lift::FaultList& revision,
    const IncrementalRunOptions<typename P::Options>& opt) {
    const std::string what =
        std::string("incremental ") + P::kAnalysis + " campaign";
    IncrementalRunResult<typename P::Output> res;
    require(!(opt.campaign.resume && opt.campaign.result_store.empty()),
            what + ": resume needs a merged result store path");

    CarrySplit split =
        split_for_carry(baseline, revision, opt.rel_tol, opt.baseline_store,
                        P::manifest(ckt, baseline, opt.campaign));
    res.inc = split.inc;

    typename P::Options copt = opt.campaign;
    if (!copt.result_store.empty()) {
        const std::uint64_t manifest =
            P::manifest(ckt, revision, opt.campaign);
        seed_merged_store(copt.result_store, manifest, opt.campaign.resume,
                          split, copt.store_durability);
        // The subset campaign reopens the merged store under the revision
        // manifest: its own finished records resume, carried ids (not in
        // the subset) pass through untouched.
        copt.resume = true;
        copt.manifest_override = manifest;
    }

    typename P::Output sub = P::run(ckt, split.subset, copt);

    std::map<int, const typename P::Result*> sub_by_id;
    for (const typename P::Result& r : sub.results)
        sub_by_id.emplace(r.fault_id, &r);
    std::vector<typename P::Result> merged;
    merged.reserve(revision.size());
    for (const lift::Fault& f : revision.faults) {
        const auto carried_it = split.carried_by_id.find(f.id);
        if (carried_it != split.carried_by_id.end()) {
            merged.push_back(P::from_record(carried_it->second));
            continue;
        }
        const auto it = sub_by_id.find(f.id);
        require(it != sub_by_id.end(),
                what + ": missing result for fault " + std::to_string(f.id));
        merged.push_back(*it->second);
    }
    res.campaign = std::move(sub);
    res.campaign.results = std::move(merged);
    // The merged result carries the baseline's verdicts for untouched
    // faults; report them under the cross-revision figure, never as
    // current-process work (see BatchStats' counter-reset contract).
    res.campaign.batch.carried_from_store += split.inc.carried;
    return res;
}

} // namespace

IncrementalResult run_incremental_campaign(const Circuit& ckt,
                                           const lift::FaultList& baseline,
                                           const lift::FaultList& revision,
                                           const IncrementalOptions& opt) {
    return run_incremental<detail::TranPolicy>(ckt, baseline, revision, opt);
}

IncrementalAcResult run_incremental_ac_campaign(
    const Circuit& ckt, const lift::FaultList& baseline,
    const lift::FaultList& revision, const IncrementalAcOptions& opt) {
    return run_incremental<detail::AcPolicy>(ckt, baseline, revision, opt);
}

IncrementalDcResult run_incremental_dc_screen(const Circuit& ckt,
                                              const lift::FaultList& baseline,
                                              const lift::FaultList& revision,
                                              const IncrementalDcOptions& opt) {
    return run_incremental<detail::DcPolicy>(ckt, baseline, revision, opt);
}

std::string incremental_summary(const IncrementalStats& inc,
                                std::size_t total) {
    std::ostringstream os;
    os << "incremental: carried " << inc.carried << "/" << total
       << ", resimulated " << inc.resimulated << " (added " << inc.added
       << ", changed " << inc.probability_changed << "), removed "
       << inc.removed;
    if (!inc.carry_block_reason.empty())
        os << " [carry disabled: " << inc.carry_block_reason << "]";
    os << "\n";
    return os.str();
}

std::string incremental_summary(const IncrementalResult& res) {
    return incremental_summary(res.inc, res.campaign.results.size());
}

} // namespace catlift::anafault
