#include "anafault/incremental.h"

#include "anafault/driver.h"

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
/// collect what the store proves about the revision for the driver's
/// loader: the carried records, in revision order, and the baseline's
/// nominal.
struct CarrySplit {
    detail::Known known;
    IncrementalStats inc;
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
    // written by this circuit + baseline fault list + knob set.  Its
    // nominal is then the revision's too: same circuit, analysis spec and
    // knobs.
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
        out.known.nominal = snap->nominal;
    }

    // Carry the verdict of every revision fault the diff and the store
    // both vouch for; the rest is resimulated.
    for (const lift::Fault& f : revision.faults) {
        const std::string sig = lift::electrical_signature(f);
        const auto it = by_sig.find(sig);
        if (carried_sigs.count(sig) && it != by_sig.end())
            out.known.records.push_back(carry(*it->second, f));
    }
    out.inc.carried = out.known.records.size();
    out.inc.resimulated = revision.size() - out.inc.carried;
    if (obs::metrics_enabled())
        obs::Registry::global()
            .counter("campaign.carried_from_baseline")
            .add(out.inc.carried);
    if (obs::events_enabled())
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
    return out;
}

/// The incremental engine over one analysis policy: carry what the
/// baseline store proves (its nominal included) and run the whole
/// revision through the plain campaign driver with those verdicts known,
/// under the revision's own manifest.  The driver's loader reports the
/// carried records under carried_from_store, keeps their cost out of this
/// run's counters and writes them into the merged store after the
/// nominal, so the merged store resumes -- and serves as the next
/// revision's baseline -- as if a cold full campaign had written it.
template <class P>
IncrementalRunResult<typename P::Output> run_incremental(
    const Circuit& ckt, const lift::FaultList& baseline,
    const lift::FaultList& revision,
    const IncrementalRunOptions<typename P::Options>& opt) {
    require(!(opt.campaign.resume && opt.campaign.result_store.empty()),
            std::string("incremental ") + P::kAnalysis +
                " campaign: resume needs a merged result store path");
    const CarrySplit split =
        split_for_carry(baseline, revision, opt.rel_tol, opt.baseline_store,
                        P::manifest(ckt, baseline, opt.campaign));
    return {detail::run<P>(ckt, revision, opt.campaign, split.known),
            split.inc};
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
