#include "anafault/ac_campaign.h"

#include "anafault/comparator.h"
#include "anafault/driver.h"
#include "netlist/writer.h"

namespace catlift::anafault {

using netlist::Circuit;

std::uint64_t ac_campaign_manifest(const Circuit& ckt,
                                   const lift::FaultList& faults,
                                   const AcCampaignOptions& opt) {
    std::uint64_t h =
        chain_fault_manifest(batch::fnv1a(netlist::write_spice(ckt)), faults);
    std::string o = "ac|";
    o += injection_signature(opt);
    const auto field = [&o](const std::string& v) {
        o += '|';
        o += v;
    };
    field(manifest_double(opt.sweep.fstart));
    field(manifest_double(opt.sweep.fstop));
    field(std::to_string(opt.sweep.points_per_decade));
    field(manifest_double(opt.db_tol));
    for (const std::string& n : opt.observed) field(n);
    o += run_signature(opt, opt.early_abort ? "abort" : "noabort");
    return batch::fnv1a(o, h);
}

batch::FaultSimResult ac_to_record(const AcFaultResult& r) {
    batch::FaultSimResult rec;
    copy_outcome(r, rec);
    rec.simulated = r.simulated;
    if (r.detected) rec.detect_time = r.detect_freq.value_or(0.0);
    rec.metric = r.max_deviation_db;
    rec.steps_saved = r.points_saved;
    return rec;
}

AcFaultResult ac_from_record(const batch::FaultSimResult& rec) {
    AcFaultResult r;
    copy_outcome(rec, r);
    r.simulated = rec.simulated;
    r.detected = rec.detect_time.has_value();
    r.detect_freq = rec.detect_time;
    r.max_deviation_db = rec.metric;
    r.points_saved = rec.steps_saved;
    return r;
}

namespace detail {

spice::SimOptions AcPolicy::nominal(AcCampaignResult& res) {
    spice::SimOptions fault_sim = opt.sim;
    {
        obs::Span nsp(obs::Phase::Nominal);
        spice::Simulator sim(ckt, opt.sim);
        res.nominal = sim.ac(opt.sweep);
        res.batch.ordering_seconds = sim.stats().ordering_seconds;
        res.batch.numeric_seconds = sim.stats().numeric_seconds;
        if (opt.share_symbolic) fault_sim.symbolic_cache = sim.symbolic_cache();
    }
    for (const std::string& node : opt.observed)
        require(res.nominal.has(node),
                "ac campaign: observed node missing: " + node);
    nominal_ac = &res.nominal;
    return fault_sim;
}

/// One faulty sweep, streamed through the detector so it can stop at the
/// first dB violation.
Attempt AcPolicy::attempt(const Circuit& faulty,
                          const spice::SimOptions& sim_opt,
                          AcFaultResult& r) const {
    AcStreamingDetector detector(*nominal_ac, opt.observed, opt.db_tol);
    spice::Simulator sim(faulty, sim_opt);
    const spice::AcPointObserver observer =
        [&](double, const spice::AcResult& partial) {
            return !(detector.feed(partial) && opt.early_abort);
        };
    sim.ac(opt.sweep, observer);
    r.simulated = true;
    r.detected = detector.detected();
    r.detect_freq = detector.detect_freq();
    r.max_deviation_db = detector.max_deviation_db();
    r.points_saved = sim.stats().ac_points_saved;
    r.nr_iterations = sim.stats().nr_iterations;
    r.symbolic_cache_hits = sim.stats().symbolic_cache_hits;
    r.ordering_seconds = sim.stats().ordering_seconds;
    r.numeric_seconds = sim.stats().numeric_seconds;
    return {true, true};
}

void AcPolicy::publish(const AcFaultResult& r, const FaultObs& o) {
    if (r.detect_freq) o.detect("detect_freq_hz", *r.detect_freq);
    o.arg("max_deviation_db", r.max_deviation_db);
    o.count("freq_points_saved", i64(r.points_saved));
}

void AcPolicy::fold(AcCampaignResult& res, const AcFaultResult& r) {
    if (r.points_saved > 0) {
        ++res.batch.early_aborts;
        res.batch.freq_points_saved += r.points_saved;
    }
}

} // namespace detail

AcCampaignResult run_ac_campaign(const Circuit& ckt,
                                 const lift::FaultList& faults,
                                 const AcCampaignOptions& opt) {
    detail::AcPolicy p{ckt, opt};
    return detail::drive(p, faults);
}

} // namespace catlift::anafault
