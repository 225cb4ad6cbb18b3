#include "anafault/ac_campaign.h"

#include "anafault/comparator.h"
#include "anafault/driver.h"
#include "netlist/writer.h"

namespace catlift::anafault {

using netlist::Circuit;

std::size_t AcCampaignResult::detected() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const AcFaultResult& r) { return r.detected; }));
}

double AcCampaignResult::coverage() const {
    if (results.empty()) return 0.0;
    return 100.0 * static_cast<double>(detected()) /
           static_cast<double>(results.size());
}

std::size_t AcCampaignResult::failed() const {
    return static_cast<std::size_t>(std::count_if(
        results.begin(), results.end(), [](const AcFaultResult& r) {
            return !r.simulated && !r.quarantined;
        }));
}

std::size_t AcCampaignResult::quarantined() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const AcFaultResult& r) { return r.quarantined; }));
}

std::uint64_t ac_campaign_manifest(const Circuit& ckt,
                                   const lift::FaultList& faults,
                                   const AcCampaignOptions& opt) {
    std::uint64_t h =
        chain_fault_manifest(batch::fnv1a(netlist::write_spice(ckt)), faults);
    std::string o = "ac";
    const auto field = [&o](const std::string& v) {
        o += '|';
        o += v;
    };
    field(to_string(opt.injection.model));
    field(manifest_double(opt.injection.short_resistance));
    field(manifest_double(opt.injection.open_resistance));
    field(manifest_double(opt.sweep.fstart));
    field(manifest_double(opt.sweep.fstop));
    field(std::to_string(opt.sweep.points_per_decade));
    field(manifest_double(opt.db_tol));
    for (const std::string& n : opt.observed) field(n);
    o += sim_knob_signature(opt.sim);
    o += opt.share_symbolic ? "|sharesym" : "|nosharesym";
    o += opt.collapse ? "|collapse" : "|nocollapse";
    o += opt.early_abort ? "|abort" : "|noabort";
    // The retry ladder can converge a fault the base config fails, so a
    // store written under a different retry depth is foreign.
    o += "|retries:" + std::to_string(opt.max_retries);
    return batch::fnv1a(o, h);
}

batch::FaultSimResult ac_to_record(const AcFaultResult& r) {
    batch::FaultSimResult rec;
    rec.fault_id = r.fault_id;
    rec.description = r.description;
    rec.probability = r.probability;
    rec.simulated = r.simulated;
    rec.error = r.error;
    if (r.detected) rec.detect_time = r.detect_freq.value_or(0.0);
    rec.metric = r.max_deviation_db;
    rec.steps_saved = r.points_saved;
    rec.sim_seconds = r.sim_seconds;
    rec.nr_iterations = r.nr_iterations;
    rec.symbolic_cache_hits = r.symbolic_cache_hits;
    rec.ordering_seconds = r.ordering_seconds;
    rec.numeric_seconds = r.numeric_seconds;
    rec.carried = r.carried;
    rec.attempts = r.attempts;
    rec.quarantined = r.quarantined;
    rec.retry_log = r.retry_log;
    return rec;
}

AcFaultResult ac_from_record(const batch::FaultSimResult& rec) {
    AcFaultResult r;
    r.fault_id = rec.fault_id;
    r.description = rec.description;
    r.probability = rec.probability;
    r.simulated = rec.simulated;
    r.error = rec.error;
    r.detected = rec.detect_time.has_value();
    if (rec.detect_time) r.detect_freq = rec.detect_time;
    r.max_deviation_db = rec.metric;
    r.points_saved = rec.steps_saved;
    r.sim_seconds = rec.sim_seconds;
    r.nr_iterations = rec.nr_iterations;
    r.symbolic_cache_hits = rec.symbolic_cache_hits;
    r.ordering_seconds = rec.ordering_seconds;
    r.numeric_seconds = rec.numeric_seconds;
    r.carried = rec.carried;
    r.attempts = rec.attempts;
    r.quarantined = rec.quarantined;
    r.retry_log = rec.retry_log;
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
