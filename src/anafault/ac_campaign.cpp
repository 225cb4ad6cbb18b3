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
    o += run_signature(opt, "abort");
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

spice::SimOptions AcPolicy::nominal(AcCampaignResult& res, obs::Span&) {
    spice::SimOptions fault_sim = opt.sim;
    spice::Simulator sim(ckt, opt.sim);
    res.nominal = sim.ac(opt.sweep);
    res.batch.ordering_seconds = sim.stats().ordering_seconds;
    res.batch.numeric_seconds = sim.stats().numeric_seconds;
    if (opt.share_symbolic) fault_sim.symbolic_cache = sim.symbolic_cache();
    observe(res);
    return fault_sim;
}

void AcPolicy::observe(AcCampaignResult& res) {
    for (const std::string& node : opt.observed)
        require(res.nominal.has(node),
                "ac campaign: observed node missing: " + node);
    nominal_ac = &res.nominal;
}

/// The sweep as the frequency axis followed by one vector per node of
/// interleaved (re, im) pairs, in registration order.
batch::NominalRecord AcPolicy::to_nominal(const AcCampaignResult& res) {
    batch::NominalRecord rec;
    rec.vectors.emplace_back("freq", res.nominal.freq());
    for (const std::string& node : res.nominal.node_names()) {
        const std::vector<std::complex<double>>& h = res.nominal.response(node);
        std::vector<double> v;
        v.reserve(2 * h.size());
        for (const std::complex<double>& z : h) {
            v.push_back(z.real());
            v.push_back(z.imag());
        }
        rec.vectors.emplace_back(node, std::move(v));
    }
    return rec;
}

void AcPolicy::from_nominal(const batch::NominalRecord& rec,
                            AcCampaignResult& res) {
    require(!rec.vectors.empty() && rec.vectors[0].first == "freq",
            "nominal record: no frequency axis");
    const std::vector<double>& freq = rec.vectors[0].second;
    spice::AcResult ac;
    for (std::size_t j = 1; j < rec.vectors.size(); ++j) {
        require(rec.vectors[j].second.size() == 2 * freq.size(),
                "nominal record: response length differs from the sweep");
        ac.add_node(rec.vectors[j].first);
    }
    std::vector<std::complex<double>> row(rec.vectors.size() - 1);
    for (std::size_t k = 0; k < freq.size(); ++k) {
        for (std::size_t j = 0; j < row.size(); ++j) {
            const std::vector<double>& v = rec.vectors[j + 1].second;
            row[j] = {v[2 * k], v[2 * k + 1]};
        }
        ac.append(freq[k], row);
    }
    res.nominal = std::move(ac);
    observe(res);
}

/// One faulty sweep, streamed through the detector so it can stop at the
/// first dB violation.
Attempt AcPolicy::attempt(const Circuit& faulty,
                          const spice::SimOptions& sim_opt,
                          AcFaultResult& r) const {
    AcStreamingDetector detector(*nominal_ac, opt.observed, opt.db_tol);
    spice::Simulator sim(faulty, sim_opt);
    sim.ac(opt.sweep, [&](double, const spice::AcResult& partial) {
        return !detector.feed(partial);
    });
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
    return detail::run<detail::AcPolicy>(ckt, faults, opt);
}

} // namespace catlift::anafault
