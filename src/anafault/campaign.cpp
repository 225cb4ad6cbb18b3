#include "anafault/campaign.h"

#include "anafault/driver.h"
#include "netlist/writer.h"

#include <cstdio>

namespace catlift::anafault {

using netlist::Circuit;
using netlist::TranSpec;
using spice::Simulator;
using spice::Waveforms;

namespace {

std::string hexd(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

} // namespace

std::string manifest_double(double v) { return hexd(v); }

std::uint64_t chain_fault_manifest(std::uint64_t h,
                                   const lift::FaultList& faults) {
    return detail::chain_fault_metas(h, detail::fault_metas(faults));
}

std::string sim_knob_signature(const spice::SimOptions& sim) {
    std::string o;
    o += sim.method == spice::Method::Trapezoidal ? "|trap" : "|be";
    o += sim.uic ? "|uic" : "|op";
    // Every solver knob alters waveforms (and hence verdicts) -- a store
    // written under different numerics must never be resumed.
    // The literals are the kernel's fixed constants (cmin 1 fF, abstol,
    // vntol, reltol 1e-3, the 1 V NR step limit, 150 NR iterations, 10
    // step cuts, stride cap 64) as they printed when they were options:
    // every store keeps its hash.
    o += "|" + hexd(sim.gmin) + "|0x1.203af9ee75616p-50";
    o += "|0x1.12e0be826d695p-30|0x1.0c6f7a0b5ed8dp-20";
    o += "|0x1.0624dd2f1a9fcp-10|0x1p+0";
    o += "|150|10";
    // Adaptive stepping changes the waveforms (within LTE tolerance, but
    // changed is changed): a store written under the other stepping mode
    // or a different LTE knob must not be resumed.
    o += sim.adaptive ? "|adaptive" : "|fixedgrid";
    o += "|" + hexd(sim.lte_tol);
    o += "|64";
    // Kernel selection changes waveform rounding (and the bypass mode may
    // perturb within its tolerance): a store written under a different
    // kernel configuration must never be resumed.
    o += "|sparse:" + std::to_string(sim.sparse_threshold);
    if (sim.bypass) {
        o += "|bypass:" + hexd(sim.bypass_tol);
        o += ":" + hexd(sim.device_bypass_tol);
    } else {
        o += "|nobypass";
    }
    // The simulator always orders sparse factorizations with AMD; the
    // literal keeps the hash of every existing manifest, and so every
    // store, unchanged.
    o += "|amd";
    // Execution budgets fail slow faults instead of waiting them out --
    // verdict-affecting, so a store written under different budgets is
    // foreign.
    o += "|wall:" + hexd(sim.max_wall_seconds);
    o += "|nrb:" + std::to_string(sim.max_nr_total);
    o += "|stb:" + std::to_string(sim.max_tran_steps);
    return o;
}

std::string injection_signature(const RunOptions& opt) {
    // The paper's fixed element values, 0.01 Ohm shorts and 100 MOhm
    // opens, as they printed when they were options.
    return std::string(to_string(opt.injection.model)) +
           "|0x1.47ae147ae147bp-7|0x1.7d784p+26";
}

std::string run_signature(const RunOptions& opt, const char* mode) {
    std::string o = sim_knob_signature(opt.sim);
    o += opt.share_symbolic ? "|sharesym" : "|nosharesym";
    // The engine shortcuts (collapsing, the analysis' own `mode`) have no
    // off switch; their tokens keep every manifest's hash.
    o += "|collapse|";
    o += mode;
    // The retry ladder can converge a fault the base config fails, so a
    // store written under a different retry depth is foreign.
    o += "|retries:" + std::to_string(opt.max_retries);
    return o;
}

namespace {

/// Campaign manifest: hashes everything that determines the per-fault
/// verdicts, so a result store is only ever resumed against the campaign
/// that wrote it.
std::uint64_t manifest_hash(const Circuit& ckt,
                            const std::vector<detail::JobMeta>& metas,
                            const TranSpec& ts, const CampaignOptions& opt) {
    const std::uint64_t h = detail::chain_fault_metas(
        batch::fnv1a(netlist::write_spice(ckt)), metas);
    std::string o = injection_signature(opt);
    o += "|" + hexd(opt.detection.v_tol) + "|" + hexd(opt.detection.t_tol);
    o += "|0x1.47ae147ae147bp-7";  // the fixed 10 mA supply tolerance
    for (const std::string& n : opt.detection.observed) o += "|" + n;
    for (const std::string& s : opt.detection.observed_supplies)
        o += "|i:" + s;
    o += "|" + hexd(ts.tstep) + "|" + hexd(ts.tstop) + "|" + hexd(ts.tstart);
    o += run_signature(opt, "abort");
    return batch::fnv1a(o, h);
}

} // namespace

namespace detail {

TranSpec resolve_tran(const Circuit& ckt, const CampaignOptions& opt) {
    if (opt.tran) return *opt.tran;
    require(ckt.tran.has_value(),
            "campaign: no .tran card and no explicit TranSpec");
    return *ckt.tran;
}

std::uint64_t chain_fault_metas(std::uint64_t h,
                                const std::vector<JobMeta>& metas) {
    for (const JobMeta& m : metas) {
        // Delimited: without separators, distinct (id, description,
        // probability, signature) tuples could chain to the same bytes.
        h = batch::fnv1a(std::to_string(m.fault_id) + "|" + m.description +
                             "|" + hexd(m.probability) + "|" + m.signature +
                             "\n",
                         h);
    }
    return h;
}

std::vector<JobMeta> fault_metas(const lift::FaultList& faults) {
    std::vector<JobMeta> metas;
    metas.reserve(faults.size());
    for (const lift::Fault& f : faults.faults) {
        JobMeta m;
        m.fault_id = f.id;
        m.description = f.describe();
        m.probability = f.probability;
        m.signature = batch::effect_signature(f);
        metas.push_back(std::move(m));
    }
    return metas;
}

void put_rank(batch::NominalRecord& rec, const spice::SymbolicCache* cache) {
    if (!cache) return;
    for (const auto& [name, rank] : cache->rank)
        rec.scalars.emplace_back("rank:" + name, rank);
}

std::shared_ptr<const spice::SymbolicCache> get_rank(
    const batch::NominalRecord& rec) {
    auto cache = std::make_shared<spice::SymbolicCache>();
    for (const auto& [key, rank] : rec.scalars)
        if (key.rfind("rank:", 0) == 0)
            cache->rank[key.substr(5)] = static_cast<int>(rank);
    if (cache->rank.empty()) return nullptr;
    return cache;
}

spice::SimOptions TranPolicy::nominal(CampaignResult& res, obs::Span& sp) {
    res.tstop = ts.tstop;
    spice::SimOptions fault_sim = opt.sim;
    Simulator sim(ckt, opt.sim);
    sp.arg("unknowns", static_cast<std::int64_t>(sim.unknowns()));
    res.nominal = sim.tran(ts);
    res.batch.steps_integrated = sim.stats().tran_steps;
    res.batch.steps_interpolated = sim.stats().grid_points_interpolated;
    res.batch.bypass_solves = sim.stats().bypass_solves;
    res.batch.sparse_refactors = sim.stats().sparse_refactors;
    res.batch.device_stamp_skips = sim.stats().device_stamp_skips;
    res.batch.ordering_seconds = sim.stats().ordering_seconds;
    res.batch.numeric_seconds = sim.stats().numeric_seconds;
    // Null when the nominal kernel is dense: every variant then simply
    // analyzes itself.
    if (opt.share_symbolic) fault_sim.symbolic_cache = sim.symbolic_cache();
    nominal_wf = &res.nominal;
    return fault_sim;
}

/// The waveforms as the time axis followed by one vector per trace, in
/// registration order.
batch::NominalRecord TranPolicy::to_nominal(const CampaignResult& res) {
    batch::NominalRecord rec;
    rec.vectors.emplace_back("time", res.nominal.time());
    for (const std::string& name : res.nominal.trace_names())
        rec.vectors.emplace_back(name, res.nominal.trace(name));
    return rec;
}

void TranPolicy::from_nominal(const batch::NominalRecord& rec,
                              CampaignResult& res) {
    require(!rec.vectors.empty() && rec.vectors[0].first == "time",
            "nominal record: no time axis");
    const std::vector<double>& time = rec.vectors[0].second;
    Waveforms wf;
    for (std::size_t j = 1; j < rec.vectors.size(); ++j) {
        require(rec.vectors[j].second.size() == time.size(),
                "nominal record: trace length differs from the time axis");
        wf.add_trace(rec.vectors[j].first);
    }
    std::vector<double> row(rec.vectors.size() - 1);
    for (std::size_t k = 0; k < time.size(); ++k) {
        for (std::size_t j = 0; j < row.size(); ++j)
            row[j] = rec.vectors[j + 1].second[k];
        wf.append(time[k], row);
    }
    res.nominal = std::move(wf);
    res.tstop = ts.tstop;
    nominal_wf = &res.nominal;
}

/// Run one mutated circuit against the shared nominal baseline, streaming
/// every accepted step into the detector so the run stops at the first
/// confirmed detection.  A solver failure propagates to the driver, which
/// retires the attempt as a retryable failure; it cannot follow a
/// detection, because the run ends at the detecting sample.
Attempt TranPolicy::attempt(const Circuit& faulty,
                            const spice::SimOptions& sim_opt,
                            FaultSimResult& r) const {
    StreamingDetector detector(*nominal_wf, opt.detection);
    Simulator sim(faulty, sim_opt);
    r.matrix_size = sim.unknowns();
    sim.tran(ts, [&](double, const Waveforms& wf) {
        return !detector.feed(wf);
    });
    r.nr_iterations = sim.stats().nr_iterations;
    r.steps_saved = sim.stats().steps_saved;
    r.steps_integrated = sim.stats().tran_steps;
    r.steps_interpolated = sim.stats().grid_points_interpolated;
    r.bypass_solves = sim.stats().bypass_solves;
    r.sparse_refactors = sim.stats().sparse_refactors;
    r.device_stamp_skips = sim.stats().device_stamp_skips;
    r.symbolic_cache_hits = sim.stats().symbolic_cache_hits;
    r.ordering_seconds = sim.stats().ordering_seconds;
    r.numeric_seconds = sim.stats().numeric_seconds;
    r.simulated = true;
    r.detect_time = detector.detect_time();
    return {true, true};
}

void TranPolicy::publish(const FaultSimResult& r, const FaultObs& o) {
    if (r.detect_time) o.detect("detect_time_s", *r.detect_time);
    o.count("steps_saved", i64(r.steps_saved));
    o.count("steps_integrated", i64(r.steps_integrated));
    o.count("bypass_solves", i64(r.bypass_solves));
    o.count("device_stamp_skips", i64(r.device_stamp_skips));
}

void TranPolicy::clear_cost(FaultSimResult& r) {
    r.steps_saved = 0;
    r.steps_integrated = 0;
    r.steps_interpolated = 0;
    r.bypass_solves = 0;
    r.sparse_refactors = 0;
    r.device_stamp_skips = 0;
}

void TranPolicy::fold(CampaignResult& res, const FaultSimResult& r) {
    res.total_seconds += r.sim_seconds;
    res.batch.steps_integrated += r.steps_integrated;
    res.batch.steps_interpolated += r.steps_interpolated;
    res.batch.bypass_solves += r.bypass_solves;
    res.batch.sparse_refactors += r.sparse_refactors;
    res.batch.device_stamp_skips += r.device_stamp_skips;
    if (r.steps_saved > 0) {
        ++res.batch.early_aborts;
        res.batch.steps_saved += r.steps_saved;
    }
}

} // namespace detail

CampaignResult run_campaign(const Circuit& ckt, const lift::FaultList& faults,
                            const CampaignOptions& opt) {
    return detail::run<detail::TranPolicy>(ckt, faults, opt);
}

std::uint64_t campaign_manifest(const Circuit& ckt,
                                const lift::FaultList& faults,
                                const CampaignOptions& opt) {
    return manifest_hash(ckt, detail::fault_metas(faults),
                         detail::resolve_tran(ckt, opt), opt);
}

CampaignResult run_parametric_campaign(
    const Circuit& ckt, const std::vector<ParametricFault>& faults,
    const CampaignOptions& opt) {
    std::vector<detail::JobMeta> metas;
    metas.reserve(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        detail::JobMeta m;
        m.fault_id = static_cast<int>(i) + 1;
        m.description = faults[i].describe();
        m.probability = 1.0;
        m.signature = "PAR:" + faults[i].device + ":" + faults[i].param +
                      ":" + hexd(faults[i].factor);
        metas.push_back(std::move(m));
    }
    detail::TranPolicy p{ckt, opt};
    return detail::drive(
        p, metas,
        [&](std::size_t i) { return inject_parametric(ckt, faults[i]); },
        [&] { return manifest_hash(ckt, metas, p.ts, opt); });
}

// ---------------------------------------------------------------------------
// CampaignResult

double CampaignResult::coverage_at(double t) const {
    if (results.empty()) return 0.0;
    std::size_t det = 0;
    for (const FaultSimResult& r : results)
        if (r.detect_time && *r.detect_time <= t) ++det;
    return 100.0 * static_cast<double>(det) /
           static_cast<double>(results.size());
}

double CampaignResult::weighted_coverage() const {
    double total = 0.0, det = 0.0;
    for (const FaultSimResult& r : results) {
        total += r.probability;
        if (r.detect_time) det += r.probability;
    }
    return total > 0 ? 100.0 * det / total : 0.0;
}

std::optional<double> CampaignResult::time_of_last_detection() const {
    std::optional<double> last;
    for (const FaultSimResult& r : results)
        if (r.detect_time && (!last || *r.detect_time > *last))
            last = r.detect_time;
    return last;
}

std::vector<std::pair<double, double>> CampaignResult::coverage_curve(
    std::size_t points) const {
    std::vector<std::pair<double, double>> out;
    out.reserve(points + 1);
    for (std::size_t i = 0; i <= points; ++i) {
        const double t = tstop * static_cast<double>(i) /
                         static_cast<double>(points);
        out.emplace_back(t, coverage_at(t));
    }
    return out;
}

} // namespace catlift::anafault
