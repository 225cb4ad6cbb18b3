#include "anafault/dc_campaign.h"

#include "anafault/driver.h"
#include "netlist/writer.h"

#include <cmath>

namespace catlift::anafault {

using netlist::Circuit;

std::vector<int> DcScreenResult::undetected_ids() const {
    std::vector<int> out;
    for (const DcFaultResult& r : results)
        if (!r.detected) out.push_back(r.fault_id);
    return out;
}

std::uint64_t dc_screen_manifest(const Circuit& ckt,
                                 const lift::FaultList& faults,
                                 const DcScreenOptions& opt) {
    std::uint64_t h =
        chain_fault_manifest(batch::fnv1a(netlist::write_spice(ckt)), faults);
    std::string o = "dc|";
    o += injection_signature(opt);
    const auto field = [&o](const std::string& v) {
        o += '|';
        o += v;
    };
    field(manifest_double(opt.v_tol));
    for (const std::string& n : opt.observed) field(n);
    o += run_signature(opt, "warm");
    return batch::fnv1a(o, h);
}

batch::FaultSimResult dc_to_record(const DcFaultResult& r) {
    batch::FaultSimResult rec;
    copy_outcome(r, rec);
    rec.simulated = r.converged;
    if (r.detected) rec.detect_time = 0.0;
    rec.metric = r.max_deviation;
    return rec;
}

DcFaultResult dc_from_record(const batch::FaultSimResult& rec) {
    DcFaultResult r;
    copy_outcome(rec, r);
    r.converged = rec.simulated;
    r.detected = rec.detect_time.has_value();
    r.max_deviation = rec.metric;
    r.strategy = rec.simulated ? "stored" : "";
    return r;
}

namespace detail {

spice::SimOptions DcPolicy::nominal(DcScreenResult& res, obs::Span&) {
    spice::SimOptions fault_sim = opt.sim;
    spice::Simulator nominal(ckt, opt.sim);
    const spice::DcResult nom_op = nominal.dc_op();
    require(nom_op.converged, "dc screen: nominal operating point failed");
    res.nominal_op = nom_op.voltages;
    res.nominal_iterations = nom_op.iterations;
    res.batch.ordering_seconds = nominal.stats().ordering_seconds;
    res.batch.numeric_seconds = nominal.stats().numeric_seconds;
    if (opt.share_symbolic)
        fault_sim.symbolic_cache = nominal.symbolic_cache();
    observe(res);
    return fault_sim;
}

void DcPolicy::observe(DcScreenResult& res) {
    for (const std::string& n : opt.observed)
        require(res.nominal_op.count(n) > 0,
                "dc screen: observed node missing: " + n);
    nominal_res = &res;
}

/// One single-value vector per node plus the cold solve's NR count.
batch::NominalRecord DcPolicy::to_nominal(const DcScreenResult& res) {
    batch::NominalRecord rec;
    for (const auto& [node, v] : res.nominal_op)
        rec.vectors.emplace_back(node, std::vector<double>{v});
    rec.scalars.emplace_back("nominal_iterations", res.nominal_iterations);
    return rec;
}

void DcPolicy::from_nominal(const batch::NominalRecord& rec,
                            DcScreenResult& res) {
    std::map<std::string, double> op;
    for (const auto& [node, v] : rec.vectors) {
        require(v.size() == 1, "nominal record: malformed operating point");
        op[node] = v[0];
    }
    require(!rec.scalars.empty() &&
                rec.scalars[0].first == "nominal_iterations",
            "nominal record: no nominal iteration count");
    res.nominal_op = std::move(op);
    res.nominal_iterations = static_cast<int>(rec.scalars[0].second);
    observe(res);
}

/// One faulty operating point.  The deviation measurement validates the
/// faulty operating point's node set up front instead of indexing it
/// blind: injection can legitimately leave an observed node out of the
/// faulty circuit (an open that isolates it, a short that merges it
/// away), and the historical `op.voltages.at(n)` threw std::out_of_range
/// -- which the old `catch (const Error&)` did not catch, so one such
/// fault killed the whole campaign.  A missing node is a deterministic
/// measurement gap, not a solver failure: the fault retires `failed`
/// without burning ladder attempts.
Attempt DcPolicy::attempt(const Circuit& faulty,
                          const spice::SimOptions& sim_opt,
                          DcFaultResult& r) {
    spice::Simulator sim(faulty, sim_opt);
    // Warm-started from the nominal operating point: most faults perturb
    // the circuit locally, so plain NR from there converges in a few
    // iterations, and dc_op falls back to the cold ladder when it does
    // not.  On a faulty circuit that stays multistable the warm solve
    // settles in the nominal basin where a cold one may pick another
    // operating point; for a screen that measures deviation *from
    // nominal* that is the conservative answer.
    const spice::DcResult op = sim.dc_op(nominal_res->nominal_op);
    r.converged = op.converged;
    r.nr_iterations = static_cast<std::size_t>(op.iterations);
    r.strategy = op.strategy;
    r.symbolic_cache_hits = sim.stats().symbolic_cache_hits;
    r.ordering_seconds = sim.stats().ordering_seconds;
    r.numeric_seconds = sim.stats().numeric_seconds;
    if (!op.converged) {
        r.error = "operating point did not converge";
        return {false, true};
    }
    if (op.strategy == "warm") {
        warm_hits.fetch_add(1, std::memory_order_relaxed);
        // Saved vs the nominal circuit's own cold cost -- the best
        // available baseline for a one-shot faulty solve.
        if (nominal_res->nominal_iterations > op.iterations)
            nr_saved.fetch_add(static_cast<std::size_t>(
                                   nominal_res->nominal_iterations -
                                   op.iterations),
                               std::memory_order_relaxed);
    }
    for (const std::string& n : opt.observed)
        if (op.voltages.find(n) == op.voltages.end())
            r.error =
                "observed node missing from faulty operating point: " + n;
    if (!r.error.empty()) {
        r.converged = false;
        return {false, false};
    }
    for (const std::string& n : opt.observed)
        r.max_deviation = std::max(
            r.max_deviation,
            std::fabs(op.voltages.at(n) - nominal_res->nominal_op.at(n)));
    r.detected = r.max_deviation > opt.v_tol;
    return {true, true};
}

void DcPolicy::publish(const DcFaultResult& r, const FaultObs& o) {
    o.arg("max_deviation_v", r.max_deviation);
    o.arg("strategy", r.strategy);
}

} // namespace detail

DcScreenResult run_dc_screen(const Circuit& ckt,
                             const lift::FaultList& faults,
                             const DcScreenOptions& opt) {
    return detail::run<detail::DcPolicy>(ckt, faults, opt);
}

} // namespace catlift::anafault
