// bench_flow -- seeded layout-to-coverage benchmark of the CAT flow.
//
// One *flow* is the paper's pipeline on one generated input, every layer
// reached through its public function and timed from outside:
//
//   layout::generate_cell_layout (or layout::revise_layout)
//     -> lift::extract_faults -> netlist::compare_netlists (LVS)
//     -> anafault runner(s) -> anafault::campaign_summary + coverage_curve
//
// Flows run as a closed loop with one client.  The seed generates the
// inputs -- a cycle of K layout variants -- in set-up; the library only ever
// sees those generated inputs.  Workloads (README.md says why each exists):
//
//   vco_paper     26-T VCO, seeded track order + 7 single-contact terminals;
//                 LIFT -> LVS -> transient campaign (store on) -> report
//   chain_screen  64-stage inverter chain (sparse kernel); LIFT -> LVS ->
//                 DC screen -> transient campaign on the DC misses -> report
//   chain_lift    128-stage inverter chain; LIFT -> LVS -> write_faultlist
//   vco_revision  seeded RevisionSpecs of the canonical VCO; revise ->
//                 LIFT -> incremental campaign against a baseline store
//
// usage: bench_flow --workload W --seed N --seconds S [--trace 0|1]
//                   [--setup-only 1] [--out DIR] [--scratch DIR]
//
// Every process first sets up once: it generates the inputs and runs one
// warm-up flow.  --trace 0 then measures the end-to-end metrics,
// host-normalised (HostRef below); --trace 1 runs every variant twice,
// untraced and then with obs metrics on, and reports the per-layer ledger
// plus a Chrome trace of the bench's own spans; --setup-only 1 stops after
// the set-up and reports its time.  The last line of stdout is one JSON
// object; the exit code is 0 whenever it was printed.

#include "anafault/campaign.h"
#include "anafault/dc_campaign.h"
#include "anafault/incremental.h"
#include "anafault/report.h"
#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "layout/revise.h"
#include "lift/extract_faults.h"
#include "netlist/compare.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace catlift;

namespace {

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
    const char* name;
    std::size_t cycle;  ///< variants generated from the seed (K)
    unsigned threads;   ///< campaign worker threads
};

// vco_revision's cycle is long because its flow time nearly doubles with
// the revision drawn: with 50 variants the median moved 7-8% from seed to
// seed.
constexpr WorkloadSpec kWorkloads[] = {
    {"vco_paper", 10, 4},
    {"chain_screen", 10, 4},
    {"chain_lift", 10, 1},
    {"vco_revision", 200, 1},
};

/// flow_tail_s is the slowest flow with this many flows beyond it.
constexpr std::size_t kTailBeyond = 10;

// ---------------------------------------------------------------------------
// Seeded input generation.  splitmix64 plus a hand-written Fisher-Yates
// shuffle: std::shuffle and the std distributions are implementation
// defined, which would tie the golden digests to one standard library.

struct Rng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % n);
    }
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }
    template <class T>
    std::vector<T> pick(std::vector<T> v, std::size_t k) {
        shuffle(v);
        v.resize(std::min(k, v.size()));
        return v;
    }
};

std::vector<std::string> mos_terminals(const netlist::Circuit& ckt) {
    std::vector<std::string> out;
    for (const netlist::Device& d : ckt.devices)
        if (d.kind == netlist::DeviceKind::Mosfet)
            for (const char* t : {":d", ":g", ":s"}) out.push_back(d.name + t);
    return out;
}

std::vector<std::string> routed_nets(const netlist::Circuit& ckt) {
    std::set<std::string> nets;
    for (const netlist::Device& d : ckt.devices)
        nets.insert(d.nodes.begin(), d.nodes.end());
    return {nets.begin(), nets.end()};
}

/// Everything a flow consumes: circuits, options and the seeded variants.
struct Inputs {
    netlist::Circuit sim;  ///< simulatable deck (sources + .tran)
    netlist::Circuit dev;  ///< device netlist (layout source, LVS golden)
    layout::Technology tech = layout::Technology::single_poly_double_metal();
    lift::LiftOptions lift;
    anafault::CampaignOptions tran;
    anafault::DcScreenOptions dc;
    std::vector<layout::CellgenOptions> cellgen;  ///< one per variant
    // vco_revision only.
    std::vector<layout::RevisionSpec> revisions;  ///< one per variant
    layout::Layout base_layout;
    lift::FaultList base_faults;
    std::string baseline_store;
};

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed,
                   const std::string& scratch) {
    Inputs in;
    Rng rng{seed};
    const std::string name = w.name;
    in.tran.threads = w.threads;
    in.dc.threads = w.threads;

    if (name == "vco_paper" || name == "vco_revision") {
        in.sim = circuits::build_vco();
        circuits::VcoOptions dev_opt;
        dev_opt.with_sources = false;
        in.dev = circuits::build_vco(dev_opt);
        in.lift.net_blocks = circuits::vco_net_blocks();
        in.tran.detection.observed = {circuits::kVcoOutput};
    } else {
        const int stages = name == "chain_screen" ? 64 : 128;
        if (name == "chain_screen")
            in.sim = circuits::build_inverter_chain(stages, true);
        in.dev = circuits::build_inverter_chain(stages, false);
        in.tran.detection.observed = {"c64", "c32"};
        in.dc.observed = {"c64", "c32"};
        in.dc.v_tol = 1.0;
    }

    const std::vector<std::string> terms = mos_terminals(in.dev);
    if (name == "vco_paper") {
        in.tran.result_store = scratch + "/vco_paper.store";
        in.tran.store_durability = batch::Durability::Flush;
        for (std::size_t v = 0; v < w.cycle; ++v) {
            layout::CellgenOptions o = layout::vco_cellgen_options();
            rng.shuffle(o.track_order);
            o.single_contact_terminals = rng.pick(terms, 7);
            in.cellgen.push_back(std::move(o));
        }
    } else if (name == "chain_screen" || name == "chain_lift") {
        const std::vector<std::string> nets = routed_nets(in.dev);
        for (std::size_t v = 0; v < w.cycle; ++v) {
            layout::CellgenOptions o;
            o.track_order = nets;
            rng.shuffle(o.track_order);
            o.single_contact_terminals = rng.pick(terms, 16);
            in.cellgen.push_back(std::move(o));
        }
    } else {
        const layout::CellgenOptions base = layout::vco_cellgen_options();
        const std::vector<std::string>& singles =
            base.single_contact_terminals;
        std::vector<std::string> redundant;
        for (const std::string& t : terms)
            if (std::find(singles.begin(), singles.end(), t) == singles.end())
                redundant.push_back(t);
        for (std::size_t v = 0; v < w.cycle; ++v) {
            layout::RevisionSpec r;
            const std::string& net =
                base.track_order[rng.below(base.track_order.size())];
            r.widen_tracks = {
                {net, static_cast<geom::Coord>(500 + 100 * rng.below(16))}};
            const std::vector<std::string> two = rng.pick(singles, 2);
            r.shift_contacts = {{two[0], 200}};
            r.make_redundant = {two[1]};
            r.make_single = {redundant[rng.below(redundant.size())]};
            in.revisions.push_back(std::move(r));
        }
        // Baseline: the canonical layout, its fault list and the store a
        // cold campaign writes -- what every revision carries from.
        in.base_layout = layout::generate_cell_layout(in.dev, base);
        in.base_faults =
            lift::extract_faults(in.base_layout, in.tech, in.lift).faults;
        in.baseline_store = scratch + "/vco_revision_baseline.store";
        anafault::CampaignOptions bopt = in.tran;
        bopt.result_store = in.baseline_store;
        anafault::run_campaign(in.sim, in.base_faults, bopt);
        in.tran.result_store = scratch + "/vco_revision_merged.store";
    }
    return in;
}

// ---------------------------------------------------------------------------
// Flows and the bench's own spans.

double now_s() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

/// One Chrome "X" event: a flow, or one layer call inside it.
struct SpanRec {
    std::string name;
    std::size_t flow = 0;
    std::size_t id = 0;
    std::size_t parent = 0;  ///< 0: root
    bool traced = false;
    double t0 = 0.0, dur = 0.0;
};

/// What one flow measured: layer seconds and per-flow counts (keys are the
/// short names the metric table below aggregates), its verdict digest and
/// any invariant it broke.
struct FlowRecord {
    std::size_t variant = 0;
    bool traced = false;
    double wall = 0.0;
    std::map<std::string, double> s;  ///< seconds
    std::map<std::string, double> n;  ///< counts
    std::uint64_t digest = 0;
    std::size_t verdicts = 0;  ///< fault verdicts (list entries: chain_lift)
    std::size_t bad = 0;       ///< final verdicts failed/quarantined
    bool threw = false;
    std::vector<std::string> errors;
};

/// Everything a flow produced.  Kept until the flow's wall time is taken,
/// so freeing it is not part of the flow.
struct FlowOutput {
    layout::Layout layout;
    lift::LiftResult lifted;
    std::optional<netlist::CompareResult> lvs;
    std::optional<anafault::DcScreenResult> dc;
    std::optional<anafault::CampaignResult> tran;  ///< tran or merged incr.
    std::optional<anafault::IncrementalStats> inc;
    std::string report;
    std::vector<std::pair<double, double>> curve;
};

class Flow {
public:
    Flow(FlowRecord& rec, std::vector<SpanRec>* spans, std::size_t flow,
         std::size_t self, std::size_t& next_span)
        : rec_(rec), spans_(spans), flow_(flow), self_(self),
          next_span_(next_span) {}

    /// Run one layer call, charging its wall time to `key`.
    template <class F>
    auto call(const char* span, const char* key, F&& f) {
        const double t0 = now_s();
        auto r = f();
        const double dur = now_s() - t0;
        rec_.s[key] += dur;
        rec_.s["accounted"] += dur;
        if (spans_)
            spans_->push_back(
                {span, flow_, ++next_span_, self_, rec_.traced, t0, dur});
        return r;
    }

private:
    FlowRecord& rec_;
    std::vector<SpanRec>* spans_;
    std::size_t flow_;
    std::size_t self_;
    std::size_t& next_span_;
};

void report_step(Flow& f, FlowOutput& out) {
    const anafault::CampaignResult& res = *out.tran;
    std::tie(out.report, out.curve) = f.call("anafault.report", "report", [&] {
        return std::pair{anafault::campaign_summary(res),
                         res.coverage_curve()};
    });
}

void lvs_step(Flow& f, const Inputs& in, FlowOutput& out) {
    out.lvs = f.call("netlist.compare_netlists", "lvs", [&] {
        return netlist::compare_netlists(in.dev, out.lifted.extraction.circuit,
                                         1e-2);
    });
}

void run_flow(const WorkloadSpec& w, const Inputs& in, std::size_t v,
              Flow& f, FlowOutput& out) {
    const std::string name = w.name;
    if (name == "vco_revision") {
        out.layout = f.call("layout.revise_layout", "layout", [&] {
            return layout::revise_layout(in.base_layout, in.revisions[v]);
        });
    } else {
        out.layout = f.call("layout.generate_cell_layout", "layout", [&] {
            return layout::generate_cell_layout(in.dev, in.cellgen[v]);
        });
    }
    out.lifted = f.call("lift.extract_faults", "lift", [&] {
        return lift::extract_faults(out.layout, in.tech, in.lift);
    });

    if (name == "vco_paper") {
        lvs_step(f, in, out);
        out.tran = f.call("anafault.run_campaign", "tran", [&] {
            return anafault::run_campaign(in.sim, out.lifted.faults, in.tran);
        });
        report_step(f, out);
    } else if (name == "chain_screen") {
        lvs_step(f, in, out);
        out.dc = f.call("anafault.run_dc_screen", "screen", [&] {
            return anafault::run_dc_screen(in.sim, out.lifted.faults, in.dc);
        });
        // The transient campaign sees only what the static test missed.
        const std::vector<int> missed = out.dc->undetected_ids();
        const std::set<int> keep(missed.begin(), missed.end());
        lift::FaultList rest;
        rest.circuit = out.lifted.faults.circuit;
        for (const lift::Fault& flt : out.lifted.faults.faults)
            if (keep.count(flt.id)) rest.faults.push_back(flt);
        out.tran = f.call("anafault.run_campaign", "tran", [&] {
            return anafault::run_campaign(in.sim, rest, in.tran);
        });
        report_step(f, out);
    } else if (name == "chain_lift") {
        lvs_step(f, in, out);
        out.report = f.call("lift.write_faultlist", "report", [&] {
            return lift::write_faultlist(out.lifted.faults);
        });
    } else {
        anafault::IncrementalOptions iopt;
        iopt.campaign = in.tran;
        iopt.baseline_store = in.baseline_store;
        anafault::IncrementalResult ir = f.call(
            "anafault.run_incremental_campaign", "incremental", [&] {
                return anafault::run_incremental_campaign(
                    in.sim, in.base_faults, out.lifted.faults, iopt);
            });
        out.tran = std::move(ir.campaign);
        out.inc = ir.inc;
        report_step(f, out);
    }
}

// ---------------------------------------------------------------------------
// Verdict digests (FNV-1a 64 over one text line per fault) and the per-flow
// counts the ledger aggregates.

const char* tran_verdict(const anafault::FaultSimResult& r) {
    return r.detect_time   ? "detected"
           : r.simulated   ? "undetected"
           : r.quarantined ? "quarantined"
                           : "failed";
}

const char* dc_verdict(const anafault::DcFaultResult& r) {
    return r.detected      ? "detected"
           : r.converged   ? "undetected"
           : r.quarantined ? "quarantined"
                           : "failed";
}

std::string hex64(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void add_batch(FlowRecord& rec, const batch::BatchStats& b) {
    rec.n["scheduled"] += static_cast<double>(b.scheduled);
    rec.n["steals"] += static_cast<double>(b.steals);
    rec.n["retries"] += static_cast<double>(b.retries);
    rec.n["quarantined"] += static_cast<double>(b.quarantined);
    rec.n["steps_integrated"] += static_cast<double>(b.steps_integrated);
    rec.n["bypass"] += static_cast<double>(b.bypass_solves);
    rec.n["stamp_skips"] += static_cast<double>(b.device_stamp_skips);
    rec.n["refactors"] += static_cast<double>(b.sparse_refactors);
    rec.n["symbolic_hits"] += static_cast<double>(b.symbolic_cache_hits);
    rec.n["warm_starts"] += static_cast<double>(b.warm_start_solves);
    rec.s["ordering"] += b.ordering_seconds;
    rec.s["numeric"] += b.numeric_seconds;
}

/// Digest, verdict counts and invariants of a finished flow.
void account(const WorkloadSpec& w, const FlowOutput& out, FlowRecord& rec) {
    const lift::FaultList& fl = out.lifted.faults;
    const lift::LiftStats& st = out.lifted.stats;
    rec.n["shapes"] = static_cast<double>(out.layout.size());
    rec.n["sites"] = static_cast<double>(st.bridge_sites + st.open_sites +
                                         st.cut_sites);
    rec.n["faults"] = static_cast<double>(fl.size());
    if (out.lvs && !out.lvs->equivalent)
        rec.errors.push_back(
            "LVS mismatch: " +
            (out.lvs->diffs.empty() ? std::string("?") : out.lvs->diffs[0]));
    if (fl.size() == 0) rec.errors.push_back("empty fault list");

    std::string text;
    char line[128];
    std::size_t detected = 0;
    if (out.dc) {
        const anafault::DcScreenResult& dc = *out.dc;
        if (dc.results.size() != fl.size())
            rec.errors.push_back("DC screen lost faults");
        for (const anafault::DcFaultResult& r : dc.results) {
            std::snprintf(line, sizeof line, "%d %s dv=%a\n", r.fault_id,
                          dc_verdict(r), r.max_deviation);
            text += line;
            rec.n["nr"] += r.nr_iterations;
            if (r.detected) ++detected;
        }
        rec.n["submitted"] += static_cast<double>(dc.results.size());
        add_batch(rec, dc.batch);
    }
    if (out.tran) {
        const anafault::CampaignResult& res = *out.tran;
        const std::size_t expect =
            out.dc ? out.dc->undetected_ids().size() : fl.size();
        if (res.results.size() != expect)
            rec.errors.push_back("campaign returned " +
                                 std::to_string(res.results.size()) + " of " +
                                 std::to_string(expect) + " verdicts");
        for (const anafault::FaultSimResult& r : res.results) {
            std::snprintf(line, sizeof line, "%d %s t=%a\n", r.fault_id,
                          tran_verdict(r), r.detect_time.value_or(-1.0));
            text += line;
            if (r.detect_time) ++detected;
            if (!r.simulated) ++rec.bad;
            if (r.carried) continue;
            rec.n["nr"] += r.nr_iterations;
            rec.n["tran_nr"] += r.nr_iterations;
            rec.n["tran_steps"] += r.steps_integrated;
        }
        const std::size_t carried = out.inc ? out.inc->carried : 0;
        rec.n["submitted"] += static_cast<double>(res.results.size());
        rec.n["tran_scheduled"] += static_cast<double>(res.batch.scheduled);
        rec.n["early_aborts"] += static_cast<double>(res.batch.early_aborts);
        rec.n["steps_saved"] += static_cast<double>(res.batch.steps_saved);
        rec.n["carried"] += static_cast<double>(carried);
        add_batch(rec, res.batch);
        rec.s["kernel_cpu"] += res.total_seconds;
        rec.s["nominal"] += res.nominal_seconds;
        // The transient runner's wall is whichever call ran it.
        const double runner = rec.s["tran"] + rec.s["incremental"];
        rec.s["runner_net"] +=
            w.threads * std::max(0.0, runner - res.nominal_seconds);
        if (out.inc && out.inc->carried + out.inc->resimulated != fl.size())
            rec.errors.push_back("incremental carry split lost faults");
    }
    rec.verdicts = fl.size();
    if (std::string(w.name) == "chain_lift") {
        text = out.report;
        if (lift::read_faultlist_text(out.report).size() != fl.size())
            rec.errors.push_back("fault list does not round-trip");
    } else {
        if (out.report.empty() || out.curve.empty())
            rec.errors.push_back("empty coverage report");
    }
    rec.n["detected"] = static_cast<double>(detected);
    rec.digest = batch::fnv1a(text);
}

/// Copy the obs registry's kernel-phase and store totals of one flow.
void read_registry(FlowRecord& rec) {
    obs::Registry& reg = obs::Registry::global();
    const auto sum = [&](const char* h) {
        return reg.histogram(h).snapshot().sum;
    };
    rec.s["factor"] =
        sum("phase.factor.seconds") + sum("phase.refactor.seconds");
    rec.s["solve"] = sum("phase.solve.seconds");
    rec.s["newton"] = sum("phase.newton.seconds");
    rec.s["newton_other"] = rec.s["newton"] - rec.s["factor"] - rec.s["solve"];
    rec.s["store_append"] = sum("phase.store_append.seconds");
    rec.n["store_bytes"] =
        static_cast<double>(reg.counter("store.bytes").value());
}

// ---------------------------------------------------------------------------
// Host-speed reference.  On a host whose cores are shared with other
// tenants the same flow's wall time moves by up to 2x within a minute, and
// the median of a whole run by up to 30% -- far more than the inputs or a
// code change move it.  A fixed reference kernel that calls no catlift
// code, so no library change can move it, is timed before every flow and
// after the last one.  Each flow's wall time is scaled by kRefIdle over
// the mean of its two neighbouring reference times: the end-to-end times
// are seconds on a host whose reference runs in kRefIdle.  Raw wall times
// are reported beside them.
//
// The kernel is the geometric mean of two probes, because the flows mix
// both kinds of work: a floating-point dependency chain over 256 KiB
// (core speed; the kernel's LU and device evaluation) and a dependent
// pointer chase through a 4 MiB random cycle (cache latency; extraction's
// maps and geometry).  It runs on as many threads as the workload's
// campaign, so a parallel flow is scaled by what contention does to all
// of its cores, not to one.  Its buffers stay resident for the whole run,
// so peak_rss_mb subtracts them.
class HostRef {
public:
    /// About what one sample takes on the 2.1 GHz Xeon the benchmark was
    /// sized on when no other tenant is busy.
    static constexpr double kRefIdle = 1.2e-3;

    explicit HostRef(unsigned threads)
        : fp_(threads, std::vector<double>(1u << 15, 1.0)), ring_(1u << 20),
          sink_(threads, 0.0) {
        // Sattolo's shuffle: one cycle through every slot.
        for (std::uint32_t i = 0; i < ring_.size(); ++i) ring_[i] = i;
        Rng r{7};
        for (std::size_t i = ring_.size() - 1; i > 0; --i)
            std::swap(ring_[i], ring_[r.below(i)]);
    }

    /// Time both probes once on every thread; returns the mean over the
    /// threads of their geometric mean, in seconds.
    double sample() {
        std::vector<double> t(fp_.size(), 0.0);
        {
            // jthread: joined on every path, including a throwing spawn.
            std::vector<std::jthread> pool;
            for (std::size_t k = 1; k < fp_.size(); ++k)
                pool.emplace_back([this, &t, k] { t[k] = probe(k); });
            t[0] = probe(0);
        }
        double sum = 0.0;
        for (double x : t) sum += x;
        for (double x : sink_) keep_ = x;
        samples_.push_back(sum / static_cast<double>(t.size()));
        return samples_.back();
    }

    /// Scale a wall time measured between samples `i` and `i + 1`.
    double normalise(double wall, std::size_t i) const {
        return wall * kRefIdle / (0.5 * (samples_.at(i) + samples_.at(i + 1)));
    }

    std::size_t size() const { return samples_.size(); }
    const std::vector<double>& samples() const { return samples_; }

    /// Bytes of the probe buffers.
    std::size_t bytes() const {
        return fp_.size() * fp_[0].size() * sizeof(double) +
               ring_.size() * sizeof(std::uint32_t);
    }

private:
    double probe(std::size_t k) {
        std::vector<double>& fp = fp_[k];
        double s = 0.0;
        const double t0 = now_s();
        for (int pass = 0; pass < 20; ++pass)
            for (double& x : fp) {
                s += x * 1.0000001;
                x = s * 1e-9 + 1.0;
            }
        const double t1 = now_s();
        std::uint32_t q = static_cast<std::uint32_t>(k);
        for (int i = 0; i < 30000; ++i) q = ring_[q];
        const double t2 = now_s();
        sink_[k] = s + q;
        return std::sqrt((t1 - t0) * (t2 - t1));
    }

    std::vector<std::vector<double>> fp_;  ///< one buffer per thread
    std::vector<std::uint32_t> ring_;      ///< shared, read-only
    std::vector<double> samples_;
    std::vector<double> sink_;  ///< per-thread probe results ...
    volatile double keep_ = 0.0;  ///< ... kept alive past the optimiser
};

// ---------------------------------------------------------------------------
// The run.

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = -1.0;
    bool trace = false;
    bool setup_only = false;
    std::string out = ".";
    std::string scratch = ".";
};

/// Peak resident set of this process image in MiB.  VmHWM, not
/// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a
/// large parent (the Python runner) would set it.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string key;
    double kib = 0.0;
    while (status >> key)
        if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string q(1, '"');
    q += obs::json_escape(s);
    q += '"';
    return q;
}

class Bench {
public:
    Bench(const WorkloadSpec& w, const Args& a) : w_(w), a_(a) {}

    int run();

private:
    FlowRecord flow(const Inputs& in, std::size_t v, bool traced,
                    FlowOutput* keep = nullptr);
    void check_determinism(const FlowRecord& rec);
    std::string layer_metrics(const std::vector<double>& untraced_walls,
                              const std::vector<FlowRecord>& traced) const;
    void write_trace() const;

    const WorkloadSpec& w_;
    const Args& a_;
    std::size_t next_flow_ = 0;
    std::size_t next_span_ = 0;
    std::vector<SpanRec> spans_;
    std::vector<std::optional<std::uint64_t>> digests_;
    std::vector<std::string> errors_;
    bool deterministic_ = true;
    std::size_t attempted_ = 0, failed_ = 0, threw_ = 0;
};

FlowRecord Bench::flow(const Inputs& in, std::size_t v, bool traced,
                       FlowOutput* keep) {
    FlowRecord rec;
    rec.variant = v;
    rec.traced = traced;
    const std::size_t id = next_flow_++;
    const std::size_t self = ++next_span_;
    std::vector<SpanRec>* spans = a_.trace ? &spans_ : nullptr;
    if (traced) {
        obs::Registry::global().reset();
        obs::enable_metrics(true);
    }
    FlowOutput out;
    Flow f(rec, spans, id, self, next_span_);
    const double t0 = now_s();
    try {
        run_flow(w_, in, v, f, out);
    } catch (const std::exception& e) {
        rec.threw = true;
        rec.errors.push_back(std::string("flow threw: ") + e.what());
    }
    rec.wall = now_s() - t0;
    if (traced) {
        obs::enable_metrics(false);
        read_registry(rec);
    }
    if (spans)
        spans->push_back({"flow", id, self, 0, traced, t0, rec.wall});
    if (!rec.threw) account(w_, out, rec);

    attempted_ += rec.threw ? 1 : rec.verdicts;
    failed_ += rec.threw ? 1 : rec.bad;
    threw_ += rec.threw ? 1 : 0;
    for (const std::string& e : rec.errors)
        if (errors_.size() < 8)
            errors_.push_back("variant " + std::to_string(v) + ": " + e);
    if (!rec.threw) check_determinism(rec);
    if (keep) *keep = std::move(out);
    return rec;
}

void Bench::check_determinism(const FlowRecord& rec) {
    std::optional<std::uint64_t>& d = digests_[rec.variant];
    if (!d) {
        d = rec.digest;
    } else if (*d != rec.digest) {
        deterministic_ = false;
        if (errors_.size() < 8)
            errors_.push_back("variant " + std::to_string(rec.variant) +
                              ": digest " + hex64(rec.digest) + " != " +
                              hex64(*d) + " of an earlier flow");
    }
}

// One per-layer metric: how the per-flow values of a key aggregate.
//   TimeMedian  median over every traced flow of s[key]
//   CountMean   mean over the first traced cycle of n[key] (repeats exactly)
//   CountRatio  sum n[key] / sum n[den] over the first traced cycle
//   TimeRatio   sum s[key] / sum s[den] over every traced flow
//   TimePerCount  sum s[key] / sum n[den] over every traced flow, x scale
//   Share       sum s[key] / sum of flow walls over every traced flow
enum class Agg {
    TimeMedian, CountMean, CountRatio, TimeRatio, TimePerCount, Share
};

struct LayerMetric {
    const char* name;
    const char* unit;
    Agg agg;
    const char* key;
    const char* den = "";
    double scale = 1.0;
};

const LayerMetric kLayerMetrics[] = {
    {"layout.gen_s", "s", Agg::TimeMedian, "layout"},
    {"layout.shapes", "count", Agg::CountMean, "shapes"},
    {"extract.s", "s", Agg::TimeMedian, "extract"},
    {"extract.nets", "count", Agg::CountMean, "nets"},
    {"lift.s", "s", Agg::TimeMedian, "lift"},
    {"lift.share", "fraction", Agg::Share, "lift"},
    {"lift.self_s", "s", Agg::TimeMedian, "lift_self"},
    {"lift.sites", "count", Agg::CountMean, "sites"},
    {"lift.faults", "count", Agg::CountMean, "faults"},
    {"lift.fault_yield", "fraction", Agg::CountRatio, "faults", "sites"},
    {"netlist.lvs_s", "s", Agg::TimeMedian, "lvs"},
    {"netlist.lvs_share", "fraction", Agg::Share, "lvs"},
    {"anafault.tran_s", "s", Agg::TimeMedian, "tran"},
    {"anafault.tran_share", "fraction", Agg::Share, "tran"},
    {"anafault.screen_s", "s", Agg::TimeMedian, "screen"},
    {"anafault.screen_share", "fraction", Agg::Share, "screen"},
    {"anafault.incremental_s", "s", Agg::TimeMedian, "incremental"},
    {"anafault.incremental_share", "fraction", Agg::Share, "incremental"},
    {"anafault.nominal_s", "s", Agg::TimeMedian, "nominal"},
    {"anafault.nominal_share", "fraction", Agg::Share, "nominal"},
    {"anafault.report_s", "s", Agg::TimeMedian, "report"},
    {"anafault.detected_frac", "fraction", Agg::CountRatio, "detected",
     "faults"},
    {"anafault.retries", "count", Agg::CountMean, "retries"},
    {"anafault.quarantined", "count", Agg::CountMean, "quarantined"},
    {"batch.scheduled_frac", "fraction", Agg::CountRatio, "scheduled",
     "submitted"},
    {"batch.early_abort_frac", "fraction", Agg::CountRatio, "early_aborts",
     "tran_scheduled"},
    {"batch.steps_saved", "count", Agg::CountMean, "steps_saved"},
    {"batch.kernel_cpu_s", "s", Agg::TimeMedian, "kernel_cpu"},
    {"batch.parallel_eff", "fraction", Agg::TimeRatio, "kernel_cpu",
     "runner_net"},
    {"batch.steals", "count", Agg::CountMean, "steals"},
    {"batch.carried", "count", Agg::CountMean, "carried"},
    {"batch.store_append_s", "s", Agg::TimeMedian, "store_append"},
    {"batch.store_append_share", "fraction", Agg::Share, "store_append"},
    {"batch.store_bytes", "bytes", Agg::CountMean, "store_bytes"},
    {"spice.nr_iterations", "count", Agg::CountMean, "nr"},
    {"spice.steps_integrated", "count", Agg::CountMean, "steps_integrated"},
    {"spice.nr_per_step", "ratio", Agg::CountRatio, "tran_nr", "tran_steps"},
    {"spice.us_per_nr", "us", Agg::TimePerCount, "newton", "nr", 1e6},
    {"spice.bypass_solves", "count", Agg::CountMean, "bypass"},
    {"spice.device_stamp_skips", "count", Agg::CountMean, "stamp_skips"},
    {"spice.sparse_refactors", "count", Agg::CountMean, "refactors"},
    {"spice.symbolic_hit_rate", "fraction", Agg::CountRatio, "symbolic_hits",
     "scheduled"},
    {"spice.ordering_s", "s", Agg::TimeMedian, "ordering"},
    {"spice.ordering_share", "fraction", Agg::Share, "ordering"},
    {"spice.numeric_s", "s", Agg::TimeMedian, "numeric"},
    {"spice.numeric_share", "fraction", Agg::Share, "numeric"},
    {"spice.factor_s", "s", Agg::TimeMedian, "factor"},
    {"spice.factor_share", "fraction", Agg::Share, "factor"},
    {"spice.solve_s", "s", Agg::TimeMedian, "solve"},
    {"spice.solve_share", "fraction", Agg::Share, "solve"},
    {"spice.newton_s", "s", Agg::TimeMedian, "newton"},
    {"spice.newton_share", "fraction", Agg::Share, "newton"},
    {"spice.newton_other_s", "s", Agg::TimeMedian, "newton_other"},
    {"spice.newton_other_share", "fraction", Agg::Share, "newton_other"},
    {"spice.warm_start_solves", "count", Agg::CountMean, "warm_starts"},
    {"flow.accounted_frac", "fraction", Agg::Share, "accounted"},
};

double get(const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

/// `exact`: a count that repeats bit for bit for one seed and build.
std::string metric_json(const std::string& name, double v, const char* unit,
                        bool exact = false) {
    return quoted(name) + ": {\"value\": " + num(v) +
           ", \"unit\": " + quoted(unit) + (exact ? ", \"exact\": true" : "") +
           "}";
}

std::string Bench::layer_metrics(const std::vector<double>& untraced_walls,
                                 const std::vector<FlowRecord>& traced) const {
    const std::size_t k = std::min(w_.cycle, traced.size());
    std::string js;
    for (const LayerMetric& m : kLayerMetrics) {
        double v = 0.0, a = 0.0, b = 0.0;
        switch (m.agg) {
            case Agg::TimeMedian: {
                std::vector<double> xs;
                for (const FlowRecord& r : traced) xs.push_back(get(r.s, m.key));
                v = median(xs);
                break;
            }
            case Agg::CountMean:
                for (std::size_t i = 0; i < k; ++i) a += get(traced[i].n, m.key);
                v = k ? a / static_cast<double>(k) : 0.0;
                break;
            case Agg::CountRatio:
                for (std::size_t i = 0; i < k; ++i) {
                    a += get(traced[i].n, m.key);
                    b += get(traced[i].n, m.den);
                }
                v = b > 0 ? a / b : 0.0;
                break;
            case Agg::TimeRatio:
            case Agg::TimePerCount:
                for (const FlowRecord& r : traced) {
                    a += get(r.s, m.key);
                    b += get(m.agg == Agg::TimeRatio ? r.s : r.n, m.den);
                }
                v = b > 0 ? m.scale * a / b : 0.0;
                break;
            case Agg::Share:
                for (const FlowRecord& r : traced) {
                    a += get(r.s, m.key);
                    b += r.wall;
                }
                v = b > 0 ? a / b : 0.0;
                break;
        }
        // Steals depend on thread timing; every other count is a pure
        // function of the inputs.
        const bool exact =
            (m.agg == Agg::CountMean || m.agg == Agg::CountRatio) &&
            std::string(m.key) != "steals";
        js += (js.empty() ? "" : ", ") + metric_json(m.name, v, m.unit, exact);
    }
    // Tracing cost, on the same variants: traced median over untraced.
    std::vector<double> on;
    for (const FlowRecord& r : traced) on.push_back(r.wall);
    const double base = median(untraced_walls);
    js += ", " + metric_json("flow.trace_overhead",
                             base > 0 ? median(on) / base - 1.0 : 0.0,
                             "fraction");
    return js;
}

void Bench::write_trace() const {
    std::vector<SpanRec> ev = spans_;
    std::stable_sort(ev.begin(), ev.end(),
                     [](const SpanRec& x, const SpanRec& y) {
                         return x.t0 < y.t0;
                     });
    const std::string path =
        a_.out + "/TRACE_flow_" + std::string(w_.name) + ".json";
    std::ofstream os(path);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1,"
          " \"args\": {\"name\": \"client\"}}";
    char buf[160];
    for (const SpanRec& s : ev) {
        const std::string cat = s.name.substr(0, s.name.find('.'));
        std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                      s.t0 * 1e6, s.dur * 1e6);
        os << ",\n{\"name\": " << quoted(s.name) << ", \"cat\": "
           << quoted(cat) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
           << buf << ", \"args\": {\"flow\": " << s.flow << ", \"id\": "
           << s.id << ", \"parent\": " << s.parent
           << ", \"traced\": " << (s.traced ? 1 : 0) << "}}";
    }
    os << "\n]}\n";
    if (!os) throw Error("cannot write " + path);
}

int Bench::run() {
    digests_.assign(w_.cycle, std::nullopt);
    HostRef host(w_.threads);
    // Set-up, once and cold, from the first reference sample at process
    // start: generate the inputs (and the baseline store), then one warm-up
    // flow.  run.py reports the median over several such processes.
    host.sample();
    const double s0 = now_s();
    const Inputs in = make_inputs(w_, a_.seed, a_.scratch);
    flow(in, 0, false);
    const double setup_raw = now_s() - s0;
    host.sample();
    const double setup = host.normalise(setup_raw, 0);

    const auto error_list = [&] {
        std::string errs;
        for (const std::string& e : errors_)
            errs += (errs.empty() ? "" : ", ") + quoted(e);
        return errs;
    };
    if (a_.setup_only) {
        std::printf("{\"workload\": %s, \"setup_s\": %s, \"raw_setup_s\": %s, "
                    "\"errors\": [%s]}\n",
                    quoted(w_.name).c_str(), num(setup).c_str(),
                    num(setup_raw).c_str(), error_list().c_str());
        return 0;
    }

    // Untraced flows keep only their walls and verdict counts: a whole
    // FlowRecord per flow would grow peak_rss_mb with the flow count, and
    // so with the host's speed.
    std::vector<double> raw, norm;
    double verdicts = 0.0;
    std::vector<FlowRecord> traced;
    const double t_start = now_s();
    if (a_.trace) {
        // Whole cycles; each variant untraced, then traced, then its
        // extraction alone (outside the flow span) for the lift split.
        // Another cycle starts only if it should end within --seconds.
        for (double cycle_s = 0.0;
             traced.empty() ||
             (a_.seconds > 0 && now_s() - t_start + cycle_s < a_.seconds);) {
            const double c0 = now_s();
            for (std::size_t v = 0; v < w_.cycle; ++v) {
                const FlowRecord twin = flow(in, v, false);
                raw.push_back(twin.wall);
                FlowOutput out;
                FlowRecord rec = flow(in, v, true, &out);
                const double t0 = now_s();
                const extract::Extraction ex =
                    extract::extract(out.layout, in.tech, in.lift.extract_opt);
                const double dur = now_s() - t0;
                spans_.push_back({"extract.extract", next_flow_ - 1,
                                  ++next_span_, 0, true, t0, dur});
                rec.s["extract"] = dur;
                rec.s["lift_self"] = rec.s["lift"] - dur;
                rec.n["nets"] = static_cast<double>(ex.net_names.size());
                if (rec.digest != twin.digest) {
                    deterministic_ = false;
                    errors_.push_back("variant " + std::to_string(v) +
                                      ": traced digest differs");
                }
                traced.push_back(std::move(rec));
            }
            cycle_s = now_s() - c0;
        }
        write_trace();
    } else {
        // For --seconds, and never less than one whole cycle, so the cycle
        // digest is complete on a slow host too.  Each variant that comes
        // round again is checked against its first digest.
        for (std::size_t done = 0;
             done < w_.cycle || now_s() - t_start < a_.seconds; ++done) {
            const FlowRecord rec = flow(in, done % w_.cycle, false);
            host.sample();
            raw.push_back(rec.wall);
            norm.push_back(host.normalise(rec.wall, host.size() - 2));
            verdicts += static_cast<double>(rec.verdicts);
        }
    }

    std::string cycle_text, variant_list;
    bool complete = true;
    for (const auto& d : digests_) {
        complete = complete && d.has_value();
        const std::string h = d ? hex64(*d) : "";
        cycle_text += h + "\n";
        variant_list += (variant_list.empty() ? "" : ", ") + quoted(h);
    }
    if (!complete) errors_.push_back("cycle incomplete: some variant never ran");

    std::string metrics, raw_metrics;
    double tail_pct = 0.0;
    if (a_.trace) {
        metrics = layer_metrics(raw, traced);
    } else {
        // Below 21 flows no percentile above the median has ten flows
        // beyond it; the tail then stays at the median, rather than move
        // down the distribution as a slower host fits fewer flows.
        const std::size_t tail_i = std::min(kTailBeyond, norm.size() / 2);
        tail_pct = 100.0 * static_cast<double>(norm.size() - tail_i) /
                   static_cast<double>(norm.size());
        const auto timings = [&](std::vector<double> walls, double set_up) {
            double sum = 0.0;
            for (double x : walls) sum += x;
            std::sort(walls.begin(), walls.end(), std::greater<>());
            return metric_json("flow_p50_s", median(walls), "s") + ", " +
                   metric_json("flow_tail_s", walls[tail_i], "s") + ", " +
                   metric_json("faults_per_s", verdicts / sum, "1/s") + ", " +
                   metric_json("setup_s", set_up, "s");
        };
        const double rss = peak_rss_mib() -
                           static_cast<double>(host.bytes()) / (1024.0 * 1024.0);
        metrics = timings(norm, setup) + ", " +
                  metric_json("peak_rss_mb", rss, "MiB") + ", " +
                  metric_json("error_rate",
                              static_cast<double>(failed_) /
                                  static_cast<double>(attempted_),
                              "fraction");
        raw_metrics = timings(raw, setup_raw);
    }

    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"threads\": %u, "
        "\"cycle\": %zu, \"flows\": %zu, \"cycle_digest\": %s, "
        "\"variant_digests\": [%s], \"deterministic\": %s, "
        "\"errors\": [%s], \"attempted\": %zu, \"failed\": %zu, "
        "\"flows_threw\": %zu, \"tail_percentile\": %s, \"env\": "
        "{\"compiler\": %s, \"build_type\": %s, \"hw_threads\": %u}, "
        "\"host_ref_s\": %s, \"raw\": {%s}, \"metrics\": {%s}}\n",
        quoted(w_.name).c_str(), static_cast<unsigned long long>(a_.seed),
        a_.trace ? "true" : "false", w_.threads, w_.cycle,
        raw.size(),
        quoted(hex64(batch::fnv1a(cycle_text))).c_str(), variant_list.c_str(),
        deterministic_ ? "true" : "false",
        error_list().c_str(), attempted_, failed_, threw_,
        num(tail_pct).c_str(),
        quoted(BENCH_FLOW_COMPILER).c_str(),
        quoted(BENCH_FLOW_BUILD_TYPE).c_str(),
        std::thread::hardware_concurrency(), num(median(host.samples())).c_str(),
        raw_metrics.c_str(), metrics.c_str());
    return 0;
}

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "bench_flow: %s\nusage: bench_flow --workload "
                 "vco_paper|chain_screen|chain_lift|vco_revision --seed N "
                 "--seconds S [--trace 0|1] [--setup-only 1] [--out DIR] "
                 "[--scratch DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--setup-only") a.setup_only = v == "1";
        else if (k == "--out") a.out = v;
        else if (k == "--scratch") a.scratch = v;
        else usage("unknown option " + k);
    }
    if (a.seconds < 0 && !a.setup_only) usage("--seconds is required");
    return a;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parse(argc, argv);
        for (const WorkloadSpec& w : kWorkloads)
            if (a.workload == w.name) {
                std::filesystem::create_directories(a.out);
                std::filesystem::create_directories(a.scratch);
                Bench b(w, a);
                return b.run();
            }
        usage("unknown workload '" + a.workload + "'");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_flow: %s\n", e.what());
        return 1;
    }
}
