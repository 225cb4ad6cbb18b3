// paper_repro -- every comparison of this repository with the paper, as
// plain text: Tab. 1, the Fig. 1 funnel and the section VI breakdown, the
// Fig. 2 fault types, the Fig. 4/5/6 waveforms and landmarks, three
// ablations, the Monte-Carlo validation of LIFT's probabilities and the
// resistor-vs-source model comparison.
//
// No flags, no wall-clock values: the output is a pure function of the
// code, so tests/paper.ans holds it and the `paper_repro` ctest diffs a
// fresh run against that file.  After a deliberate change, regenerate it:
//
//   build/paper_repro > tests/paper.ans

#include "anafault/comparator.h"
#include "anafault/dc_campaign.h"
#include "circuits/vco.h"
#include "core/cat.h"
#include "defects/defects.h"
#include "defects/montecarlo.h"
#include "spice/engine.h"
#include "spice/measure.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>

using namespace catlift;

namespace {

// Campaign parallelism.  Verdicts and per-fault kernel counters do not
// depend on it; the ctest would show it if they did.
constexpr unsigned kThreads = 4;

/// The VCO's transient from supply activation on the deck's .tran grid
/// (the paper's 400 steps over 4 us) or on `grid`.
spice::Waveforms simulate(netlist::Circuit ckt,
                          spice::Method method = spice::Method::Trapezoidal,
                          std::optional<netlist::TranSpec> grid = {}) {
    spice::SimOptions opt;
    opt.uic = true;
    opt.method = method;
    spice::Simulator sim(std::move(ckt), opt);
    return grid ? sim.tran(*grid) : sim.tran();
}

/// V(11) oscillation period measured from t0 to the end of the run.
std::optional<double> period(const spice::Waveforms& wf, double t0) {
    return spice::estimate_period(wf, circuits::kVcoOutput, 2.5, t0, 4e-6);
}

/// One number printed with `format`, for a column of fixed width.
std::string fmt(const char* format, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

/// Percent of the test time at which the last detection happened, or
/// "n/a" when nothing was detected.
std::string last_detection(const anafault::CampaignResult& c) {
    const auto last = c.time_of_last_detection();
    if (!last) return "n/a";
    return fmt("%.0f%%", 100.0 * *last / c.tstop);
}

void print_tab1() {
    using defects::FailureMode;
    const auto s = defects::DefectStatistics::date95_table1();
    std::printf("== Tab. 1: likely physical failure modes and relative "
                "densities ==\n");
    std::printf("   (normalised to the metal1 short density; absolute "
                "anchor %.1f defect/cm^2)\n\n", s.metal1_short_per_cm2);
    std::printf("  %-16s %-8s %-18s %s\n", "layer(s)", "failure", "symbol",
                "relative density");
    struct Row {
        const char* layer;
        const char* failure;
        const char* symbol;
        layout::Layer l;
        FailureMode m;
        std::optional<layout::Layer> lower;
    };
    using layout::Layer;
    const Row rows[] = {
        {"Diffusion", "open", "ad", Layer::NDiff, FailureMode::Open, {}},
        {"Diffusion", "short", "bd", Layer::NDiff, FailureMode::Short, {}},
        {"Polysilicon", "open", "ap", Layer::Poly, FailureMode::Open, {}},
        {"Polysilicon", "short", "bp", Layer::Poly, FailureMode::Short, {}},
        {"Metal_1", "open", "am1", Layer::Metal1, FailureMode::Open, {}},
        {"Metal_1", "short", "bm1", Layer::Metal1, FailureMode::Short, {}},
        {"Metal_2", "open", "am2", Layer::Metal2, FailureMode::Open, {}},
        {"Metal_2", "short", "bm2", Layer::Metal2, FailureMode::Short, {}},
        {"Al/diff.contacts", "open", "acd", Layer::Contact,
         FailureMode::Open, Layer::NDiff},
        {"m1/poly contacts", "open", "acp", Layer::Contact,
         FailureMode::Open, Layer::Poly},
        {"vias", "open", "acv", Layer::Via, FailureMode::Open, {}},
    };
    for (const Row& r : rows) {
        const defects::Mechanism* m = s.find(r.l, r.m, r.lower);
        std::printf("  %-16s %-8s %-18s %.2f\n", r.layer, r.failure,
                    r.symbol, m ? m->rel_density : -1.0);
    }
    const double beta = s.find(Layer::Metal1, FailureMode::Short)->rel_density;
    const double alpha = s.find(Layer::Metal1, FailureMode::Open)->rel_density;
    std::printf("\n  beta/alpha (metal1) = %.0f  (paper: \"around 100\", "
                "justifying the importance of bridging faults)\n\n",
                beta / alpha);
}

void print_fig1(const core::CatReport& rep) {
    const core::FaultFunnel& fn = rep.funnel;
    const lift::FaultList& fl = rep.lift.faults;
    const lift::LiftStats& st = rep.lift.stats;
    auto bar = [](std::size_t n) { return std::string(n / 2, '#'); };

    std::printf("== Fig. 1: fault-list funnel (arrow widths) ==\n\n");
    std::printf("  all faults (schematic) : %3zu  %s\n", fn.all_faults,
                bar(fn.all_faults).c_str());
    std::printf("    opens %zu + shorts %zu  (paper: 79 + 73 = 152)\n",
                rep.schematic_faults.opens(), rep.schematic_faults.shorts());
    std::printf("  L2RFM (pre-layout)     : %3zu  %s\n", fn.l2rfm,
                bar(fn.l2rfm).c_str());
    std::printf("  GLRFM / LIFT (layout)  : %3zu  %s\n", fn.glrfm,
                bar(fn.glrfm).c_str());

    std::printf("\n== section VI breakdown ==\n");
    std::printf("  %-34s %-12s %s\n", " ", "this repo", "paper");
    std::printf("  %-34s %-12zu %s\n", "extracted failures", fl.size(), "70");
    std::printf("  %-34s %-12zu %s\n", "bridging faults", fl.shorts(), "55");
    std::printf("  %-34s %-12zu %s\n", "line opens / split nodes",
                fl.count(lift::FaultKind::LineOpen) +
                    fl.count(lift::FaultKind::SplitNode),
                "8");
    std::printf("  %-34s %-12zu %s\n", "transistor stuck open",
                fl.count(lift::FaultKind::StuckOpen), "7");
    std::printf("  %-34s %-12s %s\n", "reduction vs schematic list",
                fmt("%.0f%%", fn.reduction_vs_all()).c_str(), "53%");
    std::printf("\n  raw sites: %zu bridge, %zu line-span, %zu cut cluster\n",
                st.bridge_sites, st.open_sites, st.cut_sites);
    std::printf("  open sites (line-span + cut) yielding no fault:\n");
    std::printf("    bypassed by another path (redundant) : %zu\n",
                st.redundant_opens);
    std::printf("    no device on one side (dangling)     : %zu\n",
                st.dangling_opens);
    std::printf("  below keep-threshold: %zu faults (%.3g total "
                "probability)\n\n",
                st.dropped, st.dropped_probability);
}

void print_fig2(const netlist::Circuit& vco,
                const spice::Waveforms& nominal) {
    std::printf("== Fig. 2: fault types supported ==\n\n");
    const auto pn = period(nominal, 1.5e-6);
    auto demo = [&](const char* type, const char* what,
                    const lift::Fault& f) {
        const auto wf = simulate(anafault::inject(vco, f));
        const double sw = spice::swing(wf, circuits::kVcoOutput, 2e-6, 4e-6);
        const auto p = period(wf, 1.5e-6);
        const char* effect =
            sw < 0.5 ? "output constant"
            : (p && pn && std::abs(*p - *pn) / *pn > 0.05)
                ? "oscillation frequency changed"
                : "oscillation nominal-like";
        std::printf("  %-12s %-34s -> %s\n", type, what, effect);
    };
    auto bridge = [](lift::FaultKind kind, const char* a, const char* b) {
        lift::Fault f;
        f.kind = kind;
        f.net_a = a;
        f.net_b = b;
        return f;
    };
    auto split = [](const char* net, std::vector<lift::TerminalRef> group) {
        lift::Fault f;
        f.kind = lift::FaultKind::SplitNode;
        f.net = net;
        f.group_b = std::move(group);
        return f;
    };
    lift::Fault stuck;
    stuck.kind = lift::FaultKind::StuckOpen;
    stuck.victim = {"M7", 0};

    // The paper's example #6 (BRI n_ds_short 5->6) and its #339-class
    // metal bridge, one terminal open, and two splits: node 8 (order 3)
    // loses the mirror output gate, node 6 the capacitor side.
    demo("local short", "BRI 5->6 (M8 drain-source)",
         bridge(lift::FaultKind::LocalShort, circuits::kVcoChargeRail,
                circuits::kVcoCapNode));
    demo("global short", "BRI 1->3 (VDD to mirror gate)",
         bridge(lift::FaultKind::GlobalShort, "1", "3"));
    demo("local open", "OPEN M7 drain (discharge sink)", stuck);
    demo("split node", "SPLIT 8: {M7.gate} | {M5,M6,M25}",
         split("8", {{"M7", 1}}));
    demo("split node", "SPLIT 6: {C1,M11.g,M12.g} | rest",
         split("6", {{"C1", 0}, {"M11", 1}, {"M12", 1}}));
    std::printf("\n  both hard-fault simulation models carry every type:\n");
    std::printf("  resistor model: short=0.01 Ohm, open=100 MOhm | "
                "source model: ideal 0V / 0A branches\n\n");
}

void print_fig4(const netlist::Circuit& vco,
                const spice::Waveforms& nominal) {
    std::printf("== Fig. 4: V(11) waveforms, 400-step transient over 4us "
                "==\n\n");
    auto show = [](const char* title, const spice::Waveforms& wf) {
        const auto p = period(wf, 1e-6);
        std::printf("-- %s --\n", title);
        if (p)
            std::printf("   oscillating, period %.0f ns\n", *p * 1e9);
        else
            std::printf("   not oscillating (constant output)\n");
        std::printf("%s\n",
                    spice::ascii_plot(wf, circuits::kVcoOutput, 76, 12)
                        .c_str());
    };
    auto bridged = [&](const std::string& a, const std::string& b) {
        netlist::Circuit c = vco;
        anafault::inject_short(c, a, b);
        return simulate(std::move(c));
    };
    show("fault-free", nominal);
    show("#6-class BRI 5->6 (changes the oscillation frequency)",
         bridged(circuits::kVcoChargeRail, circuits::kVcoCapNode));
    show("#339-class BRI 1->3 (constant high output)", bridged("1", "3"));
    show("BRI 9->0 (constant low output)",
         bridged(circuits::kVcoSchmittDrain, "0"));
    std::printf("note: at first glance the frequency-shifted oscillation "
                "would be attributed to a soft\nrather than a hard fault "
                "(paper, section VI)\n\n");
}

void print_fig5(const anafault::CampaignResult& c,
                const anafault::DetectionSpec& spec) {
    std::printf("== Fig. 5: fault coverage vs time "
                "(tolerance 2V / 0.2us, source: LIFT fault list) ==\n\n");
    std::printf("%s\n", anafault::coverage_plot_ascii(c).c_str());
    std::printf("  time%%   coverage%%\n");
    for (int pct = 0; pct <= 100; pct += 5)
        std::printf("  %3d     %6.1f\n", pct,
                    c.coverage_at(pct / 100.0 * c.tstop));
    std::printf("\n  landmarks:                      this repo   paper\n");
    std::printf("  coverage at 25%% of test time :  %5.1f%%      ~100%%\n",
                c.coverage_at(0.25 * c.tstop));
    std::printf("  coverage at 30%% of test time :  %5.1f%%\n",
                c.coverage_at(0.30 * c.tstop));
    // The earliest instant an output stuck at the fault-free maximum can
    // be detected: the fault-free V(11) must first spend t_tol (0.2 us)
    // more than v_tol below it.
    spice::Waveforms stuck;
    stuck.add_trace(circuits::kVcoOutput);
    const double high = c.nominal.max_of(circuits::kVcoOutput);
    for (double t : c.nominal.time()) stuck.append(t, {high});
    const auto t_stuck = anafault::detect_time_on(
        c.nominal, stuck, circuits::kVcoOutput, spec);
    std::printf("  stuck-high output detectable :  %5s\n",
                t_stuck ? fmt("%.1f%%", 100.0 * *t_stuck / c.tstop).c_str()
                        : "n/a");
    std::printf("  all faults detected by       :  %6s       ~55%%\n",
                last_detection(c).c_str());
    std::printf("  final fault coverage         :  %5.1f%%       100%%\n",
                c.final_coverage());
    std::printf("  weighted (probability) cov.  :  %5.1f%%\n\n",
                c.weighted_coverage());
}

void print_fig6(const netlist::Circuit& vco,
                const spice::Waveforms& nominal) {
    std::printf("== Fig. 6: shorting-resistor value sweep at the drain of "
                "M11 ==\n\n");
    auto shorted = [&](double r_ohm) {
        netlist::Circuit c = vco;
        c.add_resistor("RSHORT", circuits::kVcoSchmittDrain, "0", r_ohm);
        return simulate(std::move(c));
    };
    const double pn = period(nominal, 1.5e-6).value();
    std::printf("  fault-free period: %.0f ns\n\n", pn * 1e9);
    std::printf("  %-10s %-12s %-10s %s\n", "R [Ohm]", "period [ns]",
                "swing [V]", "verdict");
    for (double r : {1e6, 3e5, 1e5, 3e4, 1e4, 3e3, 1e3, 41.0, 21.0, 1.0}) {
        const auto wf = shorted(r);
        const auto p = period(wf, 1.5e-6);
        const double sw = spice::swing(wf, circuits::kVcoOutput, 2e-6, 4e-6);
        const char* verdict = sw < 0.5 ? "oscillation stops"
                              : (p && std::fabs(*p - pn) / pn < 0.05)
                                  ? "only slightly affected"
                                  : "visibly changed";
        const std::string ns = p ? fmt("%.0f", *p * 1e9) : "-";
        std::printf("  %-10g %-12s %-10.2f %s\n", r, ns.c_str(), sw, verdict);
    }
    // The paper's devices drive mA; this VCO's drive uA, so each severity
    // class sits at a proportionally larger resistance.
    std::printf("\n  severity classes (paper -> this repo):\n");
    std::printf("    slightly affected : 1 kOhm   -> ~1 MOhm\n");
    std::printf("    visibly changed   : 41/21 Ohm -> ~300k..10 kOhm\n");
    std::printf("    oscillation stops : 1 Ohm    -> <= ~3 kOhm\n\n");
    std::printf("  R = 1 Ohm waveform (oscillation stops after the first "
                "cycle):\n%s\n",
                spice::ascii_plot(shorted(1.0), circuits::kVcoOutput, 76, 10)
                    .c_str());
}

void print_ablation_observation(const core::VcoExperiment& e,
                                const core::CatReport& rep) {
    const lift::FaultList& faults = rep.lift.faults;
    std::printf("== ablation: observation strategy (LIFT list, %zu faults) "
                "==\n\n", faults.size());
    std::printf("  %-32s %-10s %s\n", "strategy", "coverage",
                "all detected by");
    auto row = [](const char* tag, const anafault::CampaignResult& c) {
        std::printf("  %-32s %-10s %6s\n", tag,
                    fmt("%.1f%%", c.final_coverage()).c_str(),
                    last_detection(c).c_str());
    };
    auto observe = [&](std::vector<std::string> nodes,
                       std::vector<std::string> supplies) {
        anafault::CampaignOptions opt = e.config.campaign;
        opt.detection.observed = std::move(nodes);
        opt.detection.observed_supplies = std::move(supplies);
        return anafault::run_campaign(e.sim_circuit, faults, opt);
    };
    row("V(11) only (paper)", rep.campaign);
    row("V(11) + V(6) cap node",
        observe({circuits::kVcoOutput, circuits::kVcoCapNode}, {}));
    row("V(11) + IDDQ(VDD)", observe({circuits::kVcoOutput}, {"VDD"}));

    // DC screen for comparison (static supply).
    netlist::Circuit dc_ckt = e.sim_circuit;
    dc_ckt.device("VDD").source = netlist::SourceSpec::make_dc(5.0);
    anafault::DcScreenOptions dopt;
    dopt.observed = {circuits::kVcoOutput, "3", "8"};
    dopt.v_tol = 0.5;
    const auto dc = anafault::run_dc_screen(dc_ckt, faults, dopt);
    std::printf("  %-32s %-10s %6s\n", "DC operating-point screen",
                fmt("%.1f%%", dc.coverage()).c_str(), "n/a");
    std::printf("\n  the oscillator needs the transient test: static "
                "screens miss every\n  frequency-shift fault, while IDDQ "
                "closes the ideal-supply blind spot.\n\n");
}

void print_ablation_integration(const netlist::Circuit& vco) {
    std::printf("== ablation: integration method and step size ==\n\n");
    auto period_with = [&](spice::Method m, double tstep) {
        return period(simulate(vco, m, netlist::TranSpec{tstep, 4e-6, 0.0}),
                      1e-6);
    };
    const double ref = period_with(spice::Method::Trapezoidal, 1e-9).value();
    std::printf("  reference period (TRAP, 1 ns steps): %.1f ns\n\n",
                ref * 1e9);
    std::printf("  %-8s %-10s %-12s %s\n", "method", "steps", "period[ns]",
                "error vs ref");
    struct Cfg {
        const char* name;
        spice::Method m;
        double tstep;
    };
    const Cfg cfgs[] = {
        {"TRAP", spice::Method::Trapezoidal, 1e-8},
        {"TRAP", spice::Method::Trapezoidal, 4e-8},
        {"BE", spice::Method::BackwardEuler, 1e-8},
        {"BE", spice::Method::BackwardEuler, 4e-8},
    };
    for (const Cfg& c : cfgs) {
        const auto p = period_with(c.m, c.tstep);
        if (p)
            std::printf("  %-8s %-10.0f %-12.1f %+.1f%%\n", c.name,
                        4e-6 / c.tstep, *p * 1e9, 100.0 * (*p - ref) / ref);
        else
            std::printf("  %-8s %-10.0f %s\n", c.name, 4e-6 / c.tstep,
                        "no oscillation");
    }
    std::printf("\n  the paper's 400-step grid (10 ns) reproduces the "
                "oscillation within a few percent;\n  gate capacitances "
                "keep the regenerative Schmitt transitions well-posed.\n\n");
}

void print_ablation_threshold(const core::VcoExperiment& e,
                              const core::CatReport& rep) {
    std::printf("== ablation: LIFT keep-threshold p_min ==\n\n");
    std::printf("  %-10s %-7s %-8s %-7s %-7s %-10s %-12s %s\n", "p_min",
                "faults", "bridges", "opens", "stuck", "reduction",
                "kept p-mass", "dropped p-mass");
    const double all = static_cast<double>(rep.funnel.all_faults);
    for (double p_min : {0.0, 1e-9, 5e-9, 8e-9, 1.2e-8, 2e-8, 5e-8, 1e-7}) {
        lift::LiftOptions opt = e.config.lift;
        opt.p_min = p_min;
        const auto res = lift::extract_faults(e.layout, e.config.tech, opt);
        const auto& fl = res.faults;
        std::printf("  %-10.2g %-7zu %-8zu %-7zu %-7zu %-10s %-12.3g "
                    "%.3g\n",
                    p_min, fl.size(), fl.shorts(),
                    fl.count(lift::FaultKind::LineOpen) +
                        fl.count(lift::FaultKind::SplitNode),
                    fl.count(lift::FaultKind::StuckOpen),
                    fmt("%.0f%%", 100.0 * (1.0 - double(fl.size()) / all))
                        .c_str(),
                    fl.total_probability(), res.stats.dropped_probability);
    }
    std::printf("\n  default p_min = 1.2e-8: the knee separating "
                "single-contact terminal kills\n  from redundant-junction "
                "kills; the bridge population is stable across the "
                "sweep.\n\n");
}

/// LIFT's analytic critical-area probabilities against the original IFA
/// Monte-Carlo methodology ([25], ch. II): both estimate the chance that
/// a random spot defect bridges a net pair, so hits/p should be constant.
void print_mc_validation(const core::CatReport& rep) {
    const long n = 20000000;
    long shorts = 0;
    const defects::BridgeCensus census = defects::monte_carlo_bridges(
        rep.lift.extraction, defects::DefectStatistics::date95_table1(),
        defects::SizeDistribution(1000.0), 25000.0, n, 4242, &shorts);

    std::printf("== Monte-Carlo validation of the analytic fault "
                "probabilities ==\n");
    std::printf("   (%ld spot defects sampled, %ld shorts; census vs "
                "LIFT's critical-area integrals)\n\n", n, shorts);
    std::printf("  %-32s %-12s %-8s %s\n", "bridge", "analytic p",
                "MC hits", "hits/p (should be ~constant)");
    int shown = 0;
    double ratio_min = 1e300, ratio_max = 0;
    for (const auto& f : rep.lift.faults.faults) {
        if (f.kind != lift::FaultKind::LocalShort &&
            f.kind != lift::FaultKind::GlobalShort)
            continue;
        auto it = census.find({std::min(f.net_a, f.net_b),
                               std::max(f.net_a, f.net_b)});
        const long hits = it == census.end() ? 0 : it->second;
        if (++shown <= 12)
            std::printf("  %-32s %-12.3g %-8ld %.3g\n", f.describe().c_str(),
                        f.probability, hits, hits / f.probability / 1e6);
        if (hits > 100) {
            const double r = hits / f.probability;
            ratio_min = std::min(ratio_min, r);
            ratio_max = std::max(ratio_max, r);
        }
    }
    std::printf("\n  hits/p spread over all pairs with >100 hits: x%.2f\n",
                ratio_max / ratio_min);
    std::printf("  (a small spread confirms the analytic integrals track "
                "the sampled defect physics)\n\n");
}

/// Section VI: "the source model simulations required a simulation time
/// 43% longer than the simulation time for the resistor model".  The
/// deterministic cost measure here is the kernel's Newton iterations.
void print_model_comparison(const core::VcoExperiment& e,
                            const core::CatReport& rep) {
    std::printf("== section VI: resistor model vs source model ==\n\n");
    const anafault::CampaignResult& res_r = rep.campaign;
    anafault::CampaignOptions opt = e.config.campaign;
    opt.injection.model = anafault::HardFaultModel::Source;
    const auto res_s = anafault::run_campaign(e.sim_circuit,
                                              rep.lift.faults, opt);

    std::printf("  coverage plots (paper: \"nearly identical\"):\n");
    std::printf("    time%%      resistor   source\n");
    double max_dev = 0.0;
    for (int pct = 10; pct <= 100; pct += 10) {
        const double cr = res_r.coverage_at(pct / 100.0 * res_r.tstop);
        const double cs = res_s.coverage_at(pct / 100.0 * res_s.tstop);
        max_dev = std::max(max_dev, std::fabs(cr - cs));
        std::printf("    %3d        %5.1f%%     %5.1f%%\n", pct, cr, cs);
    }
    std::printf("    max coverage deviation: %.1f%% points\n\n", max_dev);

    // Collapsed class members carry 0 iterations, so the sums count the
    // kernel work each campaign actually did.  A fault the source model
    // cannot simulate costs it nothing, so the sums are also taken over
    // the faults both models simulated.
    std::size_t nr_r = 0, nr_s = 0, both_r = 0, both_s = 0, lost = 0;
    for (std::size_t i = 0; i < res_r.results.size(); ++i) {
        const auto& r = res_r.results[i];
        const auto& s = res_s.results[i];
        nr_r += r.nr_iterations;
        nr_s += s.nr_iterations;
        if (r.simulated && s.simulated) {
            both_r += r.nr_iterations;
            both_s += s.nr_iterations;
        }
        if (r.simulated && !s.simulated) ++lost;
    }
    const double ratio_all = double(nr_s) / double(nr_r);
    const double ratio = double(both_s) / double(both_r);
    std::printf("  Newton iterations summed over the faults:\n");
    std::printf("  %-24s  %10s  %17s\n", "", "all faults",
                "simulated by both");
    std::printf("  %-24s: %10zu  %17zu\n", "resistor model campaign", nr_r,
                both_r);
    std::printf("  %-24s: %10zu  %17zu\n", "source model campaign", nr_s,
                both_s);
    std::printf("  %-24s: %10.2f  %17.2f   (paper, simulation time: "
                "4383s/3068s = 1.43)\n\n", "source/resistor ratio",
                ratio_all, ratio);

    const std::size_t base = spice::Simulator(e.sim_circuit).unknowns();
    auto added = [&](const anafault::CampaignResult& c) {
        std::map<std::size_t, int> hist;
        for (const auto& r : c.results)
            if (r.matrix_size > 0) ++hist[r.matrix_size - base];
        std::string s;
        for (const auto& [k, n] : hist)
            s += " +" + std::to_string(k) + " x" + std::to_string(n);
        return s;
    };
    std::printf("  MNA unknowns: %zu fault-free; added per fault "
                "(+unknowns x faults):\n", base);
    std::printf("    resistor model :%s\n", added(res_r).c_str());
    std::printf("    source model   :%s\n\n", added(res_s).c_str());

    std::printf("  mechanism: per short the resistor model adds one "
                "two-terminal element, the\n  source model one extra MNA "
                "branch equation.  That row makes every Newton\n  "
                "iteration dearer but does not decide how many are "
                "needed.  The source model\n  fails %zu fault%s the "
                "resistor model simulates (a 0 V branch closing a loop of\n"
                "  ideal sources) and so needs %s iterations in all "
                "(%+.0f%%); over the faults both\n  simulate it needs "
                "%s (%+.0f%%).  The paper paid 43%% more time.\n\n",
                lost, lost == 1 ? "" : "s",
                ratio_all > 1.0 ? "more" : "fewer", 100.0 * (ratio_all - 1.0),
                ratio > 1.0 ? "more" : "fewer", 100.0 * (ratio - 1.0));
}

} // namespace

int main() {
    const core::VcoExperiment e = core::make_vco_experiment(kThreads);
    // One CAT run feeds the funnel, Fig. 5, the "V(11) only" observation
    // row, the Monte-Carlo census (LIFT's extraction) and the
    // resistor-model column.
    const core::CatReport rep =
        core::run_cat(e.sim_circuit, e.device_netlist, e.layout, e.config);
    // Figs. 2, 4 and 6 compare against the fixed-grid fault-free run.
    const spice::Waveforms nominal = simulate(e.sim_circuit);

    print_tab1();
    print_fig1(rep);
    print_fig2(e.sim_circuit, nominal);
    print_fig4(e.sim_circuit, nominal);
    print_fig5(rep.campaign, e.config.campaign.detection);
    print_fig6(e.sim_circuit, nominal);
    print_ablation_observation(e, rep);
    print_ablation_integration(e.sim_circuit);
    print_ablation_threshold(e, rep);
    print_mc_validation(rep);
    print_model_comparison(e, rep);
    return 0;
}
