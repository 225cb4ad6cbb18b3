#include "spice/engine.h"

#include "obs/obs.h"
#include "robust/failpoint.h"
#include "spice/mos1.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace catlift::spice {

using netlist::Device;
using netlist::DeviceKind;

/// Transient-only capacitance from every node to ground [F].
constexpr double kCmin = 1e-15;

Simulator::Simulator(netlist::Circuit ckt, SimOptions opt)
    : ckt_(std::move(ckt)), opt_(opt) {
    ckt_.validate();

    // Node table (ground excluded from unknowns).
    for (const std::string& n : ckt_.node_names()) {
        if (n == netlist::kGround) continue;
        node_index_[n] = node_names_.size();
        node_names_.push_back(n);
    }
    n_nodes_ = node_names_.size();

    // Branch currents: one per voltage source.
    for (std::size_t i = 0; i < ckt_.devices.size(); ++i)
        if (ckt_.devices[i].kind == DeviceKind::VSource)
            vsource_devs_.push_back(i);
    n_branches_ = vsource_devs_.size();
    stats_.matrix_size = n_nodes_ + n_branches_;

    // Linear device instances with resolved node indices: the structural
    // pass runs exactly once, so the Newton hot path never resolves a
    // node name again.
    std::size_t branch = 0;
    for (std::size_t i = 0; i < ckt_.devices.size(); ++i) {
        const Device& d = ckt_.devices[i];
        switch (d.kind) {
            case DeviceKind::Resistor: {
                ResInstance r;
                r.n1 = node_id(d.nodes[0]);
                r.n2 = node_id(d.nodes[1]);
                r.g = 1.0 / d.value;
                res_.push_back(r);
                break;
            }
            case DeviceKind::ISource: {
                ISrcInstance s;
                s.dev = i;
                s.np = node_id(d.nodes[0]);
                s.nm = node_id(d.nodes[1]);
                isrc_.push_back(s);
                break;
            }
            case DeviceKind::VSource: {
                VSrcInstance s;
                s.dev = i;
                s.np = node_id(d.nodes[0]);
                s.nm = node_id(d.nodes[1]);
                s.row = n_nodes_ + branch;
                vsrc_.push_back(s);
                ++branch;
                break;
            }
            default:
                break;
        }
    }

    // MOS instances with resolved nodes.
    for (std::size_t i = 0; i < ckt_.devices.size(); ++i) {
        const Device& d = ckt_.devices[i];
        if (d.kind != DeviceKind::Mosfet) continue;
        MosInstance m;
        m.dev = i;
        m.d = node_id(d.nodes[Device::kDrain]);
        m.g = node_id(d.nodes[Device::kGate]);
        m.s = node_id(d.nodes[Device::kSource]);
        m.w = d.w;
        m.l = d.l;
        m.model = &ckt_.model_of(d);
        mos_.push_back(m);
    }

    // Capacitive elements: explicit capacitors, MOS gate caps, cmin.
    for (const Device& d : ckt_.devices) {
        if (d.kind != DeviceKind::Capacitor) continue;
        CapInstance c;
        c.n1 = node_id(d.nodes[0]);
        c.n2 = node_id(d.nodes[1]);
        c.c = d.value;
        c.v_prev = d.ic.value_or(0.0);
        caps_.push_back(c);
    }
    for (const MosInstance& m : mos_) {
        const MosCaps mc = mos1_caps(*m.model, m.w, m.l);
        caps_.push_back(CapInstance{m.g, m.s, mc.cgs, 0.0, 0.0});
        caps_.push_back(CapInstance{m.g, m.d, mc.cgd, 0.0, 0.0});
    }
    for (std::size_t n = 0; n < n_nodes_; ++n)
        caps_.push_back(CapInstance{static_cast<int>(n), -1, kCmin, 0.0, 0.0});

    build_kernel();
}

int Simulator::node_id(const std::string& name) const {
    if (name == netlist::kGround) return -1;
    auto it = node_index_.find(name);
    require(it != node_index_.end(), "unknown node " + name);
    return static_cast<int>(it->second);
}

void Simulator::set_source_dc(const std::string& name, double value) {
    Device& d = ckt_.device(name);
    require(d.kind == DeviceKind::VSource || d.kind == DeviceKind::ISource,
            "set_source_dc: " + name + " is not a source");
    d.source = netlist::SourceSpec::make_dc(value);
}

// ---------------------------------------------------------------------------
// Kernel: one-time structural pass

int Simulator::add_site(int r, int c) {
    if (r < 0 || c < 0) return -1;
    sites_.emplace_back(r, c);
    return static_cast<int>(sites_.size()) - 1;
}

void Simulator::build_kernel() {
    const std::size_t n = n_nodes_ + n_branches_;

    // Sites [0, n_nodes_) are the node diagonals (gmin), by construction.
    sites_.clear();
    for (std::size_t i = 0; i < n_nodes_; ++i)
        add_site(static_cast<int>(i), static_cast<int>(i));
    for (ResInstance& r : res_) {
        r.s_11 = add_site(r.n1, r.n1);
        r.s_22 = add_site(r.n2, r.n2);
        r.s_12 = add_site(r.n1, r.n2);
        r.s_21 = add_site(r.n2, r.n1);
    }
    for (VSrcInstance& s : vsrc_) {
        const int row = static_cast<int>(s.row);
        s.s_pb = add_site(s.np, row);
        s.s_bp = add_site(row, s.np);
        s.s_mb = add_site(s.nm, row);
        s.s_bm = add_site(row, s.nm);
    }
    for (CapInstance& c : caps_) {
        c.s_11 = add_site(c.n1, c.n1);
        c.s_22 = add_site(c.n2, c.n2);
        c.s_12 = add_site(c.n1, c.n2);
        c.s_21 = add_site(c.n2, c.n1);
    }
    for (MosInstance& m : mos_) {
        m.s_dd = add_site(m.d, m.d);
        m.s_dg = add_site(m.d, m.g);
        m.s_ds = add_site(m.d, m.s);
        m.s_sd = add_site(m.s, m.d);
        m.s_sg = add_site(m.s, m.g);
        m.s_ss = add_site(m.s, m.s);
    }

    // Backend selection and the site -> value-slot lookup table.
    sparse_ = n > 0 && n >= opt_.sparse_threshold;
    if (sparse_) {
        obs::Span sp(obs::Phase::Analyze);
        slot_lut_ = slu_.analyze(n, sites_);
        // Campaign-shared symbolic analysis: adopt the nominal circuit's
        // elimination order (patched with this circuit's injected
        // unknowns at the end) instead of running minimum degree here.
        // After analyze(), which defines the pattern the order is
        // validated against.
        if (opt_.symbolic_cache) {
            preorder_cols_ = cache_order();
            if (!preorder_cols_.empty()) {
                slu_.set_preorder(preorder_cols_);
                ++stats_.symbolic_cache_hits;
                if (obs::events_enabled())
                    obs::emit_event(
                        "symbolic_cache_hit",
                        {obs::arg("unknowns",
                                  static_cast<std::int64_t>(n))});
            } else if (obs::events_enabled()) {
                obs::emit_event(
                    "symbolic_cache_miss",
                    {obs::arg("unknowns", static_cast<std::int64_t>(n))});
            }
        }
        vals_size_ = slu_.nnz();
        svals_static_.assign(vals_size_, 0.0);
        svals_work_.assign(vals_size_, 0.0);
    } else {
        slot_lut_.resize(sites_.size());
        for (std::size_t e = 0; e < sites_.size(); ++e)
            slot_lut_[e] = sites_[e].first * static_cast<int>(n) +
                           sites_[e].second;
        vals_size_ = n * n;
        a_static_.reset(n);
        a_work_.reset(n);
    }

    rhs_base_.assign(n, 0.0);
    rhs_mos_.assign(n, 0.0);
    rhs_.assign(n, 0.0);
    x_new_.assign(n, 0.0);
}

std::string Simulator::unknown_name(std::size_t i) const {
    if (i < n_nodes_) return node_names_[i];
    return "b:" + ckt_.devices[vsource_devs_[i - n_nodes_]].name;
}

std::vector<int> Simulator::cache_order() const {
    const SymbolicCache& cache = *opt_.symbolic_cache;
    if (cache.rank.empty()) return {};
    const std::size_t n = n_nodes_ + n_branches_;
    // Sort unknowns by cached rank; unknowns the injection created (split
    // nodes, injected source branches) have no cached rank and sort last,
    // in index order -- eliminating them at the end bounds the extra fill
    // to their couple of coupling entries.
    const int kNoRank = std::numeric_limits<int>::max();
    std::vector<std::pair<int, int>> keyed(n);
    std::size_t matched = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = cache.rank.find(unknown_name(i));
        if (it != cache.rank.end()) ++matched;
        keyed[i] = {it == cache.rank.end() ? kNoRank : it->second,
                    static_cast<int>(i)};
    }
    // A cache from a different circuit matches few or no unknowns; the
    // resulting order would be the (arbitrary) index order, with the
    // catastrophic fill a fill-reducing ordering exists to avoid.  Only
    // adopt the cache when it covers most of this circuit's unknowns --
    // a faulty variant of the cached circuit always does.
    if (2 * matched <= n) return {};
    std::sort(keyed.begin(), keyed.end());
    std::vector<int> order(n);
    for (std::size_t k = 0; k < n; ++k) order[k] = keyed[k].second;
    return order;
}

std::shared_ptr<const SymbolicCache> Simulator::symbolic_cache() const {
    if (!sparse_) return nullptr;
    const std::vector<int> order = slu_.column_order();
    if (order.size() != n_nodes_ + n_branches_) return nullptr;
    auto cache = std::make_shared<SymbolicCache>();
    for (std::size_t k = 0; k < order.size(); ++k)
        cache->rank[unknown_name(static_cast<std::size_t>(order[k]))] =
            static_cast<int>(k);
    return cache;
}

// ---------------------------------------------------------------------------
// Kernel: static / dynamic stamp split

void Simulator::ensure_static(bool dc, double h, double extra_gmin,
                              Method method) {
    if (static_key_.matches(dc, h, extra_gmin, method)) return;

    double* vs = sparse_ ? svals_static_.data() : a_static_.data();
    std::fill(vs, vs + vals_size_, 0.0);
    auto add = [&](int site, double v) {
        if (site >= 0) vs[slot_lut_[static_cast<std::size_t>(site)]] += v;
    };

    // gmin on every node (diagonal sites are 0..n_nodes_-1).
    const double g_floor = opt_.gmin + extra_gmin;
    for (std::size_t i = 0; i < n_nodes_; ++i)
        add(static_cast<int>(i), g_floor);

    for (const ResInstance& r : res_) {
        add(r.s_11, r.g);
        add(r.s_22, r.g);
        add(r.s_12, -r.g);
        add(r.s_21, -r.g);
    }
    for (const VSrcInstance& s : vsrc_) {
        add(s.s_pb, 1.0);
        add(s.s_bp, 1.0);
        add(s.s_mb, -1.0);
        add(s.s_bm, -1.0);
    }
    // Capacitor companion conductances (transient only): fixed for a given
    // stepsize, so they live in the static part.  (The per-MOS gmin
    // leakage stays in the dynamic stamp: interleaving it with each
    // device's companion keeps the floating-point summation order -- and
    // therefore every verdict of a borderline fault -- identical to the
    // historical single-pass assembly.)
    if (!dc) {
        for (const CapInstance& c : caps_) {
            const double geq =
                (method == Method::Trapezoidal) ? 2.0 * c.c / h : c.c / h;
            add(c.s_11, geq);
            add(c.s_22, geq);
            add(c.s_12, -geq);
            add(c.s_21, -geq);
        }
    }

    static_key_.valid = true;
    static_key_.dc = dc;
    static_key_.h = h;
    static_key_.extra_gmin = extra_gmin;
    static_key_.method = method;
    jac_valid_ = false;  // the old factorization sat on the old static part
}

void Simulator::build_rhs_base(bool dc, double h, double t,
                               double src_scale, Method method) {
    std::fill(rhs_base_.begin(), rhs_base_.end(), 0.0);
    for (const ISrcInstance& s : isrc_) {
        const Device& d = ckt_.devices[s.dev];
        // SPICE convention: positive current flows from node+ through the
        // source to node-.
        const double i =
            src_scale * (dc ? d.source.dc_value() : d.source.value_at(t));
        if (s.np >= 0) rhs_base_[static_cast<std::size_t>(s.np)] -= i;
        if (s.nm >= 0) rhs_base_[static_cast<std::size_t>(s.nm)] += i;
    }
    for (const VSrcInstance& s : vsrc_) {
        const Device& d = ckt_.devices[s.dev];
        rhs_base_[s.row] =
            src_scale * (dc ? d.source.dc_value() : d.source.value_at(t));
    }
    if (!dc) {
        for (const CapInstance& c : caps_) {
            double geq, ihist;
            if (method == Method::Trapezoidal) {
                geq = 2.0 * c.c / h;
                ihist = geq * c.v_prev + c.i_prev;
            } else {
                geq = c.c / h;
                ihist = geq * c.v_prev;
            }
            // Companion current source: ihist *into* n1.
            if (c.n1 >= 0) rhs_base_[static_cast<std::size_t>(c.n1)] += ihist;
            if (c.n2 >= 0) rhs_base_[static_cast<std::size_t>(c.n2)] -= ihist;
        }
    }
}

bool Simulator::device_moved(const MosInstance& m,
                             const std::vector<double>& x,
                             double tol) const {
    const double vd = volt(x, m.d), vg = volt(x, m.g), vs = volt(x, m.s);
    return std::fabs(vd - m.lin_vd) >
               tol * std::max(1.0, std::fabs(m.lin_vd)) ||
           std::fabs(vg - m.lin_vg) >
               tol * std::max(1.0, std::fabs(m.lin_vg)) ||
           std::fabs(vs - m.lin_vs) >
               tol * std::max(1.0, std::fabs(m.lin_vs));
}

void Simulator::stamp_dynamic(const std::vector<double>& x, bool fresh) {
    double* vw = sparse_ ? svals_work_.data() : a_work_.data();
    const double* vs = sparse_ ? svals_static_.data() : a_static_.data();
    std::copy(vs, vs + vals_size_, vw);
    std::fill(rhs_mos_.begin(), rhs_mos_.end(), 0.0);
    // The companion currents are stamped straight into rhs_ (on top of the
    // base) so the accumulation order matches the historical single-pass
    // assembly bit for bit; rhs_mos_ keeps the MOS-only part for the
    // bypass path to reuse.
    rhs_ = rhs_base_;

    auto add = [&](int site, double v) {
        if (site >= 0) vw[slot_lut_[static_cast<std::size_t>(site)]] += v;
    };

    for (MosInstance& m : mos_) {
        // Per-device bypass: a device whose terminals stayed within
        // bypass_tol of its linearization replays the cached stamp in the
        // same add order as a fresh evaluation -- the model evaluation
        // (the per-device cost) is skipped; the approximation is exactly
        // the modified-Newton one the all-or-nothing bypass made, applied
        // per device instead of globally.
        const bool evaluate = fresh || !opt_.bypass || !m.lin_valid ||
                              device_moved(m, x, opt_.device_bypass_tol);
        if (evaluate) {
            const double sign = m.model->is_nmos ? 1.0 : -1.0;
            const double vd = volt(x, m.d), vg = volt(x, m.g),
                         vs_ = volt(x, m.s);
            double vdn = sign * vd, vgn = sign * vg, vsn = sign * vs_;
            int ed = m.d, es = m.s;
            bool swapped = false;
            if (vdn < vsn) {
                std::swap(vdn, vsn);
                std::swap(ed, es);
                swapped = true;
            }
            const Mos1Point p =
                mos1_eval_normalized(*m.model, m.w, m.l, vgn - vsn, vdn - vsn);
            // Real-space quantities referenced to the *effective* source.
            const double i0 = sign * p.id;  // current into effective drain
            const double v_es = volt(x, es);
            const double vgs_r = volt(x, m.g) - v_es;
            const double vds_r = volt(x, ed) - v_es;

            // Stamp sites for the (effective drain, effective source)
            // rows: when the device operates reversed, the drain-row
            // values land on the source-row sites and vice versa.
            m.c_dd = swapped ? m.s_ss : m.s_dd;
            m.c_dg = swapped ? m.s_sg : m.s_dg;
            m.c_ds = swapped ? m.s_sd : m.s_ds;
            m.c_ss = swapped ? m.s_dd : m.s_ss;
            m.c_sg = swapped ? m.s_dg : m.s_sg;
            m.c_sd = swapped ? m.s_ds : m.s_sd;
            m.ed = ed;
            m.es = es;
            m.g_dd = p.gds;
            m.g_dg = p.gm;
            m.g_ds = -(p.gds + p.gm);
            m.g_ss = p.gds + p.gm;
            m.g_sg = -p.gm;
            m.g_sd = -p.gds;
            m.ieq = i0 - p.gm * vgs_r - p.gds * vds_r;
            m.lin_vd = vd;
            m.lin_vg = vg;
            m.lin_vs = vs_;
            m.lin_valid = true;
            ++stats_.device_stamps;
        } else {
            ++stats_.device_stamp_skips;
        }

        // i(ed) = gds*V(ed) + gm*V(g) - (gds+gm)*V(es) + ieq
        if (m.ed >= 0) {
            add(m.c_dd, m.g_dd);
            add(m.c_dg, m.g_dg);
            add(m.c_ds, m.g_ds);
            rhs_[static_cast<std::size_t>(m.ed)] -= m.ieq;
            rhs_mos_[static_cast<std::size_t>(m.ed)] -= m.ieq;
        }
        if (m.es >= 0) {
            add(m.c_ss, m.g_ss);
            add(m.c_sg, m.g_sg);
            add(m.c_sd, m.g_sd);
            rhs_[static_cast<std::size_t>(m.es)] += m.ieq;
            rhs_mos_[static_cast<std::size_t>(m.es)] += m.ieq;
        }
        // Weak drain-source leakage keeps switched-off stacks well-posed.
        add(m.s_dd, opt_.gmin);
        add(m.s_ss, opt_.gmin);
        add(m.s_ds, -opt_.gmin);
        add(m.s_sd, -opt_.gmin);
    }

    jac_key_ = static_key_;
    // Not yet a valid bypass factorization: newton() marks it valid only
    // once the stamped matrix has actually been factored, so a failed
    // (singular) factorization or a stamp-only caller (the AC setup) can
    // never leave the bypass pointing at a stale or absent factorization.
    jac_valid_ = false;
}

bool Simulator::can_bypass(const std::vector<double>& x) const {
    if (!opt_.bypass || !jac_valid_ || !static_key_.valid) return false;
    if (!jac_key_.matches(static_key_.dc, static_key_.h,
                          static_key_.extra_gmin, static_key_.method))
        return false;
    for (const MosInstance& m : mos_)
        if (!m.lin_valid || device_moved(m, x, opt_.bypass_tol)) return false;
    return true;
}

void Simulator::sync_sparse_timers() {
    stats_.ordering_seconds =
        slu_.ordering_seconds() + cslu_.ordering_seconds();
    stats_.numeric_seconds = slu_.numeric_seconds() + cslu_.numeric_seconds();
}

void Simulator::begin_analysis() {
    analysis_base_ = stats_;
    budget_armed_ = opt_.max_wall_seconds > 0.0 || opt_.max_nr_total > 0 ||
                    opt_.max_tran_steps > 0;
    if (budget_armed_) budget_t0_ = std::chrono::steady_clock::now();
}

void Simulator::check_budget() {
    if (!budget_armed_) return;
    if (opt_.max_nr_total > 0 &&
        stats_.nr_iterations - analysis_base_.nr_iterations >=
            opt_.max_nr_total)
        throw BudgetExceeded("budget: NR iteration budget of " +
                             std::to_string(opt_.max_nr_total) +
                             " exhausted");
    if (opt_.max_tran_steps > 0 &&
        stats_.tran_steps - analysis_base_.tran_steps >= opt_.max_tran_steps)
        throw BudgetExceeded("budget: transient step budget of " +
                             std::to_string(opt_.max_tran_steps) +
                             " exhausted");
    if (opt_.max_wall_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      budget_t0_)
                .count() >= opt_.max_wall_seconds)
        throw BudgetExceeded("budget: wall-clock deadline of " +
                             std::to_string(opt_.max_wall_seconds) +
                             " s exceeded");
}

bool Simulator::factor_work() {
    obs::Span sp(obs::Phase::Factor);
    if (auto fp = robust::hit("kernel.factor"))
        if (fp->action == robust::FailAction::Singular) return false;
    if (sparse_) {
        const std::size_t before_full = slu_.full_factors();
        const bool ok = slu_.factor(svals_work_);
        sync_sparse_timers();
        if (!ok) return false;
        if (slu_.full_factors() > before_full) {
            ++stats_.sparse_full_factors;
        } else {
            ++stats_.sparse_refactors;
            sp.set_phase(obs::Phase::Refactor);
        }
    } else {
        if (!lu_.factor(a_work_)) return false;
    }
    ++stats_.lu_factorizations;
    return true;
}

void Simulator::solve_work() {
    obs::Span sp(obs::Phase::Solve);
    if (sparse_) {
        x_new_ = rhs_;
        slu_.solve(x_new_);
    } else {
        lu_.solve(rhs_, x_new_);
    }
    if (auto fp = robust::hit("kernel.solve"))
        if (fp->action == robust::FailAction::Nan && !x_new_.empty())
            x_new_[0] = std::numeric_limits<double>::quiet_NaN();
}

constexpr double kAbstol = 1e-9;  ///< current convergence floor [A]
constexpr double kVntol = 1e-6;   ///< voltage convergence floor [V]
constexpr double kReltol = 1e-3;  ///< relative convergence tolerance
constexpr int kMaxNr = 150;       ///< NR iteration cap per solve
/// Largest voltage change per NR iteration [V]: the transient's limit and
/// the first rung of the DC damping ladder.
constexpr double kDvLimit = 1.0;

bool Simulator::newton(std::vector<double>& x, double h, double t, bool dc,
                       double src_scale, double extra_gmin, double dv_limit,
                       Method method) {
    obs::Span sp(obs::Phase::Newton);
    robust::hit("kernel.newton");  // hang/exception injection site
    const std::size_t n = n_nodes_ + n_branches_;
    ensure_static(dc, h, extra_gmin, method);
    build_rhs_base(dc, h, t, src_scale, method);

    for (int it = 0; it < kMaxNr; ++it) {
        if (can_bypass(x)) {
            // Modified Newton: the device linearizations and the
            // factorization are reused; only the rhs is fresh.
            ++stats_.bypass_solves;
            rhs_ = rhs_base_;
            for (std::size_t i = 0; i < n; ++i) rhs_[i] += rhs_mos_[i];
        } else {
            stamp_dynamic(x);  // also rebuilds rhs_ from the base
            if (!factor_work()) return false;
            jac_valid_ = true;
        }
        solve_work();
        ++stats_.nr_iterations;
        check_budget();

        // Damped update with voltage limiting on node unknowns.
        double max_rel = 0.0;
        bool limited = false;
        for (std::size_t i = 0; i < n; ++i) {
            double dv = x_new_[i] - x[i];
            if (i < n_nodes_ && std::fabs(dv) > dv_limit) {
                dv = std::copysign(dv_limit, dv);
                limited = true;
            }
            x[i] += dv;
            const double tol = (i < n_nodes_)
                                   ? kVntol + kReltol * std::fabs(x[i])
                                   : kAbstol + kReltol * std::fabs(x[i]);
            max_rel = std::max(max_rel, std::fabs(dv) / tol);
            if (!std::isfinite(x[i]) || std::fabs(x[i]) > 1e9) return false;
        }
        if (!limited && max_rel < 1.0 && it >= 1) return true;
    }
    return false;
}

DcResult Simulator::dc_op() {
    // A standalone operating-point solve (DC fault screens) is its own
    // analysis window, so the execution budgets cover the whole strategy
    // ladder.  tran()/ac() call dc_op_impl() directly: their windows span
    // the internal OP solve.
    begin_analysis();
    return dc_op_impl(nullptr);
}

DcResult Simulator::dc_op(const std::map<std::string, double>& initial) {
    begin_analysis();
    std::vector<double> x0(n_nodes_ + n_branches_, 0.0);
    for (std::size_t i = 0; i < n_nodes_; ++i) {
        const auto it = initial.find(node_names_[i]);
        if (it != initial.end()) x0[i] = it->second;
    }
    return dc_op_impl(&x0);
}

DcResult Simulator::dc_op_impl(const std::vector<double>* warm) {
    DcResult res;
    const std::size_t n = n_nodes_ + n_branches_;
    std::vector<double> x(n, 0.0);
    const std::size_t it_entry = stats_.nr_iterations;

    // Warm start: plain Newton from the supplied solution.  A nearby
    // operating point (the previous sweep level, the nominal circuit of a
    // fault screen) usually converges in a couple of iterations; the cold
    // ladder below stays as the fallback.
    if (warm) {
        x = *warm;
        if (newton(x, 0.0, 0.0, /*dc=*/true, 1.0, 0.0, kDvLimit,
                   opt_.method)) {
            res.converged = true;
            res.strategy = "warm";
            const std::size_t spent = stats_.nr_iterations - it_entry;
            ++stats_.warm_start_solves;
            if (last_cold_nr_ > spent)
                stats_.nr_saved_warm += last_cold_nr_ - spent;
        }
    }

    const std::size_t it_cold = stats_.nr_iterations;
    if (!res.converged) {
        // Each strategy is retried over a damping ladder: regenerative
        // circuits (the VCO's Schmitt trigger) limit-cycle under a generous
        // voltage step but converge cleanly once the per-iteration update is
        // clamped harder.
        for (const double dv : {kDvLimit, 0.5, 0.2}) {
            // Strategy 1: plain Newton.
            x.assign(n, 0.0);
            if (newton(x, 0.0, 0.0, /*dc=*/true, 1.0, 0.0, dv, opt_.method)) {
                res.converged = true;
                res.strategy = "nr";
                break;
            }

            // Strategy 2: gmin stepping.
            x.assign(n, 0.0);
            bool ok = true;
            for (double g = 1e-2; g >= 1e-13; g *= 0.1) {
                if (!newton(x, 0.0, 0.0, true, 1.0, g, dv, opt_.method)) {
                    ok = false;
                    break;
                }
            }
            if (ok && newton(x, 0.0, 0.0, true, 1.0, 0.0, dv, opt_.method)) {
                res.converged = true;
                res.strategy = "gmin";
                break;
            }

            // Strategy 3: source stepping.
            x.assign(n, 0.0);
            ok = true;
            for (double s = 0.05; s <= 1.0 + 1e-12; s += 0.05) {
                if (!newton(x, 0.0, 0.0, true, std::min(s, 1.0), 0.0, dv,
                            opt_.method)) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                res.converged = true;
                res.strategy = "source";
                break;
            }
        }
        // The cold cost baselines future warm starts of this simulator.
        if (res.converged) last_cold_nr_ = stats_.nr_iterations - it_cold;
    }

    res.iterations = static_cast<int>(stats_.nr_iterations - it_entry);
    if (res.converged) {
        for (std::size_t i = 0; i < n_nodes_; ++i)
            res.voltages[node_names_[i]] = x[i];
        res.voltages[netlist::kGround] = 0.0;
    }
    return res;
}

void Simulator::update_cap_history(const std::vector<double>& x, double h,
                                   Method method) {
    for (CapInstance& c : caps_) {
        const double v = volt(x, c.n1) - volt(x, c.n2);
        double i;
        if (method == Method::Trapezoidal)
            i = (2.0 * c.c / h) * (v - c.v_prev) - c.i_prev;
        else
            i = (c.c / h) * (v - c.v_prev);
        c.v_prev = v;
        c.i_prev = i;
    }
}

double Simulator::lte_ratio(const std::vector<double>& x_prev, double h_prev,
                            const std::vector<double>& x_old,
                            const std::vector<double>& x_new,
                            double dt) const {
    if (h_prev <= 0.0) return std::numeric_limits<double>::infinity();
    const double slope_scale = dt / h_prev;
    double worst = 0.0;
    for (std::size_t i = 0; i < n_nodes_; ++i) {
        const double pred = x_old[i] + (x_old[i] - x_prev[i]) * slope_scale;
        const double err = std::fabs(x_new[i] - pred);
        const double tol = opt_.lte_tol * std::max(1.0, std::fabs(x_new[i]));
        worst = std::max(worst, err / tol);
    }
    return worst;
}

Waveforms Simulator::tran() {
    require(ckt_.tran.has_value(), "circuit has no .tran card");
    return tran(*ckt_.tran);
}

std::vector<DcResult> dc_sweep(const netlist::Circuit& ckt,
                               const std::string& source,
                               const std::vector<double>& levels,
                               const SimOptions& opt,
                               const DcSweepObserver& observer,
                               SimStats* stats) {
    require(!levels.empty(), "dc_sweep: no levels");
    const Device& d = ckt.device(source);
    require(d.kind == DeviceKind::VSource || d.kind == DeviceKind::ISource,
            "dc_sweep: " + source + " is not a source");

    // One simulator for the whole sweep: each level after the first is
    // warm-started from the previous level's solution.
    Simulator sim(ckt, opt);
    std::vector<DcResult> out;
    out.reserve(levels.size());
    std::map<std::string, double> warm;
    for (double v : levels) {
        sim.set_source_dc(source, v);
        DcResult r = warm.empty() ? sim.dc_op() : sim.dc_op(warm);
        if (r.converged) warm = r.voltages;
        const bool stop = observer && !observer(v, r);
        out.push_back(std::move(r));
        if (stop) break;
    }
    if (stats) *stats = sim.stats();
    return out;
}

AcResult Simulator::ac() {
    require(ckt_.ac.has_value(), "circuit has no .ac card");
    AcSpec spec;
    spec.points_per_decade = ckt_.ac->points_per_decade;
    spec.fstart = ckt_.ac->fstart;
    spec.fstop = ckt_.ac->fstop;
    return ac(spec);
}

AcResult Simulator::ac(const AcSpec& spec) { return ac(spec, AcPointObserver{}); }

AcResult Simulator::ac(const AcSpec& spec, const AcPointObserver& observer) {
    require(spec.fstart > 0 && spec.fstop > spec.fstart &&
                spec.points_per_decade > 0,
            "bad .ac parameters");
    begin_analysis();

    // Operating point (dc_op_impl keeps the sweep's own analysis window
    // and budgets intact; the public dc_op() would re-arm them).
    const DcResult op = dc_op_impl(nullptr);
    require(op.converged, "ac: DC operating point failed");
    const std::size_t n = n_nodes_ + n_branches_;
    std::vector<double> x0(n, 0.0);
    for (std::size_t i = 0; i < n_nodes_; ++i)
        x0[i] = op.voltages.at(node_names_[i]);

    // Small-signal G: exactly the DC Jacobian at the operating point
    // (resistors, source incidence, gmin, MOS gm/gds), produced by the
    // same static + dynamic stamp split the Newton loop uses.  Every
    // device is evaluated fresh at x0: a cached linearization from the
    // operating-point solve sits within bypass_tol of x0 but is not the
    // Jacobian *at* x0.
    ensure_static(/*dc=*/true, 0.0, 0.0, opt_.method);
    stamp_dynamic(x0, /*fresh=*/true);
    const double* gv = sparse_ ? svals_work_.data() : a_work_.data();

    // AC excitation: every source participates with its ac_mag.
    std::vector<std::complex<double>> rhs(n, 0.0);
    for (const ISrcInstance& s : isrc_) {
        const double mag = ckt_.devices[s.dev].source.ac_mag;
        if (s.np >= 0) rhs[static_cast<std::size_t>(s.np)] -= mag;
        if (s.nm >= 0) rhs[static_cast<std::size_t>(s.nm)] += mag;
    }
    for (const VSrcInstance& s : vsrc_)
        rhs[s.row] = ckt_.devices[s.dev].source.ac_mag;

    AcResult res;
    for (const std::string& nn : node_names_) res.add_node(nn);

    // Complex backend mirrors the real one: same sites, same slots; the
    // complex pattern analysis runs once, lazily, on the first sweep.
    if (sparse_ && !ac_kernel_ready_) {
        obs::Span asp(obs::Phase::Analyze);
        // analyze() is deterministic over the same site list, so the
        // complex solver hands out the same slots as the real one; the
        // check turns any future divergence into a loud failure instead
        // of silently mis-stamped transfer functions.
        const std::vector<int> cslots = cslu_.analyze(n, sites_);
        if (!preorder_cols_.empty()) {
            cslu_.set_preorder(preorder_cols_);
        } else {
            // The real backend has already ordered this exact pattern
            // (the operating point factored above); reuse its pivot
            // column order instead of running minimum degree twice.
            const std::vector<int> order = slu_.column_order();
            if (order.size() == n) cslu_.set_preorder(order);
        }
        require(cslots == slot_lut_,
                "ac: complex sparse pattern diverged from the real one");
        cvals_work_.assign(vals_size_, 0.0);
        ac_kernel_ready_ = true;
    }
    if (!sparse_) ca_work_.reset(n);

    std::complex<double>* cw =
        sparse_ ? cvals_work_.data() : ca_work_.data();
    auto addc = [&](int site, std::complex<double> v) {
        if (site >= 0) cw[slot_lut_[static_cast<std::size_t>(site)]] += v;
    };

    // Sweep.  The G part is frequency-independent; per point the value
    // array is refreshed from it and only jwC is added on the capacitor
    // sites.  Above the sparse threshold every point after the first is a
    // pattern-reused refactor instead of a fresh O(n^3) factorization.
    const double decades = std::log10(spec.fstop / spec.fstart);
    const int total = std::max(
        2, static_cast<int>(decades * spec.points_per_decade + 0.5) + 1);
    std::vector<std::complex<double>> sol(n);
    for (int k = 0; k < total; ++k) {
        // The sweep is linear (no Newton iterations), so the wall-clock
        // budget needs its own per-point check here.
        check_budget();
        const double f =
            spec.fstart * std::pow(10.0, decades * k / (total - 1));
        const double w = 2.0 * M_PI * f;
        for (std::size_t i = 0; i < vals_size_; ++i)
            cw[i] = std::complex<double>(gv[i], 0.0);
        for (const CapInstance& cp : caps_) {
            const std::complex<double> jwc(0.0, w * cp.c);
            addc(cp.s_11, jwc);
            addc(cp.s_22, jwc);
            addc(cp.s_12, -jwc);
            addc(cp.s_21, -jwc);
        }
        if (sparse_) {
            obs::Span fsp(obs::Phase::Factor);
            const std::size_t before_full = cslu_.full_factors();
            const bool fok = cslu_.factor(cvals_work_);
            sync_sparse_timers();
            require(fok, "ac: singular system at f=" + std::to_string(f));
            if (cslu_.full_factors() > before_full) {
                ++stats_.sparse_full_factors;
            } else {
                ++stats_.sparse_refactors;
                fsp.set_phase(obs::Phase::Refactor);
            }
            fsp.end();
            obs::Span ssp(obs::Phase::Solve);
            sol = rhs;
            cslu_.solve(sol);
        } else {
            {
                obs::Span fsp(obs::Phase::Factor);
                require(clu_.factor(ca_work_),
                        "ac: singular system at f=" + std::to_string(f));
            }
            obs::Span ssp(obs::Phase::Solve);
            clu_.solve(rhs, sol);
        }
        ++stats_.lu_factorizations;
        res.append(f, std::vector<std::complex<double>>(
                          sol.begin(),
                          sol.begin() + static_cast<long>(n_nodes_)));
        ++stats_.ac_points;
        if (observer && !observer(f, res)) {
            stats_.ac_points_saved += static_cast<std::size_t>(total - k - 1);
            break;
        }
    }
    return res;
}

Waveforms Simulator::tran(const netlist::TranSpec& spec) {
    return tran(spec, StepObserver{});
}

/// Halvings of one grid interval's step before a transient gives up.
constexpr int kMaxStepCuts = 10;
/// Largest number of grid intervals one adaptive step may span.
constexpr std::size_t kMaxStride = 64;

Waveforms Simulator::tran(const netlist::TranSpec& spec,
                          const StepObserver& observer) {
    require(spec.tstep > 0 && spec.tstop > spec.tstart,
            "bad .tran parameters");
    begin_analysis();
    const std::size_t n = n_nodes_ + n_branches_;
    std::vector<double> x(n, 0.0);

    // Reset capacitor history (the same Simulator can be reused).
    for (CapInstance& c : caps_) {
        c.v_prev = 0.0;
        c.i_prev = 0.0;
    }
    for (std::size_t i = 0, ci = 0; i < ckt_.devices.size(); ++i) {
        const Device& d = ckt_.devices[i];
        if (d.kind != DeviceKind::Capacitor) continue;
        caps_[ci].v_prev = d.ic.value_or(0.0);
        ++ci;
    }

    // Initial point.
    if (opt_.uic) {
        // Start from all-zero node voltages (plus capacitor ICs recorded in
        // history).  Consistent for supply-ramp decks, which is how the
        // paper's experiment begins ("after the activation of the supply
        // voltage the simulation started").
    } else {
        // Solve the DC operating point (sources at their dc_value(), which
        // for PULSE/PWL/SIN equals the t=0 level on standard decks).
        // dc_op_impl: the transient's analysis window and budgets, armed
        // by begin_analysis() above, span this internal solve.
        DcResult dc = dc_op_impl(nullptr);
        require(dc.converged, "transient: initial operating point failed");
        for (std::size_t i = 0; i < n_nodes_; ++i)
            x[i] = dc.voltages.at(node_names_[i]);
        // Seed capacitor history with the operating point.
        for (CapInstance& c : caps_) {
            c.v_prev = volt(x, c.n1) - volt(x, c.n2);
            c.i_prev = 0.0;
        }
    }

    Waveforms wf;
    for (const std::string& nn : node_names_) wf.add_trace(nn);
    // Branch currents of the voltage sources, for supply-current (IDDQ
    // style) observation: trace "i(<source name>)".
    for (std::size_t b = 0; b < n_branches_; ++b)
        wf.add_trace("i(" + ckt_.devices[vsource_devs_[b]].name + ")");

    auto record = [&](double t) {
        row_buf_.assign(x.begin(), x.end());
        wf.append(t, row_buf_);
    };

    record(spec.tstart);

    const auto steps = static_cast<std::size_t>(
        std::llround((spec.tstop - spec.tstart) / spec.tstep));
    require(steps > 0, "transient: zero steps");

    if (observer && !observer(spec.tstart, wf)) {
        stats_.steps_saved += steps;
        return wf;
    }

    // The first sub-step bootstraps with backward Euler: there is no
    // capacitor current history for the trapezoidal rule yet.
    bool first_substep = true;

    // Integrate exactly one grid interval ending at t_target with the
    // fixed-grid cut loop: the full interval first, halved internally when
    // NR fails.  Commits x and the capacitor history.
    auto advance_interval = [&](double tc, double t_target) {
        while (tc < t_target - 1e-18 * std::max(1.0, t_target)) {
            double dt = t_target - tc;
            int cuts = 0;
            for (;;) {
                const Method method =
                    first_substep ? Method::BackwardEuler : opt_.method;
                x_try_ = x;
                const bool ok = newton(x_try_, dt, tc + dt, /*dc=*/false, 1.0,
                                       0.0, kDvLimit, method);
                if (ok) {
                    x = x_try_;
                    update_cap_history(x, dt, method);
                    first_substep = false;
                    tc += dt;
                    ++stats_.tran_steps;
                    break;
                }
                ++cuts;
                ++stats_.step_cuts;
                require(cuts <= kMaxStepCuts,
                        "transient failed to converge at t=" +
                            std::to_string(tc + dt));
                dt *= 0.5;
            }
        }
    };

    // A macro step samples every source only at its endpoint, so it is
    // valid only when each independent source is linear across the whole
    // stride -- otherwise a stimulus feature (a pulse edge inside the
    // stride) would be silently integrated away even though the LTE test
    // on the endpoint passes.  Checked *before* the Newton solve: source
    // evaluation is cheap, a wasted macro solve is not.
    auto sources_linear = [&](double t0, double t1, std::size_t s) {
        for (const Device& d : ckt_.devices) {
            if (d.kind != DeviceKind::VSource &&
                d.kind != DeviceKind::ISource)
                continue;
            const double v0 = d.source.value_at(t0);
            const double v1 = d.source.value_at(t1);
            const double tol =
                opt_.lte_tol *
                std::max({1.0, std::fabs(v0), std::fabs(v1)});
            for (std::size_t j = 1; j < s; ++j) {
                const double tj =
                    t0 + (t1 - t0) * static_cast<double>(j) /
                             static_cast<double>(s);
                const double lin = v0 + (v1 - v0) *
                                            static_cast<double>(j) /
                                            static_cast<double>(s);
                if (std::fabs(d.source.value_at(tj) - lin) > tol)
                    return false;
            }
        }
        return true;
    };

    // Adaptive predictor state: the previous accepted grid solution and the
    // spacing to it.  The first interval always runs fixed-grid (there is
    // no history to predict from, and it carries the BE bootstrap).
    std::vector<double> x_prev;
    double h_prev = 0.0;
    bool have_prev = false;
    std::size_t stride = 1;
    const std::size_t max_stride = opt_.adaptive ? kMaxStride : 1;

    std::size_t k = 0;          // completed grid intervals
    double t_k = spec.tstart;   // time of the last recorded grid sample
    while (k < steps) {
        std::size_t s = std::min(stride, steps - k);
        double ratio = -1.0;  // LTE ratio of the accepted step, if known
        bool macro_done = false;
        std::vector<double> x_old = x;  // solution at t_k (predictor history)

        // Multi-interval candidate steps, halved on NR failure or LTE
        // rejection; s == 1 falls through to the fixed-grid path below.
        while (s > 1 && have_prev) {
            const double t_target =
                spec.tstart + static_cast<double>(k + s) * spec.tstep;
            const double dt = t_target - t_k;
            if (!sources_linear(t_k, t_target, s)) {
                s /= 2;
                continue;
            }
            // Seed Newton with the linear predictor: on the quiescent
            // stretches where large strides are attempted it is already
            // near the solution, so the macro solve converges in a couple
            // of iterations.
            x_try_ = x;
            const double slope = dt / h_prev;
            for (std::size_t i = 0; i < n; ++i)
                x_try_[i] += (x[i] - x_prev[i]) * slope;
            if (newton(x_try_, dt, t_target, /*dc=*/false, 1.0, 0.0,
                       kDvLimit, opt_.method)) {
                ratio = lte_ratio(x_prev, h_prev, x, x_try_, dt);
                if (ratio <= 1.0) {
                    // Accepted: the LTE bound certifies the solution is
                    // linear across the stride within tolerance, so the
                    // interior grid samples are filled by interpolation.
                    for (std::size_t j = 1; j < s; ++j) {
                        const double tj = spec.tstart +
                                          static_cast<double>(k + j) *
                                              spec.tstep;
                        const double frac = static_cast<double>(j) /
                                            static_cast<double>(s);
                        row_buf_.resize(n);
                        for (std::size_t i = 0; i < n; ++i)
                            row_buf_[i] = x[i] + frac * (x_try_[i] - x[i]);
                        wf.append(tj, row_buf_);
                        ++stats_.grid_points_interpolated;
                        if (observer && !observer(tj, wf)) {
                            stats_.steps_saved += steps - (k + j);
                            return wf;
                        }
                    }
                    x = x_try_;
                    update_cap_history(x, dt, opt_.method);
                    ++stats_.tran_steps;
                    macro_done = true;
                    break;
                }
                ++stats_.lte_rejections;
            } else {
                ++stats_.step_cuts;
            }
            s /= 2;
        }

        double t_target;
        if (macro_done) {
            t_target = spec.tstart + static_cast<double>(k + s) * spec.tstep;
        } else {
            s = 1;
            t_target = spec.tstart + static_cast<double>(k + 1) * spec.tstep;
            advance_interval(t_k, t_target);
            // A-posteriori LTE of the fixed-grid step: lets the stride grow
            // out of quiescence without speculative (wasted) macro solves.
            if (opt_.adaptive && have_prev)
                ratio = lte_ratio(x_prev, h_prev, x_old, x, t_target - t_k);
        }

        record(t_target);
        if (observer && !observer(t_target, wf)) {
            stats_.steps_saved += steps - (k + s);
            return wf;
        }

        // Predictor history and stride control for the next step.
        x_prev = std::move(x_old);
        h_prev = t_target - t_k;
        have_prev = true;
        t_k = t_target;
        k += s;
        if (opt_.adaptive) {
            if (ratio >= 0.0 && ratio < 0.25)
                stride = std::min(s * 2, max_stride);
            else
                stride = std::max<std::size_t>(s, 1);
        }
    }
    return wf;
}

} // namespace catlift::spice
