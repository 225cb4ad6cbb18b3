// catlift/spice/engine.h
//
// The kernel analogue simulator.  The paper's AnaFAULT drives ELDO; this
// engine plays that role: it accepts a netlist::Circuit, computes a DC
// operating point, a DC transfer sweep, a small-signal AC sweep, or a
// transient response.
//
// Numerics
// --------
//  * Modified Nodal Analysis: one unknown per non-ground node plus one
//    branch current per voltage source.
//  * Damped Newton-Raphson with per-iteration voltage limiting for the
//    nonlinear MOS devices.
//  * DC operating point: plain NR, then gmin stepping, then source stepping
//    (in that order) until one converges.  A solve may be warm-started from
//    a nearby solution (the previous level of a DC sweep, the nominal
//    operating point of a fault screen); plain NR from the warm point is
//    tried first and the cold ladder remains the fallback.
//  * Transient: backward-Euler or trapezoidal companion models over the
//    user sample grid t = tstart..tstop step tstep.  In fixed-grid mode
//    (`adaptive = false`) every grid interval is integrated with one
//    companion step, halved internally when NR fails -- the paper's
//    experiment is a fixed "400 step transient fault simulation", which
//    maps to this mode.  In adaptive mode the kernel controls the step:
//    the local truncation error of each candidate step is estimated from
//    the companion history (the solution is compared against a linear
//    predictor extrapolated through the two previous accepted points --
//    the predictor error is a divided-difference curvature estimate, the
//    standard LTE proxy).  Steps whose LTE ratio exceeds 1 are rejected
//    and halved; well-predicted steps let the stride grow geometrically up
//    to 64 grid intervals, so quiescent tails integrate in a
//    handful of solves.  A stride is only attempted when every independent
//    source is linear across it (sources are sampled at the stride
//    endpoint, so a pulse edge inside a stride would otherwise be
//    integrated away); around stimulus discontinuities the kernel falls
//    back to the grid.  Strides are bounded *by the sample grid*: every
//    accepted step lands exactly on a grid point and skipped grid samples
//    are filled by linear interpolation (valid precisely because the LTE
//    test bounds the deviation from linearity), so the returned Waveforms
//    carry the same time axis as a fixed-grid run and per-point observers
//    fire for every grid sample in order.
//  * Every node carries gmin to ground; transient adds cmin so that nodes
//    isolated by open-fault injection stay well-posed (exactly the
//    situation AnaFAULT creates with 100 MOhm opens and split nodes).
//
// Kernel architecture (stamp split / sparse / bypass)
// ---------------------------------------------------
// The Jacobian is split once, structurally, at construction:
//  * static part  -- resistors, source incidence, gmin and the capacitor
//    companion conductances.  Rebuilt only when the companion stepsize,
//    integration method or stepping scalars change, never per Newton
//    iteration.
//  * dynamic part -- the MOS linearised companions.  Written per Newton
//    iteration through precomputed stamp-pointer lists on top of a memcpy
//    of the static values; no device-loop node lookups in the hot path.
// The linear solve runs on one of two backends behind the same stamp
// slots: dense LU (matrix.h) below SimOptions::sparse_threshold unknowns,
// sparse LU (sparse.h) above it -- a one-time analysis (minimum-degree
// preordering + Gilbert-Peierls fill discovery), every later
// factorization a pattern-reused supernodal numeric refactor.  A campaign
// hands every faulty variant the nominal circuit's elimination order
// through SimOptions::symbolic_cache so the one-time analysis runs once per
// campaign instead of once per fault.  The AC sweep shares the machinery
// with complex values: the G pattern is stamped once, per frequency only
// the capacitor cells change, and above the threshold each point is a
// sparse refactor instead of a dense O(n^3) factorization.  All Newton
// workspaces (matrix values, rhs, solution, solver) are Simulator-owned
// and preallocated: the hot path performs no heap allocation.  The
// modified-Newton bypass is *per device*: a MOS whose terminals stayed
// within device_bypass_tol of its linearization replays its cached
// companion stamp instead of being re-evaluated, and when every device is
// clean the previous factorization is reused outright
// (SimStats::bypass_solves), which collapses quiescent transient tails to
// two triangular solves per step.
//
// Observers
// ---------
// Every sweeping analysis accepts a per-point observer so a caller (the
// batch fault-simulation engine) can stop the analysis the moment it has
// learned what it needs -- ERASER-style execution-redundancy trimming
// inside the kernel rather than around it:
//   * tran:     StepObserver   -- per accepted user-grid sample
//   * ac:       AcPointObserver -- per frequency point, mid-sweep
//   * dc_sweep: DcSweepObserver -- per level, between warm-started solves

#pragma once

#include "netlist/netlist.h"
#include "spice/ac.h"
#include "spice/matrix.h"
#include "spice/sparse.h"
#include "spice/symbolic_cache.h"
#include "spice/waveform.h"

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace catlift::spice {

/// Integration method for transient analysis.
enum class Method { BackwardEuler, Trapezoidal };

struct SimOptions {
    double gmin = 1e-12;    ///< conductance to ground on every node [S]
    Method method = Method::Trapezoidal;
    bool uic = false;       ///< transient: skip DC OP, start from 0 / .ic

    // -- adaptive time stepping ---------------------------------------------
    /// LTE-controlled stride growth over the sample grid (see file header).
    /// Off by default for the raw kernel; fault campaigns turn it on.
    bool adaptive = false;
    /// Relative LTE acceptance tolerance: a candidate step is accepted when
    /// the predictor error on every node stays below
    /// lte_tol * max(1 V, |v|); growth is attempted below a quarter of it.
    double lte_tol = 5e-3;

    // -- kernel selection ---------------------------------------------------
    /// Unknown count at or above which the sparse kernel replaces dense
    /// LU.  0 forces sparse everywhere (tests use this); a huge value
    /// forces dense.  The default keeps the paper's tens-of-nodes
    /// circuits on the dense path, where its constant factors win.
    std::size_t sparse_threshold = 64;
    /// Modified-Newton Jacobian bypass, *per device*: a MOS whose terminal
    /// voltages all moved less than bypass_tol * max(1 V, |v|) since its
    /// linearization keeps its cached companion stamp instead of being
    /// re-evaluated (SimStats::device_stamp_skips); when every device is
    /// clean and the companion stepsize is unchanged the previous
    /// factorization is reused outright and the solve is two triangular
    /// substitutions (SimStats::bypass_solves).  Each converged solution
    /// is by construction within bypass_tol of every device's
    /// linearization point, so detection verdicts are unchanged at the
    /// default tolerance (pinned by the full-VCO-campaign identity test in
    /// tests/kernel_test.cpp and the per-device OTA identity test in
    /// tests/symbolic_test.cpp).
    bool bypass = true;
    double bypass_tol = 1e-7;
    /// Movement tolerance of the *per-device* stamp reuse, deliberately
    /// tighter than bypass_tol: a stale device linearization persists for
    /// as long as the device sits still, so its error accumulates where
    /// the whole-solve bypass' cannot (the factorization reuse lasts one
    /// solve).  At 0 a device is replayed only when its terminals are
    /// *bitwise* unchanged -- the cached stamp then equals a fresh
    /// evaluation bit for bit, so waveforms are untouched; fault campaigns
    /// default to that (CampaignOptions), because the VCO's margin-rider
    /// faults ride the oscillator's truncation error and flip under any
    /// nonzero device staleness (measured: non-monotonically across
    /// 1e-12..1e-10).  The raw-kernel default 1e-9 trades that last digit
    /// for skipping the model evaluation of every settled device.
    double device_bypass_tol = 1e-9;
    /// Campaign-shared symbolic analysis (see spice/symbolic_cache.h):
    /// when set and the sparse backend is active, the kernel adopts
    /// the cached elimination order -- nominal unknowns keep their cached
    /// rank, injected unknowns are appended -- instead of running minimum
    /// degree itself.  Campaigns harvest it from the nominal simulator
    /// (Simulator::symbolic_cache()) and hand it to every faulty variant.
    // manifest-exempt: a runtime acceleration handle, not a knob -- the
    // adopted elimination order changes operation count, not solutions
    // (identity pinned per-device in tests/symbolic_test.cpp), and the
    // pointer value itself is meaningless across processes.
    std::shared_ptr<const SymbolicCache> symbolic_cache;

    // -- per-analysis execution budgets (0 = unlimited) ---------------------
    // A pathological faulty circuit must not grind a campaign worker
    // forever: an iteration cap bounds one Newton solve, but nothing above
    // it bounds the DC strategy ladder, the gmin/source stepping loops or a
    // transient that limps through millions of tiny steps.  Each budget
    // covers one analysis (a tran, an AC sweep, or one dc_op with its
    // whole strategy ladder); exhaustion throws the typed BudgetExceeded
    // below -- a catchable, attributable failure instead of a hang.
    /// Wall-clock deadline per analysis [s] (checked every NR iteration).
    double max_wall_seconds = 0.0;
    /// Total NR iterations per analysis, all solves and strategies summed.
    std::size_t max_nr_total = 0;
    /// Companion steps per transient analysis (accepted solves, not grid
    /// samples: an adaptive stride counts once, like SimStats::tran_steps).
    std::size_t max_tran_steps = 0;
};

/// Typed per-analysis budget exhaustion (SimOptions::max_wall_seconds /
/// max_nr_total / max_tran_steps).  Derives from catlift::Error so every
/// existing per-fault catch already contains it; campaigns distinguish it
/// to drive the retry/degradation ladder.
class BudgetExceeded : public Error {
public:
    explicit BudgetExceeded(const std::string& what) : Error(what) {}
};

/// Counters for performance reporting (the source-model vs resistor-model
/// runtime comparison of the paper reads these).
struct SimStats {
    std::size_t matrix_size = 0;
    std::size_t nr_iterations = 0;
    std::size_t lu_factorizations = 0;
    /// Companion steps actually integrated (one per accepted Newton solve;
    /// an adaptive step spanning k grid intervals counts once).
    std::size_t tran_steps = 0;
    std::size_t step_cuts = 0;
    /// User-grid steps never integrated because a step observer stopped the
    /// transient early (the batch engine's ERASER-style trimmed redundancy).
    std::size_t steps_saved = 0;
    /// Adaptive mode: grid samples filled by interpolation instead of a
    /// solve (the LTE controller's savings), and candidate steps rejected
    /// because the LTE estimate exceeded tolerance.
    std::size_t grid_points_interpolated = 0;
    std::size_t lte_rejections = 0;
    /// AC sweep: frequency points solved, and points skipped because an
    /// AcPointObserver stopped the sweep.
    std::size_t ac_points = 0;
    std::size_t ac_points_saved = 0;
    /// DC: solves that converged directly from a warm start, and NR
    /// iterations saved by warm starting relative to this simulator's most
    /// recent cold solve of the same circuit topology.
    std::size_t warm_start_solves = 0;
    std::size_t nr_saved_warm = 0;
    /// Newton solves that reused the previous factorization outright
    /// (modified-Newton bypass, SimOptions::bypass).
    std::size_t bypass_solves = 0;
    /// Sparse kernel: full factorizations (ordering + fill discovery)
    /// vs numeric refactorizations that replayed the recorded pattern.
    std::size_t sparse_full_factors = 0;
    std::size_t sparse_refactors = 0;
    /// Per-device bypass: MOS companion evaluations actually performed vs
    /// devices whose cached linearization was replayed because their
    /// terminals moved less than bypass_tol.
    std::size_t device_stamps = 0;
    std::size_t device_stamp_skips = 0;
    /// Kernel builds that adopted a campaign-shared symbolic cache
    /// (SimOptions::symbolic_cache) instead of running their own ordering.
    std::size_t symbolic_cache_hits = 0;
    /// Sparse kernel wall-time split: one-time analyses (ordering + fill
    /// discovery, every full factorization) vs pattern-reused numeric
    /// refactorizations, real and complex backends combined.
    double ordering_seconds = 0.0;
    double numeric_seconds = 0.0;
};

struct DcResult {
    bool converged = false;
    /// NR iterations spent on this solve (all strategies attempted).
    int iterations = 0;
    /// Strategy that finally converged: "warm", "nr", "gmin", "source".
    std::string strategy;
    std::map<std::string, double> voltages;
};

/// Observer invoked after every accepted user-grid sample of a transient
/// analysis: receives the sample time and the waveforms recorded so far
/// (the new sample is the last row).  Returning false stops the analysis
/// at that sample; the truncated waveforms are returned and the skipped
/// user-grid steps are counted in SimStats::steps_saved.  Fault campaigns
/// use this to abort a faulty run at the first confirmed detection.
using StepObserver = std::function<bool(double t, const Waveforms& wf)>;

/// Observer invoked after every solved frequency point of an AC sweep:
/// receives the point's frequency and the partial AcResult (the new point
/// is the last one).  Returning false stops the sweep; the remaining
/// points are counted in SimStats::ac_points_saved.  The AC fault campaign
/// uses this to abort a faulty sweep at the first dB-tolerance violation.
using AcPointObserver = std::function<bool(double f, const AcResult& partial)>;

/// Observer invoked after every level of a DC transfer sweep: receives the
/// level and its DcResult.  Returning false stops the sweep; dc_sweep
/// returns the levels solved so far.
using DcSweepObserver = std::function<bool(double level, const DcResult& r)>;

/// DC transfer sweep: re-solve the operating point for each level of one
/// source.  A single simulator is reused and every level after the first
/// is warm-started from the previous level's solution (iterations saved
/// are counted in SimStats::nr_saved_warm, readable via `stats`).  Returns
/// one DcResult per level, in order; a stopping observer truncates the
/// returned vector at the level it rejected.
std::vector<DcResult> dc_sweep(const netlist::Circuit& ckt,
                               const std::string& source,
                               const std::vector<double>& levels,
                               const SimOptions& opt = {},
                               const DcSweepObserver& observer = {},
                               SimStats* stats = nullptr);

/// One-shot simulator bound to a circuit.  The circuit is copied: the
/// simulator stays valid independently of the caller's object lifetime
/// (fault campaigns hand in short-lived mutated circuits).
class Simulator {
public:
    explicit Simulator(netlist::Circuit ckt, SimOptions opt = {});

    /// DC operating point (cold start).
    DcResult dc_op();

    /// DC operating point warm-started from a nearby solution (node name ->
    /// voltage; missing nodes start at 0).  Plain NR from the warm point is
    /// tried first; on failure the cold strategy ladder runs unchanged.
    DcResult dc_op(const std::map<std::string, double>& initial);

    /// Overwrite the DC value of one independent source (the level knob of
    /// a warm-started DC sweep).  Throws if `name` is not a V/I source.
    void set_source_dc(const std::string& name, double value);

    /// Transient analysis.  Returns waveforms for every node (plus the
    /// requested traces), sampled on the user grid t = tstart..tstop step
    /// tstep.  Throws catlift::Error if the analysis cannot proceed.
    Waveforms tran(const netlist::TranSpec& spec);

    /// Transient analysis with a per-accepted-step observer (may be empty).
    Waveforms tran(const netlist::TranSpec& spec,
                   const StepObserver& observer);

    /// Convenience: run the circuit's own .tran card.
    Waveforms tran();

    /// Small-signal AC analysis: linearise at the DC operating point and
    /// sweep the frequency axis logarithmically.  Sources participate with
    /// their `ac_mag`.  Throws if the operating point cannot be found.
    AcResult ac(const AcSpec& spec);

    /// AC analysis with a per-frequency-point observer (may be empty).
    AcResult ac(const AcSpec& spec, const AcPointObserver& observer);

    /// Convenience: run the circuit's own .ac card.
    AcResult ac();

    const SimStats& stats() const { return stats_; }

    /// Number of MNA unknowns (nodes + voltage-source branches).  The source
    /// fault model grows this; the resistor model does not.
    std::size_t unknowns() const { return n_nodes_ + n_branches_; }

    /// Harvest the campaign-shared symbolic analysis from this simulator:
    /// the elimination rank of every unknown under the recorded sparse
    /// pivot order, keyed by name.  Returns nullptr when the kernel is
    /// dense or no sparse factorization has happened yet (run the nominal
    /// analysis first).  The cache is immutable; hand it to the faulty
    /// variants through SimOptions::symbolic_cache.
    std::shared_ptr<const SymbolicCache> symbolic_cache() const;

private:
    struct MosInstance {
        std::size_t dev;        // index into circuit devices
        int d, g, s;            // node indices (-1 = ground)
        double w, l;
        const netlist::MosModel* model;
        // Stamp sites (indices into sites_/slot_lut_; -1 = grounded pair):
        // the 3x3 conductance block minus the gate row, which never
        // receives current.
        int s_dd = -1, s_dg = -1, s_ds = -1;
        int s_sd = -1, s_sg = -1, s_ss = -1;
        // Cached linearization (per-device bypass): the stamp values this
        // device contributed last time it was evaluated, with the swap
        // (reverse operation) already resolved into effective rows/sites,
        // and the terminal voltages they were computed at.  While every
        // terminal stays within bypass_tol of the snapshot the cached
        // values are replayed in the same add order -- no model
        // evaluation; a fresh evaluation refreshes the cache.
        bool lin_valid = false;
        double lin_vd = 0.0, lin_vg = 0.0, lin_vs = 0.0;
        int c_dd = -1, c_dg = -1, c_ds = -1;  // effective drain-row sites
        int c_ss = -1, c_sg = -1, c_sd = -1;  // effective source-row sites
        int ed = -1, es = -1;                 // effective drain/source rows
        double g_dd = 0.0, g_dg = 0.0, g_ds = 0.0;
        double g_ss = 0.0, g_sg = 0.0, g_sd = 0.0;
        double ieq = 0.0;
    };
    struct CapInstance {
        int n1, n2;     // node indices (-1 = ground)
        double c;
        double v_prev = 0.0;  // branch voltage at previous accepted step
        double i_prev = 0.0;  // branch current at previous accepted step
        int s_11 = -1, s_22 = -1, s_12 = -1, s_21 = -1;  // geq / jwC sites
    };
    struct ResInstance {
        int n1, n2;
        double g;
        int s_11 = -1, s_22 = -1, s_12 = -1, s_21 = -1;
    };
    struct ISrcInstance {
        std::size_t dev;
        int np, nm;
    };
    struct VSrcInstance {
        std::size_t dev;
        int np, nm;
        std::size_t row;  // branch row index (n_nodes_ + branch)
        int s_pb = -1, s_bp = -1, s_mb = -1, s_bm = -1;  // +/-1 incidence
    };

    /// Key of the cached static stamp: everything the static value array
    /// depends on besides topology.
    struct StaticKey {
        bool valid = false;
        bool dc = false;
        double h = 0.0;
        double extra_gmin = 0.0;
        Method method = Method::Trapezoidal;
        bool matches(bool dc_, double h_, double eg, Method m) const {
            return valid && dc == dc_ && h == h_ && extra_gmin == eg &&
                   method == m;
        }
    };

    int node_id(const std::string& name) const;  // -1 for ground
    double volt(const std::vector<double>& x, int node) const {
        return node < 0 ? 0.0 : x[static_cast<std::size_t>(node)];
    }

    /// Register a stamp site (row, col); returns its site index, or -1 if
    /// either index is negative (grounded terminal).
    int add_site(int r, int c);
    /// One-time structural pass: resolve every device's stamp sites, pick
    /// the dense/sparse backend, and build the slot lookup table.
    void build_kernel();

    /// Rebuild the static value array (resistors, source incidence, gmin,
    /// capacitor geq at stepsize h under `method`) if the key changed
    /// since the last build.  Invalidates the bypass linearization.
    void ensure_static(bool dc, double h, double extra_gmin, Method method);
    /// Per-solve right-hand side base: independent sources at (t,
    /// src_scale) and capacitor companion history currents.
    void build_rhs_base(bool dc, double h, double t, double src_scale,
                        Method method);
    /// Per-iteration dynamic stamp: memcpy static -> work values, then the
    /// MOS companions at candidate x (matrix part into the work array, the
    /// companion currents into rhs_mos_).  Devices whose terminals stayed
    /// within bypass_tol of their cached linearization replay the cached
    /// stamp instead of re-evaluating (per-device bypass); `fresh` forces
    /// every device to re-evaluate (the AC setup needs the exact Jacobian
    /// at the operating point).
    void stamp_dynamic(const std::vector<double>& x, bool fresh = false);
    /// True when this device's terminals moved beyond `tol` since its
    /// cached linearization.
    bool device_moved(const MosInstance& m, const std::vector<double>& x,
                      double tol) const;
    /// True when the bypass conditions hold at candidate x (see
    /// SimOptions::bypass): valid factorization, unchanged static key, and
    /// an empty dirty-device set.
    bool can_bypass(const std::vector<double>& x) const;
    /// Elimination order the symbolic cache implies for this circuit's
    /// unknowns.  Empty -- meaning the kernel runs its own ordering --
    /// when the cache covers at most half of the unknowns (a cache from a
    /// different circuit must not degrade the ordering to index order).
    std::vector<int> cache_order() const;
    /// Name of MNA unknown i, the symbolic-cache key.
    std::string unknown_name(std::size_t i) const;
    /// Copy the sparse backends' time split into stats_.
    void sync_sparse_timers();
    /// Snapshot stats_ as the base of a new analysis window and arm the
    /// per-analysis execution budgets against it.
    void begin_analysis();
    /// Throw BudgetExceeded when any armed budget is exhausted relative to
    /// the current analysis window.  Called once per NR iteration (which
    /// covers the wall clock everywhere a solve loops) and once per
    /// accepted transient step; a no-op bool test when budgets are off.
    void check_budget();
    /// Factor the work values on the active backend.
    bool factor_work();
    /// Solve the factored system for rhs_ into x_new_.
    void solve_work();

    /// Newton loop at fixed (h, t), each node's update clamped to
    /// `dv_limit` volts per iteration, capacitors integrated with
    /// `method`.  Returns true on convergence; x is updated in place.
    bool newton(std::vector<double>& x, double h, double t, bool dc,
                double src_scale, double extra_gmin, double dv_limit,
                Method method);

    /// Shared DC solve: warm NR first when `warm` is non-null, then the
    /// cold strategy ladder.
    DcResult dc_op_impl(const std::vector<double>* warm);

    /// Worst-node LTE ratio of a candidate step x_old -> x_new over dt,
    /// against the linear predictor through (x_prev, x_old) spaced h_prev
    /// apart.  <= 1 accepts; < 1/4 lets the stride grow.
    double lte_ratio(const std::vector<double>& x_prev, double h_prev,
                     const std::vector<double>& x_old,
                     const std::vector<double>& x_new, double dt) const;

    /// Commit capacitor history after an accepted `method` step.
    void update_cap_history(const std::vector<double>& x, double h,
                            Method method);

    netlist::Circuit ckt_;  ///< owned copy (see constructor note)
    const SimOptions opt_;  ///< read-only: no analysis writes an option
    SimStats stats_;
    /// NR iterations of the most recent cold DC solve; the baseline that
    /// values warm-started solves (SimStats::nr_saved_warm).
    std::size_t last_cold_nr_ = 0;

    std::vector<std::string> node_names_;           // index -> name
    std::map<std::string, std::size_t> node_index_;  // name -> index
    std::size_t n_nodes_ = 0;
    std::size_t n_branches_ = 0;                     // V-source currents
    std::vector<std::size_t> vsource_devs_;          // device idx per branch
    std::vector<MosInstance> mos_;
    mutable std::vector<CapInstance> caps_;  // history mutated across steps
    std::vector<ResInstance> res_;
    std::vector<ISrcInstance> isrc_;
    std::vector<VSrcInstance> vsrc_;

    // -- kernel (stamp split + backends), built once by build_kernel() ------
    bool sparse_ = false;              ///< backend: sparse above threshold
    std::vector<std::pair<int, int>> sites_;  ///< stamp positions (r, c)
    std::vector<int> slot_lut_;        ///< site -> value-array slot
    std::size_t vals_size_ = 0;        ///< dense: n*n; sparse: pattern nnz
    std::vector<int> preorder_cols_;   ///< symbolic-cache elimination order

    Matrix a_static_, a_work_;         ///< dense backend value arrays
    LuSolver lu_;
    std::vector<double> svals_static_, svals_work_;  ///< sparse backend
    SparseLu<double> slu_;

    StaticKey static_key_;             ///< what the static array was built for
    bool jac_valid_ = false;           ///< bypass factorization available
    StaticKey jac_key_;                ///< static key the Jacobian sits on
    std::vector<double> rhs_base_;     ///< per-solve source + cap rhs
    std::vector<double> rhs_mos_;      ///< MOS companion currents (cached
                                       ///< per-device linearizations)
    std::vector<double> rhs_, x_new_, x_try_, row_buf_;  ///< hot-path buffers
    SimStats analysis_base_;           ///< stats_ at the last analysis start
    bool budget_armed_ = false;        ///< any execution budget nonzero
    std::chrono::steady_clock::time_point budget_t0_;  ///< analysis start

    // Complex (AC) backend state, built lazily on the first ac() call.
    bool ac_kernel_ready_ = false;
    CMatrix ca_work_;
    CLuSolver clu_;
    std::vector<std::complex<double>> cvals_work_;
    SparseLu<std::complex<double>> cslu_;
};

} // namespace catlift::spice
