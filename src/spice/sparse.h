// catlift/spice/sparse.h
//
// Sparse LU for the MNA system, generic over the scalar (double for the
// DC/transient path, complex<double> for the AC sweep).  The design is the
// classic circuit-simulator split pioneered by Sparse 1.3 / KLU:
//
//   * analyze()      -- one-time: dedup the stamp positions into a CSC
//                       pattern and hand every stamp site a value slot.
//   * full factor    -- first numeric factorization: a fill-reducing
//                       minimum-degree preordering (quotient-graph MD with
//                       element absorption and a dense-row cutoff -- the
//                       AMD family) computed once on the symmetrized
//                       pattern, then a Gilbert-Peierls left-looking
//                       factorization with row partial pivoting along that
//                       column order: symbolic reach by DFS, O(flops)
//                       total.  It records the row/column pivot sequence
//                       and the complete fill pattern of L and U.  The MD
//                       run can be skipped entirely by handing in a
//                       precomputed column order (set_preorder) -- the
//                       campaign-shared symbolic cache: faulty variants of
//                       a nominal circuit perturb the pattern only
//                       locally, so the nominal ordering patched with the
//                       injected unknowns at the end is reused across the
//                       whole campaign.  Under row partial pivoting step
//                       k finds no pivot above the floor only when the
//                       first k columns of the order are dependent to
//                       within that floor: the matrix is singular, no
//                       other column order would find one, and a failure
//                       is final.
//   * refactor       -- every later factorization of the *same pattern*
//                       replays the recorded pivot order left-looking over
//                       the fixed fill pattern: no searching, no ordering,
//                       no allocation -- just the O(flops) arithmetic.
//                       Consecutive pivot columns with nested L patterns
//                       are grouped into column supernodes at record time;
//                       the replay applies each supernode's updates through
//                       dense inner loops (a small dense triangular solve
//                       plus a dense accumulate over the shared row list,
//                       scattered once) instead of one scatter per column.
//                       A pivot falling below the floor (the values drifted
//                       far from the ones that chose the ordering) falls
//                       back to a fresh full factorization transparently.
//
// MNA matrices carry structural zero diagonals on every voltage-source
// branch row, so the factorization must pivot; threshold pivoting keeps
// the pivots sound while preferring the diagonal to keep the fill small.
// The engine drives this through engine.cpp's stamp-pointer lists: the
// Newton hot path memcpys the static value array, adds the per-iteration
// device stamps, and calls factor() -- which lands in the cheap refactor
// path every time after the first solve of a given topology.

#pragma once

#include "geom/base.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

namespace catlift::spice {

template <typename T>
class SparseLu {
public:
    /// Define the n x n pattern from stamp positions (duplicates allowed
    /// and expected -- every device terminal pair stamps independently).
    /// Returns one value-slot index per input entry; duplicate positions
    /// share a slot.  Value arrays passed to factor() hold nnz() values in
    /// the slot order defined here.  Invalidates any previous
    /// factorization.
    std::vector<int> analyze(std::size_t n,
                             const std::vector<std::pair<int, int>>& entries) {
        require(n > 0, "SparseLu::analyze: empty system");
        n_ = n;
        have_pattern_ = false;
        have_factor_ = false;

        // Dedup into column-major order.
        std::vector<std::pair<int, int>> uniq = entries;  // (col, row)
        for (auto& e : uniq) std::swap(e.first, e.second);
        std::sort(uniq.begin(), uniq.end());
        uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

        col_ptr_.assign(n_ + 1, 0);
        row_ind_.clear();
        row_ind_.reserve(uniq.size());
        for (const auto& [c, r] : uniq) {
            require(r >= 0 && c >= 0 && static_cast<std::size_t>(r) < n_ &&
                        static_cast<std::size_t>(c) < n_,
                    "SparseLu::analyze: entry out of range");
            row_ind_.push_back(r);
            ++col_ptr_[static_cast<std::size_t>(c) + 1];
        }
        for (std::size_t c = 0; c < n_; ++c) col_ptr_[c + 1] += col_ptr_[c];

        // Slot of an entry = its rank in the dedup'd column-major order.
        std::vector<int> slots;
        slots.reserve(entries.size());
        for (const auto& [r, c] : entries) {
            const auto it = std::lower_bound(uniq.begin(), uniq.end(),
                                             std::make_pair(c, r));
            slots.push_back(static_cast<int>(it - uniq.begin()));
        }
        have_pattern_ = true;
        return slots;
    }

    std::size_t size() const { return n_; }
    std::size_t nnz() const { return row_ind_.size(); }

    /// Hand the full factorization a precomputed column elimination order
    /// (the campaign-shared symbolic cache) instead of running minimum
    /// degree.  `cols[k]` is the original column eliminated at step k;
    /// must be a permutation of 0..n-1 matching the analyzed pattern.  An
    /// empty vector clears the preorder.
    void set_preorder(std::vector<int> cols) {
        if (!cols.empty()) {
            require(cols.size() == n_,
                    "SparseLu::set_preorder: order size mismatch");
            std::vector<char> seen(n_, 0);
            for (int c : cols) {
                require(c >= 0 && static_cast<std::size_t>(c) < n_ &&
                            !seen[static_cast<std::size_t>(c)],
                        "SparseLu::set_preorder: not a permutation");
                seen[static_cast<std::size_t>(c)] = 1;
            }
        }
        preorder_ = std::move(cols);
        have_factor_ = false;
    }

    /// Numeric factorization of `vals` (slot order from analyze()).
    /// Reuses the recorded pivot order and fill pattern when one exists;
    /// falls back to a full factorization the first time or when a reused
    /// pivot degrades below `pivot_floor`.  Returns false only if the
    /// matrix is singular beyond the floor.
    bool factor(const std::vector<T>& vals, double pivot_floor = 1e-18) {
        require(have_pattern_, "SparseLu::factor before analyze()");
        require(vals.size() == nnz(), "SparseLu::factor: value count mismatch");
        if (have_factor_) {
            const auto t0 = std::chrono::steady_clock::now();
            const bool ok = refactor(vals, pivot_floor);
            numeric_seconds_ += seconds_since(t0);
            if (ok) {
                ++refactors_;
                return true;
            }
        }
        have_factor_ = false;
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok = full_factor(vals, pivot_floor);
        ordering_seconds_ += seconds_since(t0);
        if (!ok) return false;
        build_supernodes();
        have_factor_ = true;
        ++full_factors_;
        return true;
    }

    /// In-place solve Ax=b (b becomes x); factor() must have succeeded.
    void solve(std::vector<T>& b) const {
        require(have_factor_, "SparseLu::solve without a successful factor()");
        require(b.size() == n_, "SparseLu::solve: rhs size mismatch");
        scratch_.resize(n_);
        // Forward substitution, L unit-diagonal, column-oriented.
        for (std::size_t k = 0; k < n_; ++k)
            scratch_[k] = b[static_cast<std::size_t>(pr_[k])];
        for (std::size_t k = 0; k < n_; ++k) {
            const T yk = scratch_[k];
            if (yk == T{}) continue;
            for (int p = l_ptr_[k]; p < l_ptr_[k + 1]; ++p)
                scratch_[static_cast<std::size_t>(l_row_[p])] -= yk * l_val_[p];
        }
        // Back substitution, column-oriented.
        for (std::size_t j = n_; j-- > 0;) {
            const T xj = scratch_[j] / diag_[j];
            scratch_[j] = xj;
            if (xj == T{}) continue;
            for (int p = u_ptr_[j]; p < u_ptr_[j + 1]; ++p)
                scratch_[static_cast<std::size_t>(u_row_[p])] -= xj * u_val_[p];
        }
        for (std::size_t j = 0; j < n_; ++j)
            b[static_cast<std::size_t>(pc_[j])] = scratch_[j];
    }

    /// Convenience for tests: out-of-place solve.
    std::vector<T> solve_copy(const std::vector<T>& b) const {
        std::vector<T> x = b;
        solve(x);
        return x;
    }

    /// Full (ordering + pivoting) factorizations performed.
    std::size_t full_factors() const { return full_factors_; }
    /// Numeric refactorizations that reused the recorded pattern.
    std::size_t refactors() const { return refactors_; }
    /// Nonzeros in L + U (fill included); 0 before the first factor.
    std::size_t factor_nnz() const {
        return l_row_.size() + u_row_.size() + (have_factor_ ? n_ : 0);
    }
    /// Column supernodes of the recorded factor (0 before the first one).
    std::size_t supernodes() const { return sn_end_.size(); }
    /// Original column eliminated at each pivot step (empty before the
    /// first factor) -- the ordering a SymbolicCache shares across a
    /// campaign.
    std::vector<int> column_order() const {
        return have_factor_ ? pc_ : std::vector<int>{};
    }
    /// Wall time spent in one-time analyses (ordering + fill discovery,
    /// i.e. every full factorization) vs in pattern-reused numeric
    /// refactorizations.
    double ordering_seconds() const { return ordering_seconds_; }
    double numeric_seconds() const { return numeric_seconds_; }

private:
    static double mag(const T& v) { return std::abs(v); }
    static double seconds_since(
        const std::chrono::steady_clock::time_point& t0) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

    /// Minimum-degree ordering on the symmetrized pattern: quotient graph
    /// with element absorption (the AMD family, without supervariable
    /// compression).  Variables whose initial degree exceeds a dense-row
    /// cutoff (supply rails touch every cell) are postponed and appended
    /// last -- the standard dense-row treatment that keeps the update loop
    /// near-linear for circuit graphs.
    std::vector<int> min_degree_order() const {
        const int n = static_cast<int>(n_);
        std::vector<std::vector<int>> adj(n_);
        for (std::size_t c = 0; c < n_; ++c)
            for (int p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
                const int r = row_ind_[p];
                if (r == static_cast<int>(c)) continue;
                adj[static_cast<std::size_t>(r)].push_back(
                    static_cast<int>(c));
                adj[c].push_back(r);
            }
        for (auto& a : adj) {
            std::sort(a.begin(), a.end());
            a.erase(std::unique(a.begin(), a.end()), a.end());
        }

        const std::size_t cutoff = std::max<std::size_t>(
            16, 10 * static_cast<std::size_t>(std::sqrt(
                         static_cast<double>(n_))));
        // state: 0 = active, 1 = eliminated, 2 = postponed (dense).
        std::vector<char> state(n_, 0);
        std::vector<int> postponed;
        for (int v = 0; v < n; ++v)
            if (adj[static_cast<std::size_t>(v)].size() >= cutoff) {
                state[static_cast<std::size_t>(v)] = 2;
                postponed.push_back(v);
            }
        for (auto& a : adj)
            a.erase(std::remove_if(a.begin(), a.end(),
                                   [&](int u) {
                                       return state[static_cast<std::size_t>(
                                                  u)] == 2;
                                   }),
                    a.end());

        // Buckets keyed by (approximate) degree, with intrusive lists.
        std::vector<int> head(n_ + 1, -1), nxt(n_, -1), prv(n_, -1),
            deg(n_, 0);
        auto bucket_remove = [&](int v) {
            const auto vi = static_cast<std::size_t>(v);
            if (prv[vi] >= 0)
                nxt[static_cast<std::size_t>(prv[vi])] = nxt[vi];
            else
                head[static_cast<std::size_t>(deg[vi])] = nxt[vi];
            if (nxt[vi] >= 0)
                prv[static_cast<std::size_t>(nxt[vi])] = prv[vi];
            nxt[vi] = prv[vi] = -1;
        };
        auto bucket_insert = [&](int v, int d) {
            const auto vi = static_cast<std::size_t>(v);
            deg[vi] = d;
            prv[vi] = -1;
            nxt[vi] = head[static_cast<std::size_t>(d)];
            if (nxt[vi] >= 0)
                prv[static_cast<std::size_t>(nxt[vi])] = v;
            head[static_cast<std::size_t>(d)] = v;
        };
        int active = 0;
        for (int v = 0; v < n; ++v)
            if (state[static_cast<std::size_t>(v)] == 0) {
                bucket_insert(v,
                              static_cast<int>(
                                  adj[static_cast<std::size_t>(v)].size()));
                ++active;
            }

        // Quotient graph: element id = its pivot variable.
        std::vector<std::vector<int>> elem(n_);   // element -> boundary
        std::vector<std::vector<int>> velem(n_);  // variable -> elements
        std::vector<char> elem_alive(n_, 0);
        std::vector<int> mark(n_, -1);
        int stamp = 0;

        std::vector<int> order;
        order.reserve(n_);
        std::vector<int> boundary;
        int mindeg = 0;
        for (int k = 0; k < active; ++k) {
            while (mindeg <= n && head[static_cast<std::size_t>(mindeg)] < 0)
                ++mindeg;
            const int p = head[static_cast<std::size_t>(mindeg)];
            bucket_remove(p);
            const auto pi = static_cast<std::size_t>(p);
            state[pi] = 1;
            order.push_back(p);

            // Boundary of the new element: adj(p) plus the boundaries of
            // every element p touches, minus eliminated variables.
            ++stamp;
            mark[pi] = stamp;
            boundary.clear();
            auto absorb = [&](int v) {
                const auto vi = static_cast<std::size_t>(v);
                if (state[vi] == 0 && mark[vi] != stamp) {
                    mark[vi] = stamp;
                    boundary.push_back(v);
                }
            };
            for (int v : adj[pi]) absorb(v);
            for (int e : velem[pi]) {
                const auto ei = static_cast<std::size_t>(e);
                if (!elem_alive[ei]) continue;
                for (int v : elem[ei]) absorb(v);
                elem_alive[ei] = 0;  // absorbed into the new element
                elem[ei].clear();
                elem[ei].shrink_to_fit();
            }
            adj[pi].clear();
            adj[pi].shrink_to_fit();
            velem[pi].clear();
            elem[pi] = boundary;
            elem_alive[pi] = !boundary.empty();

            for (int v : boundary) {
                const auto vi = static_cast<std::size_t>(v);
                // Original edges now covered by the element are pruned, as
                // are edges to the pivot itself (mark covers both).
                auto& av = adj[vi];
                av.erase(std::remove_if(av.begin(), av.end(),
                                        [&](int u) {
                                            const auto ui =
                                                static_cast<std::size_t>(u);
                                            return mark[ui] == stamp ||
                                                   state[ui] != 0;
                                        }),
                         av.end());
                auto& ev = velem[vi];
                ev.erase(std::remove_if(ev.begin(), ev.end(),
                                        [&](int e) {
                                            return !elem_alive
                                                [static_cast<std::size_t>(e)];
                                        }),
                         ev.end());
                ev.push_back(p);
                // Approximate external degree (AMD-style upper bound).
                std::size_t d = av.size();
                for (int e : ev)
                    d += elem[static_cast<std::size_t>(e)].size() - 1;
                const int dn = static_cast<int>(
                    std::min<std::size_t>(d, n_ - order.size()));
                bucket_remove(v);
                bucket_insert(v, dn);
                if (dn < mindeg) mindeg = dn;
            }
        }
        for (int v : postponed) order.push_back(v);
        return order;
    }

    /// Gilbert-Peierls left-looking factorization along a fixed column
    /// order (the preorder when set, minimum degree otherwise) with row
    /// partial pivoting: per column a DFS through the L pattern discovers
    /// the fill, a sparse triangular solve computes the values, and the
    /// pivot row is the diagonal when it is within threshold of the
    /// column max.  O(flops + symbolic), no dynamic structures.
    bool full_factor(const std::vector<T>& vals, double pivot_floor) {
        constexpr double kDiagTau = 0.1;  // diagonal preference threshold
        const std::vector<int>& corder =
            preorder_.empty() ? (md_order_ = min_degree_order()) : preorder_;

        std::vector<int> pinv(n_, -1);  // row -> pivot step
        pr_.assign(n_, -1);
        pc_.assign(n_, -1);
        diag_.assign(n_, T{});
        std::vector<std::vector<int>> lrows(n_);         // step -> orig rows
        std::vector<std::vector<T>> lvals(n_);           // step -> values
        std::vector<std::vector<std::pair<int, T>>> u_cols(n_);

        std::vector<T> x(n_, T{});
        std::vector<int> visited(n_, -1);
        std::vector<int> stack, cursor, topo;
        stack.reserve(n_);
        cursor.reserve(n_);
        topo.reserve(n_);

        for (std::size_t k = 0; k < n_; ++k) {
            const int c = corder[k];
            const auto cu = static_cast<std::size_t>(c);

            // Symbolic: reach of the column's pattern in the L graph,
            // emitted in postorder (reverse topological).
            topo.clear();
            for (int p = col_ptr_[cu]; p < col_ptr_[cu + 1]; ++p) {
                int r = row_ind_[p];
                if (visited[static_cast<std::size_t>(r)] ==
                    static_cast<int>(k))
                    continue;
                stack.clear();
                cursor.clear();
                visited[static_cast<std::size_t>(r)] = static_cast<int>(k);
                stack.push_back(r);
                cursor.push_back(0);
                while (!stack.empty()) {
                    const int node = stack.back();
                    const int step = pinv[static_cast<std::size_t>(node)];
                    bool descended = false;
                    if (step >= 0) {
                        const auto& lr = lrows[static_cast<std::size_t>(step)];
                        int& cur = cursor.back();
                        while (cur < static_cast<int>(lr.size())) {
                            const int child =
                                lr[static_cast<std::size_t>(cur++)];
                            if (visited[static_cast<std::size_t>(child)] !=
                                static_cast<int>(k)) {
                                visited[static_cast<std::size_t>(child)] =
                                    static_cast<int>(k);
                                stack.push_back(child);
                                cursor.push_back(0);
                                descended = true;
                                break;
                            }
                        }
                    }
                    if (!descended) {
                        topo.push_back(node);
                        stack.pop_back();
                        cursor.pop_back();
                    }
                }
            }

            // Numeric: scatter the column, then the sparse triangular
            // solve in topological (reverse postorder) order.
            for (int p = col_ptr_[cu]; p < col_ptr_[cu + 1]; ++p)
                x[static_cast<std::size_t>(row_ind_[p])] =
                    vals[static_cast<std::size_t>(p)];
            for (std::size_t t = topo.size(); t-- > 0;) {
                const int r = topo[t];
                const int step = pinv[static_cast<std::size_t>(r)];
                if (step < 0) continue;
                const T xi = x[static_cast<std::size_t>(r)];
                u_cols[k].emplace_back(step, xi);
                if (xi == T{}) continue;
                const auto& lr = lrows[static_cast<std::size_t>(step)];
                const auto& lv = lvals[static_cast<std::size_t>(step)];
                for (std::size_t q = 0; q < lr.size(); ++q)
                    x[static_cast<std::size_t>(lr[q])] -= xi * lv[q];
            }

            // Pivot: the diagonal row when it is sound, the column max
            // otherwise.
            double maxmag = 0.0;
            int prow = -1;
            for (const int r : topo) {
                if (pinv[static_cast<std::size_t>(r)] >= 0) continue;
                const double m = mag(x[static_cast<std::size_t>(r)]);
                if (m > maxmag) {
                    maxmag = m;
                    prow = r;
                }
            }
            if (prow < 0 || maxmag < pivot_floor) {
                for (const int r : topo) x[static_cast<std::size_t>(r)] = T{};
                return false;
            }
            if (pinv[cu] < 0 && mag(x[cu]) >= kDiagTau * maxmag &&
                mag(x[cu]) >= pivot_floor)
                prow = c;

            const T d = x[static_cast<std::size_t>(prow)];
            pr_[k] = prow;
            pc_[k] = c;
            pinv[static_cast<std::size_t>(prow)] = static_cast<int>(k);
            diag_[k] = d;
            for (const int r : topo) {
                const auto ru = static_cast<std::size_t>(r);
                if (pinv[ru] >= 0 || r == prow) {
                    // U entries were consumed above; pivot handled here.
                    if (pinv[ru] >= 0) x[ru] = T{};
                    continue;
                }
                lrows[k].push_back(r);
                lvals[k].push_back(x[ru] / d);
                x[ru] = T{};
            }
            x[static_cast<std::size_t>(prow)] = T{};
        }

        // Remap L rows to pivot-step space and pack the factor storage.
        std::vector<int> row_step(n_);
        for (std::size_t k = 0; k < n_; ++k)
            row_step[static_cast<std::size_t>(pr_[k])] = static_cast<int>(k);
        std::vector<std::vector<std::pair<int, T>>> l_cols(n_);
        for (std::size_t k = 0; k < n_; ++k) {
            l_cols[k].reserve(lrows[k].size());
            for (std::size_t q = 0; q < lrows[k].size(); ++q)
                l_cols[k].emplace_back(
                    row_step[static_cast<std::size_t>(lrows[k][q])],
                    lvals[k][q]);
        }
        finish_factor(u_cols, l_cols, row_step);
        return true;
    }

    /// Pack the recorded U/L columns into CSC storage (rows ascending --
    /// the replay and the supernode detection both rely on it) and
    /// precompute the refactor's scatter map.
    void finish_factor(std::vector<std::vector<std::pair<int, T>>>& u_cols,
                       std::vector<std::vector<std::pair<int, T>>>& l_cols,
                       const std::vector<int>& row_step) {
        pack(u_cols, u_ptr_, u_row_, u_val_);
        pack(l_cols, l_ptr_, l_row_, l_val_);

        scatter_step_.resize(nnz());
        for (std::size_t p = 0; p < nnz(); ++p)
            scatter_step_[p] = row_step[static_cast<std::size_t>(row_ind_[p])];
        work_.assign(n_, T{});
    }

    /// Group consecutive pivot columns with nested L patterns into column
    /// supernodes: columns [s, e) form one when each column's pattern is
    /// the next pivot row plus the following column's pattern -- i.e. a
    /// full dense triangle over [s, e) on top of one shared below-row
    /// list.  The refactor replays a supernode's updates through dense
    /// inner loops.
    void build_supernodes() {
        sn_of_.assign(n_, 0);
        sn_end_.clear();
        std::size_t max_below = 0;
        std::size_t s = 0;
        while (s < n_) {
            std::size_t e = s + 1;
            while (e < n_ && columns_merge(e - 1, e)) ++e;
            const int id = static_cast<int>(sn_end_.size());
            for (std::size_t j = s; j < e; ++j) sn_of_[j] = id;
            sn_end_.push_back(static_cast<int>(e));
            max_below = std::max(
                max_below,
                static_cast<std::size_t>(l_ptr_[e] - l_ptr_[e - 1]));
            s = e;
        }
        acc_.assign(max_below, T{});
    }

    bool columns_merge(std::size_t j, std::size_t j1) const {
        const int cj = l_ptr_[j + 1] - l_ptr_[j];
        const int cj1 = l_ptr_[j1 + 1] - l_ptr_[j1];
        if (cj != cj1 + 1) return false;
        if (l_row_[l_ptr_[j]] != static_cast<int>(j1)) return false;
        return std::equal(l_row_.begin() + l_ptr_[j] + 1,
                          l_row_.begin() + l_ptr_[j + 1],
                          l_row_.begin() + l_ptr_[j1]);
    }

    /// Left-looking numeric replay over the recorded pattern and pivot
    /// order.  No searching, no fill discovery, no allocation.  Updates
    /// from the columns of one supernode are applied through dense inner
    /// loops: the structural suffix property (an update entering a
    /// supernode fills every later column of it) makes the group's U
    /// entries consecutive, so the triangle runs as a small dense forward
    /// solve and the shared below-rows accumulate densely and scatter
    /// once.
    bool refactor(const std::vector<T>& vals, double pivot_floor) {
        for (std::size_t j = 0; j < n_; ++j) {
            // Scatter original column pc_[j] into pivot-step space.
            const auto c = static_cast<std::size_t>(pc_[j]);
            for (int p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p)
                work_[static_cast<std::size_t>(scatter_step_[p])] =
                    vals[static_cast<std::size_t>(p)];
            // Apply updates from earlier columns (U pattern is ascending).
            const int pend = u_ptr_[j + 1];
            int p = u_ptr_[j];
            while (p < pend) {
                const int i = u_row_[p];
                const int e = sn_end_[static_cast<std::size_t>(
                    sn_of_[static_cast<std::size_t>(i)])];
                int g = e - i;  // supernode suffix length
                if (g > pend - p) g = pend - p;
                bool contiguous = g > 1;
                for (int t = 1; contiguous && t < g; ++t)
                    contiguous = u_row_[p + t] == i + t;
                if (!contiguous) {
                    // Scalar column update.
                    const auto iu = static_cast<std::size_t>(i);
                    const T u = work_[iu];
                    u_val_[p] = u;
                    work_[iu] = T{};
                    if (u != T{})
                        for (int q = l_ptr_[iu]; q < l_ptr_[iu + 1]; ++q)
                            work_[static_cast<std::size_t>(l_row_[q])] -=
                                u * l_val_[q];
                    ++p;
                    continue;
                }
                // Supernode block: dense triangle solve + dense
                // accumulate over the shared below rows, one scatter.
                const int lpe = l_ptr_[e - 1];
                const int m = l_ptr_[e] - lpe;  // shared below rows
                for (int r = 0; r < m; ++r) acc_[static_cast<std::size_t>(r)] =
                    T{};
                for (int t = 0; t < g; ++t) {
                    const auto it = static_cast<std::size_t>(i + t);
                    const T u = work_[it];
                    u_val_[p + t] = u;
                    work_[it] = T{};
                    if (u == T{}) continue;
                    const int lp = l_ptr_[it];
                    const int tri = e - 1 - static_cast<int>(it);
                    for (int q = 0; q < tri; ++q)
                        work_[static_cast<std::size_t>(l_row_[lp + q])] -=
                            u * l_val_[lp + q];
                    const int base = lp + tri;
                    for (int r = 0; r < m; ++r)
                        acc_[static_cast<std::size_t>(r)] +=
                            u * l_val_[base + r];
                }
                for (int r = 0; r < m; ++r)
                    work_[static_cast<std::size_t>(l_row_[lpe + r])] -=
                        acc_[static_cast<std::size_t>(r)];
                p += g;
            }
            const T d = work_[j];
            work_[j] = T{};
            if (mag(d) < pivot_floor) {
                // Clear the remaining touched entries before bailing out.
                for (int q = l_ptr_[j]; q < l_ptr_[j + 1]; ++q)
                    work_[static_cast<std::size_t>(l_row_[q])] = T{};
                return false;
            }
            diag_[j] = d;
            for (int q = l_ptr_[j]; q < l_ptr_[j + 1]; ++q) {
                const auto r = static_cast<std::size_t>(l_row_[q]);
                l_val_[q] = work_[r] / d;
                work_[r] = T{};
            }
        }
        return true;
    }

    static void pack(std::vector<std::vector<std::pair<int, T>>>& cols,
                     std::vector<int>& ptr, std::vector<int>& row,
                     std::vector<T>& val) {
        const std::size_t n = cols.size();
        ptr.assign(n + 1, 0);
        std::size_t total = 0;
        for (std::size_t j = 0; j < n; ++j) total += cols[j].size();
        row.clear();
        val.clear();
        row.reserve(total);
        val.reserve(total);
        for (std::size_t j = 0; j < n; ++j) {
            std::sort(cols[j].begin(), cols[j].end(),
                      [](const auto& a, const auto& b) {
                          return a.first < b.first;
                      });
            for (const auto& [r, v] : cols[j]) {
                row.push_back(r);
                val.push_back(v);
            }
            ptr[j + 1] = static_cast<int>(row.size());
        }
    }

    std::size_t n_ = 0;
    bool have_pattern_ = false;
    bool have_factor_ = false;
    std::vector<int> preorder_;  ///< caller-supplied column order
    std::vector<int> md_order_;  ///< last minimum-degree order computed

    // Original pattern, CSC.
    std::vector<int> col_ptr_, row_ind_;

    // Pivot order: pr_[k]/pc_[k] = original row/column eliminated at step k.
    std::vector<int> pr_, pc_;
    // scatter_step_[p] = pivot-step row of original CSC position p.
    std::vector<int> scatter_step_;

    // Factor storage in pivot-step space, column-wise, rows ascending
    // (required by the left-looking replay and the supernode detection).
    std::vector<int> u_ptr_, u_row_, l_ptr_, l_row_;
    std::vector<T> u_val_, l_val_, diag_;

    // Column supernodes of the recorded pattern: sn_of_[step] -> id,
    // sn_end_[id] -> one past its last step.
    std::vector<int> sn_of_, sn_end_;

    std::vector<T> work_;             // refactor scatter workspace
    std::vector<T> acc_;              // supernode below-row accumulator
    mutable std::vector<T> scratch_;  // solve workspace

    std::size_t full_factors_ = 0;
    std::size_t refactors_ = 0;
    double ordering_seconds_ = 0.0;
    double numeric_seconds_ = 0.0;
};

using SparseSolver = SparseLu<double>;
using CSparseSolver = SparseLu<std::complex<double>>;

} // namespace catlift::spice
