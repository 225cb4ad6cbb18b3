// SparseLu tests against the dense BasicLu reference: randomized real and
// complex systems, pattern-reused (supernodal) refactorization, pivoting
// on structurally zero diagonals (the MNA voltage-source branch shape),
// singular detection on both the full-factor and refactor paths, adopted
// column preorders -- including random ones on MNA-shaped systems -- and
// the in-place dense solve overload.

#include "spice/matrix.h"
#include "spice/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

using catlift::spice::BasicLu;
using catlift::spice::BasicMatrix;
using catlift::spice::SparseLu;

namespace {

using C = std::complex<double>;

// Deterministic xorshift-style generator (no <random> dependency drift).
struct Rng {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    double uniform() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<double>(s >> 11) /
               static_cast<double>(1ull << 53);
    }
    double signed_uniform() { return 2.0 * uniform() - 1.0; }
    int below(int n) {
        return std::min(static_cast<int>(uniform() * n), n - 1);
    }
};

template <typename T>
T random_scalar(Rng& rng);
template <>
double random_scalar<double>(Rng& rng) {
    return rng.signed_uniform();
}
template <>
C random_scalar<C>(Rng& rng) {
    const double re = rng.signed_uniform();
    return {re, rng.signed_uniform()};
}

/// Random sparse pattern with a guaranteed diagonal (well-posed) plus
/// `extra` off-diagonal entries; duplicates included on purpose to
/// exercise slot dedup.
std::vector<std::pair<int, int>> random_pattern(Rng& rng, int n, int extra) {
    std::vector<std::pair<int, int>> entries;
    for (int i = 0; i < n; ++i) entries.push_back({i, i});
    for (int e = 0; e < extra; ++e)
        entries.push_back({rng.below(n), rng.below(n)});
    return entries;
}

/// One system's values in the sparse solver's slot order and as the
/// dense reference matrix.
template <typename T>
struct System {
    std::vector<T> vals;
    BasicMatrix<T> dense;
};

/// Random values on `entries`, plus `boost` on the first n of them (the
/// diagonal of random_pattern) so the reference is well conditioned.
template <typename T>
System<T> random_values(Rng& rng, int n,
                        const std::vector<std::pair<int, int>>& entries,
                        const std::vector<int>& slots, std::size_t nnz,
                        T boost) {
    System<T> sys{std::vector<T>(nnz, T{}),
                  BasicMatrix<T>(static_cast<std::size_t>(n))};
    for (std::size_t e = 0; e < entries.size(); ++e) {
        T v = random_scalar<T>(rng);
        if (e < static_cast<std::size_t>(n)) v += boost;
        const auto [r, c] = entries[e];
        sys.vals[static_cast<std::size_t>(slots[e])] += v;
        sys.dense(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) +=
            v;
    }
    return sys;
}

/// Factor `sys` sparse and dense, solve one random right-hand side with
/// both and expect the solutions to agree to `tol`.
template <typename T>
void expect_matches_dense(Rng& rng, SparseLu<T>& slu, const System<T>& sys,
                          double tol) {
    ASSERT_TRUE(slu.factor(sys.vals));
    BasicLu<T> dlu;
    ASSERT_TRUE(dlu.factor(sys.dense));
    std::vector<T> b(slu.size());
    for (auto& v : b) v = random_scalar<T>(rng);
    const auto xd = dlu.solve(b);
    const auto xs = slu.solve_copy(b);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_LT(std::abs(xs[i] - xd[i]), tol)
            << "n " << b.size() << " i " << i;
}

/// Random systems of the sizes `n_of(trial)` checked against the dense
/// reference, each with a fresh solver (first factorization only).
template <typename T, typename SizeFn>
void check_random_systems(int trials, SizeFn n_of, T boost) {
    Rng rng;
    for (int trial = 0; trial < trials; ++trial) {
        SCOPED_TRACE(trial);
        const int n = n_of(trial);
        const auto entries = random_pattern(rng, n, 3 * n);
        SparseLu<T> slu;
        const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);
        ASSERT_EQ(slots.size(), entries.size());
        expect_matches_dense(
            rng, slu, random_values(rng, n, entries, slots, slu.nnz(), boost),
            1e-9);
    }
}

/// An MNA-shaped n x n system as a dense matrix: `nodes` node rows with a
/// random conductance graph on top of a ground conductance on every node
/// (diagonally weighted), and n - nodes voltage-source branches.  Branch k
/// has +1/-1 incidence between a node of its own (so the branch columns
/// are independent) and ground or a node no branch owns, and a
/// structurally zero diagonal.  Nonsingular by construction.
BasicMatrix<double> random_mna(Rng& rng, int n, int nodes) {
    const auto u = [](int i) { return static_cast<std::size_t>(i); };
    BasicMatrix<double> a(u(n));
    for (int i = 0; i < nodes; ++i) a(u(i), u(i)) += 1.0 + rng.uniform();
    for (int e = 0; e < 2 * nodes; ++e) {
        const int i = rng.below(nodes), j = rng.below(nodes);
        if (i == j) continue;
        const double g = 0.1 + rng.uniform();
        a(u(i), u(i)) += g;
        a(u(j), u(j)) += g;
        a(u(i), u(j)) -= g;
        a(u(j), u(i)) -= g;
    }
    const int branches = n - nodes;
    for (int k = 0; k < branches; ++k) {
        const int row = nodes + k;
        a(u(k), u(row)) = a(u(row), u(k)) = 1.0;
        const int other = branches + rng.below(nodes - branches + 1);
        if (other < nodes) a(u(other), u(row)) = a(u(row), u(other)) = -1.0;
    }
    return a;
}

/// The structural nonzeros of `a` as analyze() entries.
std::vector<std::pair<int, int>> pattern_of(const BasicMatrix<double>& a) {
    std::vector<std::pair<int, int>> entries;
    for (std::size_t r = 0; r < a.size(); ++r)
        for (std::size_t c = 0; c < a.size(); ++c)
            if (a(r, c) != 0.0)
                entries.push_back({static_cast<int>(r), static_cast<int>(c)});
    return entries;
}

std::vector<int> random_permutation(Rng& rng, int n) {
    std::vector<int> p(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
        std::swap(p[static_cast<std::size_t>(i)],
                  p[static_cast<std::size_t>(rng.below(i + 1))]);
    return p;
}

} // namespace

TEST(SparseLu, MatchesDenseOnRandomSystems) {
    check_random_systems(25, [](int t) { return 4 + t % 13; }, 4.0);
    check_random_systems(25, [](int t) { return 4 + (t * 5) % 40; }, 4.0);
}

TEST(SparseLu, ComplexMatchesDense) {
    check_random_systems(10, [](int t) { return 6 + t; }, C(5.0, 1.0));
    check_random_systems(10, [](int t) { return 6 + 2 * t; }, C(5.0, 1.0));
}

TEST(SparseLu, RefactorReusesPatternAndFallsBackOnPivotFloor) {
    // One full factorization, every later one a pattern-reused
    // (supernodal) refactor that still matches the dense reference.
    for (const auto& [n, rounds] : {std::pair{12, 10}, std::pair{20, 8}}) {
        SCOPED_TRACE(n);
        Rng rng;
        const auto entries = random_pattern(rng, n, 4 * n);
        SparseLu<double> slu;
        const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);
        for (int round = 0; round < rounds; ++round)
            expect_matches_dense(
                rng, slu,
                random_values(rng, n, entries, slots, slu.nnz(), 5.0), 1e-9);
        EXPECT_EQ(slu.full_factors(), 1u);
        EXPECT_EQ(slu.refactors(), static_cast<std::size_t>(rounds - 1));
        EXPECT_GT(slu.supernodes(), 0u);
        EXPECT_GT(slu.ordering_seconds(), 0.0);
    }

    // Values drifting so far that a recorded pivot collapses must fall
    // back to a fresh full factorization (which re-pivots), not fail or
    // divide by ~0.  [g 1; 1 0] with g = 1 records the diagonal pivot;
    // dropping g to 1e-14 kills that pivot but the matrix stays sound.
    SparseLu<double> vs;
    const auto vslots = vs.analyze(2, {{0, 0}, {0, 1}, {1, 0}});
    vs.set_preorder({0, 1});  // eliminate column 0 first: g is the pivot
    std::vector<double> vvals(vs.nnz(), 0.0);
    vvals[static_cast<std::size_t>(vslots[0])] = 1.0;
    vvals[static_cast<std::size_t>(vslots[1])] = 1.0;
    vvals[static_cast<std::size_t>(vslots[2])] = 1.0;
    ASSERT_TRUE(vs.factor(vvals, 1e-12));
    vvals[static_cast<std::size_t>(vslots[0])] = 1e-14;
    ASSERT_TRUE(vs.factor(vvals, 1e-12));
    EXPECT_EQ(vs.full_factors(), 2u);  // refactor refused, full re-pivoted
    const auto x2 = vs.solve_copy({1.0, 5.0});
    EXPECT_NEAR(1e-14 * x2[0] + x2[1], 1.0, 1e-9);
    EXPECT_NEAR(x2[0], 5.0, 1e-9);
}

TEST(SparseLu, PivotsAcrossZeroDiagonal) {
    // The MNA voltage-source shape: row pivoting inside Gilbert-Peierls
    // must handle the structurally zero diagonal on the branch row.
    // [g 1; 1 0] x = [0; v] -> x = [v, -g v].
    SparseLu<double> slu;
    const auto slots = slu.analyze(2, {{0, 0}, {0, 1}, {1, 0}});
    std::vector<double> vals(slu.nnz(), 0.0);
    vals[static_cast<std::size_t>(slots[0])] = 1e-3;  // g
    vals[static_cast<std::size_t>(slots[1])] = 1.0;
    vals[static_cast<std::size_t>(slots[2])] = 1.0;
    ASSERT_TRUE(slu.factor(vals));
    const auto x = slu.solve_copy({0.0, 5.0});
    EXPECT_NEAR(x[0], 5.0, 1e-12);
    EXPECT_NEAR(x[1], -5e-3, 1e-12);
}

TEST(SparseLu, SingularDetectedFullAndRefactor) {
    SparseLu<double> slu;
    const auto slots =
        slu.analyze(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
    // Rank-1 matrix: full factorization must reject it.
    std::vector<double> vals(slu.nnz(), 0.0);
    vals[static_cast<std::size_t>(slots[0])] = 1.0;
    vals[static_cast<std::size_t>(slots[1])] = 2.0;
    vals[static_cast<std::size_t>(slots[2])] = 2.0;
    vals[static_cast<std::size_t>(slots[3])] = 4.0;
    EXPECT_FALSE(slu.factor(vals));
    // Below the pivot floor on every entry is singular too.
    vals = {1e-12, 0.0, 0.0, 1e-12};
    EXPECT_FALSE(slu.factor(vals, 1e-9));

    // A good matrix factors; the same pattern degraded to singular must be
    // rejected on the refactor path too (and not poison later factors).
    vals = {1.0, 2.0, 2.0, 5.0};
    ASSERT_TRUE(slu.factor(vals));
    vals = {1.0, 2.0, 2.0, 4.0};
    EXPECT_FALSE(slu.factor(vals));
    vals = {3.0, 1.0, 1.0, 2.0};
    ASSERT_TRUE(slu.factor(vals));
    const auto x = slu.solve_copy({5.0, 5.0});
    EXPECT_NEAR(3.0 * x[0] + 1.0 * x[1], 5.0, 1e-12);
    EXPECT_NEAR(1.0 * x[0] + 2.0 * x[1], 5.0, 1e-12);
}

TEST(SparseLu, RandomPreordersFactorMnaOrRejectSingular) {
    // Gilbert-Peierls with row partial pivoting finds a pivot along any
    // column order unless the matrix is singular.  Nonsingular MNA-shaped
    // systems must factor under every random preorder (and under minimum
    // degree) and match the dense reference; the same systems with one
    // row copied over another must be rejected under every one of them.
    Rng rng;
    for (int trial = 0; trial < 24; ++trial) {
        SCOPED_TRACE(trial);
        const int nodes = 6 + trial % 5 * 6;
        const int n = nodes + 1 + trial % 4 * nodes / 8;
        for (const bool singular : {false, true}) {
            BasicMatrix<double> a = random_mna(rng, n, nodes);
            if (singular) {
                const int from = rng.below(n);
                const int to = (from + 1 + rng.below(n - 1)) % n;
                for (std::size_t c = 0; c < a.size(); ++c)
                    a(static_cast<std::size_t>(to), c) =
                        a(static_cast<std::size_t>(from), c);
            }
            const auto entries = pattern_of(a);
            SparseLu<double> slu;
            const auto slots =
                slu.analyze(static_cast<std::size_t>(n), entries);
            std::vector<double> vals(slu.nnz(), 0.0);
            for (std::size_t e = 0; e < entries.size(); ++e)
                vals[static_cast<std::size_t>(slots[e])] =
                    a(static_cast<std::size_t>(entries[e].first),
                      static_cast<std::size_t>(entries[e].second));
            BasicLu<double> dlu;
            ASSERT_EQ(dlu.factor(a), !singular);
            std::vector<double> b(static_cast<std::size_t>(n));
            for (auto& v : b) v = rng.signed_uniform();
            std::vector<double> xd;
            if (!singular) xd = dlu.solve(b);

            for (int p = 0; p < 6; ++p) {
                // Order 0 clears the preorder: minimum degree runs.
                slu.set_preorder(p == 0 ? std::vector<int>{}
                                        : random_permutation(rng, n));
                if (singular) {
                    EXPECT_FALSE(slu.factor(vals)) << "preorder " << p;
                    continue;
                }
                ASSERT_TRUE(slu.factor(vals)) << "preorder " << p;
                const auto xs = slu.solve_copy(b);
                for (std::size_t i = 0; i < b.size(); ++i)
                    EXPECT_NEAR(xs[i], xd[i], 1e-9)
                        << "preorder " << p << " i " << i;
            }
        }
    }
}

TEST(SparseLu, PivotFloorRespected) {
    // Values above the floor factor fine; dropping the whole matrix under
    // the floor must fail rather than divide by ~0.
    SparseLu<double> slu;
    const auto slots = slu.analyze(2, {{0, 0}, {1, 1}});
    std::vector<double> vals(slu.nnz(), 0.0);
    vals[static_cast<std::size_t>(slots[0])] = 1e-12;
    vals[static_cast<std::size_t>(slots[1])] = 1e-12;
    EXPECT_TRUE(slu.factor(vals, 1e-15));
    EXPECT_FALSE(slu.factor(vals, 1e-9));
}

TEST(SparseLuAmd, PreorderAdoptedAsColumnOrder) {
    Rng rng;
    const int n = 10;
    auto entries = random_pattern(rng, n, 3 * n);
    SparseLu<double> slu;
    const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        order[static_cast<std::size_t>(i)] = n - 1 - i;  // reverse order
    slu.set_preorder(order);

    std::vector<double> vals(slu.nnz(), 0.0);
    for (std::size_t e = 0; e < entries.size(); ++e)
        vals[static_cast<std::size_t>(slots[e])] += rng.signed_uniform();
    for (int i = 0; i < n; ++i)
        vals[static_cast<std::size_t>(slots[static_cast<std::size_t>(i)])] +=
            5.0;
    ASSERT_TRUE(slu.factor(vals));
    EXPECT_EQ(slu.column_order(), order);

    // A non-permutation is rejected loudly.
    std::vector<int> bad = order;
    bad[0] = bad[1];
    EXPECT_THROW(slu.set_preorder(bad), catlift::Error);
    EXPECT_THROW(slu.set_preorder(std::vector<int>{0, 1}), catlift::Error);
}

TEST(SparseLuAmd, SupernodalRefactorMatchesDenseOnBandedSystem) {
    // A banded system produces long runs of nested L patterns -- the
    // supernodal replay's dense inner loops do real work here.  Ten value
    // rounds through the same pattern must all match the dense reference.
    Rng rng;
    const int n = 40;
    std::vector<std::pair<int, int>> entries;
    std::vector<std::size_t> diag_entry(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        for (int j = std::max(0, i - 3); j <= std::min(n - 1, i + 3); ++j) {
            if (i == j) diag_entry[static_cast<std::size_t>(i)] = entries.size();
            entries.push_back({i, j});
        }
    SparseLu<double> slu;
    const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);

    for (int round = 0; round < 10; ++round) {
        std::vector<double> vals(slu.nnz(), 0.0);
        BasicMatrix<double> a(static_cast<std::size_t>(n));
        for (std::size_t e = 0; e < entries.size(); ++e) {
            const double v = rng.signed_uniform();
            const auto [r, c] = entries[e];
            vals[static_cast<std::size_t>(slots[e])] += v;
            a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
        }
        for (int i = 0; i < n; ++i) {
            vals[static_cast<std::size_t>(
                slots[diag_entry[static_cast<std::size_t>(i)]])] += 8.0;
            a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 8.0;
        }
        ASSERT_TRUE(slu.factor(vals));
        std::vector<double> b(static_cast<std::size_t>(n));
        for (auto& v : b) v = rng.signed_uniform();
        BasicLu<double> dlu;
        ASSERT_TRUE(dlu.factor(a));
        const auto xd = dlu.solve(b);
        const auto xs = slu.solve_copy(b);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(xs[static_cast<std::size_t>(i)],
                        xd[static_cast<std::size_t>(i)], 1e-8)
                << "round " << round;
    }
    EXPECT_EQ(slu.full_factors(), 1u);
    EXPECT_EQ(slu.refactors(), 9u);
    // The band must actually have merged into multi-column supernodes.
    EXPECT_LT(slu.supernodes(), static_cast<std::size_t>(n));
}

TEST(DenseLu, InPlaceSolveMatchesReturningOverload) {
    BasicMatrix<double> a(3);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    a(1, 2) = 1;
    a(2, 2) = 4;
    BasicLu<double> lu;
    ASSERT_TRUE(lu.factor(a));
    const std::vector<double> b = {5.0, 10.0, 8.0};
    const auto x1 = lu.solve(b);
    std::vector<double> x2;
    lu.solve(b, x2);
    ASSERT_EQ(x2.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(x1[static_cast<std::size_t>(i)],
                         x2[static_cast<std::size_t>(i)]);
}
