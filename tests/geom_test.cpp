// Unit and property tests for the geometry substrate.

#include "geom/rect.h"
#include "geom/region.h"
#include "geom/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace g = catlift::geom;

TEST(Units, MicronRoundTrip) {
    EXPECT_EQ(g::from_um(1.0), 1000);
    EXPECT_EQ(g::from_um(-2.5), -2500);
    EXPECT_DOUBLE_EQ(g::to_um(1500), 1.5);
    EXPECT_DOUBLE_EQ(g::to_um(g::from_um(3.25)), 3.25);
}

TEST(Rect, NormalisesCorners) {
    const g::Rect r(10, 20, -5, 4);
    EXPECT_EQ(r.lo.x, -5);
    EXPECT_EQ(r.lo.y, 4);
    EXPECT_EQ(r.hi.x, 10);
    EXPECT_EQ(r.hi.y, 20);
    EXPECT_EQ(r.width(), 15);
    EXPECT_EQ(r.height(), 16);
}

TEST(Rect, AreaAndEmpty) {
    EXPECT_DOUBLE_EQ(g::Rect(0, 0, 10, 5).area(), 50.0);
    EXPECT_TRUE(g::Rect(0, 0, 0, 5).empty());
    EXPECT_FALSE(g::Rect(0, 0, 1, 1).empty());
}

TEST(Rect, ContainsPointIncludesBoundary) {
    const g::Rect r(0, 0, 10, 10);
    EXPECT_TRUE(r.contains(g::Point{0, 0}));
    EXPECT_TRUE(r.contains(g::Point{10, 10}));
    EXPECT_TRUE(r.contains(g::Point{5, 5}));
    EXPECT_FALSE(r.contains(g::Point{11, 5}));
}

TEST(Rect, OverlapVsTouch) {
    const g::Rect a(0, 0, 10, 10);
    const g::Rect edge(10, 0, 20, 10);   // shares an edge
    const g::Rect inside(5, 5, 15, 15);  // true overlap
    const g::Rect away(20, 20, 30, 30);
    EXPECT_TRUE(a.touches(edge));
    EXPECT_FALSE(a.overlaps(edge));
    EXPECT_TRUE(a.overlaps(inside));
    EXPECT_FALSE(a.touches(away));
}

TEST(Rect, IntersectionBasics) {
    const g::Rect a(0, 0, 10, 10), b(5, 5, 20, 20);
    auto i = g::intersection(a, b);
    ASSERT_TRUE(i.has_value());
    EXPECT_EQ(*i, g::Rect(5, 5, 10, 10));
    EXPECT_FALSE(g::intersection(a, g::Rect(11, 11, 12, 12)).has_value());
}

TEST(Rect, SeparationAndGaps) {
    const g::Rect a(0, 0, 10, 10);
    const g::Rect right(15, 0, 25, 10);
    EXPECT_EQ(g::separation(a, right), 5);
    EXPECT_EQ(g::axis_gaps(a, right).x, 5);
    EXPECT_EQ(g::axis_gaps(a, right).y, 0);
    const g::Rect diag(14, 13, 20, 20);
    EXPECT_EQ(g::axis_gaps(a, diag).x, 4);
    EXPECT_EQ(g::axis_gaps(a, diag).y, 3);
    EXPECT_EQ(g::separation(a, diag), 4);
    EXPECT_EQ(g::separation(a, g::Rect(5, 5, 6, 6)), 0);  // contained
}

TEST(Rect, FacingOverlapLengths) {
    const g::Rect a(0, 0, 10, 2);
    const g::Rect b(4, 5, 20, 7);  // above, overlapping x in [4,10]
    EXPECT_EQ(g::x_overlap(a, b), 6);
    EXPECT_EQ(g::y_overlap(a, b), 0);
}

TEST(Rect, ExpandedShrinksToDegenerate) {
    const g::Rect a(0, 0, 4, 4);
    const g::Rect s = a.expanded(-3);
    EXPECT_EQ(s.width(), 0);
    EXPECT_EQ(s.height(), 0);
    const g::Rect e = a.expanded(2);
    EXPECT_EQ(e, g::Rect(-2, -2, 6, 6));
}

TEST(Region, UnionAreaDisjoint) {
    g::Region r;
    r.add(g::Rect(0, 0, 10, 10));
    r.add(g::Rect(20, 0, 30, 10));
    EXPECT_DOUBLE_EQ(r.union_area(), 200.0);
}

TEST(Region, UnionAreaOverlappingNotDoubleCounted) {
    g::Region r;
    r.add(g::Rect(0, 0, 10, 10));
    r.add(g::Rect(5, 0, 15, 10));
    EXPECT_DOUBLE_EQ(r.union_area(), 150.0);
}

TEST(Region, UnionAreaNested) {
    g::Region r;
    r.add(g::Rect(0, 0, 100, 100));
    r.add(g::Rect(10, 10, 20, 20));
    EXPECT_DOUBLE_EQ(r.union_area(), 10000.0);
}

TEST(Region, DisjointDecompositionPreservesArea) {
    g::Region r;
    r.add(g::Rect(0, 0, 10, 10));
    r.add(g::Rect(5, 5, 15, 15));
    r.add(g::Rect(-3, 2, 2, 7));
    const auto parts = r.disjoint();
    double sum = 0;
    for (const auto& p : parts) sum += p.area();
    EXPECT_DOUBLE_EQ(sum, r.union_area());
    // Parts must be pairwise non-overlapping.
    for (std::size_t i = 0; i < parts.size(); ++i)
        for (std::size_t j = i + 1; j < parts.size(); ++j)
            EXPECT_FALSE(parts[i].overlaps(parts[j]));
}

TEST(Region, BBoxAndContains) {
    g::Region r;
    r.add(g::Rect(0, 0, 10, 10));
    r.add(g::Rect(50, 50, 60, 60));
    EXPECT_EQ(r.bbox(), g::Rect(0, 0, 60, 60));
    EXPECT_TRUE(r.contains(g::Point{55, 55}));
    EXPECT_FALSE(r.contains(g::Point{30, 30}));
}

TEST(SpatialIndex, FindsNeighboursAcrossCells) {
    g::SpatialIndex idx(100);
    idx.insert(0, g::Rect(0, 0, 10, 10));
    idx.insert(1, g::Rect(250, 0, 260, 10));
    idx.insert(2, g::Rect(15, 0, 20, 10));
    auto near = idx.neighbours(g::Rect(0, 0, 10, 10), 6);
    EXPECT_EQ(near.size(), 2u);  // self + id 2
    near = idx.neighbours(g::Rect(0, 0, 10, 10), 300);
    EXPECT_EQ(near.size(), 3u);
}

TEST(SpatialIndex, NegativeCoordinates) {
    g::SpatialIndex idx(64);
    idx.insert(7, g::Rect(-200, -200, -150, -150));
    auto hit = idx.query(g::Rect(-210, -210, -140, -140));
    ASSERT_EQ(hit.size(), 1u);
    EXPECT_EQ(hit[0], 7u);
    EXPECT_TRUE(idx.query(g::Rect(100, 100, 120, 120)).empty());
}

TEST(SpatialIndex, QueryReturnsAscendingUniqueIds) {
    // The extractor takes the first hit as the lowest-index fragment, so the
    // order is part of the contract, whatever the insertion order and
    // however many cells a rect spans.
    g::SpatialIndex idx(100);
    idx.insert(9, g::Rect(0, 0, 950, 10));  // spans ten cells
    idx.insert(2, g::Rect(420, 0, 430, 10));
    idx.insert(5, g::Rect(120, 0, 130, 10));
    idx.insert(0, g::Rect(2000, 0, 2010, 10));
    EXPECT_EQ(idx.query(g::Rect(0, 0, 500, 10)),
              (std::vector<std::size_t>{2, 5, 9}));
    EXPECT_EQ(idx.size(), 4u);
}

TEST(SpatialIndex, RejectsBadCell) {
    EXPECT_THROW(g::SpatialIndex(0), catlift::Error);
}

// Property sweep: whatever mix of shapes is inserted -- short ones in the
// grid, long horizontal and vertical ones in the strips, large ones in
// many cells, rects exactly at the long/thin span thresholds, negative
// coordinates -- query() and neighbours() return exactly the ascending,
// unique ids a brute-force scan finds, for small windows, layout-wide rows
// and columns, windows long along either axis and the whole layout.  Only
// occupied cells are walked, so a long window reaches far-apart cells on
// one row.
class SpatialIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpatialIndexProperty, MatchesBruteForce) {
    std::uint64_t s = static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ull + 7;
    auto pick = [&](std::int64_t n) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::int64_t>((s >> 33) % static_cast<std::uint64_t>(n));
    };
    const g::Coord cell = 100 + 50 * pick(4);
    const std::int64_t long_cells = g::SpatialIndex::kLongSpan;
    const std::int64_t thin_cells = g::SpatialIndex::kThinSpan;
    // The extent of a rect that starts on a cell boundary and covers
    // exactly `cells` grid cells.
    auto span = [&](std::int64_t cells) { return cells * cell - 1; };
    // A coordinate on a cell boundary or anywhere inside a cell.
    auto origin = [&] { return (pick(60) - 30) * cell + (pick(2) ? 0 : pick(cell)); };

    g::SpatialIndex idx(cell);
    std::vector<std::pair<std::size_t, g::Rect>> rects;
    const int n = 300;
    std::vector<std::size_t> ids(n);
    for (int i = 0; i < n; ++i) ids[i] = static_cast<std::size_t>(i);
    for (int i = n; i > 1; --i) std::swap(ids[i - 1], ids[pick(i)]);
    for (int i = 0; i < n; ++i) {
        const g::Coord x = origin(), y = origin();
        g::Coord w = 0, h = 0;
        switch (pick(6)) {
            case 0:  // short
                w = pick(2 * cell);
                h = pick(2 * cell);
                break;
            case 1:  // long horizontal
                w = (long_cells + 1 + pick(40)) * cell + pick(cell);
                h = pick(thin_cells * cell / 2);
                break;
            case 2:  // long vertical
                w = pick(thin_cells * cell / 2);
                h = (long_cells + 1 + pick(40)) * cell + pick(cell);
                break;
            case 3:  // large
                w = (thin_cells + pick(10)) * cell + pick(cell);
                h = (thin_cells + pick(10)) * cell + pick(cell);
                break;
            default: {  // at the thresholds, from a cell boundary
                const std::int64_t along = long_cells + pick(2);
                const std::int64_t across = thin_cells + pick(2);
                const g::Coord x0 = (pick(60) - 30) * cell, y0 = (pick(60) - 30) * cell;
                const bool horizontal = pick(2) == 0;
                const g::Rect r(x0, y0, x0 + span(horizontal ? along : across),
                                y0 + span(horizontal ? across : along));
                rects.emplace_back(ids[i], r);
                idx.insert(ids[i], r);
                continue;
            }
        }
        const g::Rect r(x, y, x + w, y + h);
        rects.emplace_back(ids[i], r);
        idx.insert(ids[i], r);
    }
    EXPECT_EQ(idx.size(), static_cast<std::size_t>(n));

    auto brute = [&](const g::Rect& window) {
        std::vector<std::size_t> out;
        for (const auto& [id, r] : rects)
            if (r.touches(window)) out.push_back(id);
        std::sort(out.begin(), out.end());
        return out;
    };
    // Beyond every rect: the rects start within 30 cells of the origin and
    // run at most 46 cells.
    const g::Coord far = 100 * cell;
    for (int q = 0; q < 300; ++q) {
        const g::Coord x = origin(), y = origin(), w = pick(3 * cell);
        const g::Rect windows[] = {
            g::Rect(x, y, x + pick(6 * cell), y + pick(6 * cell)),  // small
            g::Rect(-far, y, far, y + w),         // a layout-wide row
            g::Rect(x, -far, x + w, far),         // a layout-tall column
            g::Rect(x, y, x + pick(far), y + w),  // long along x
            g::Rect(x, y, x + w, y + pick(far)),  // long along y
        };
        for (const g::Rect& window : windows)
            EXPECT_EQ(idx.query(window), brute(window))
                << window.lo.x << ',' << window.lo.y << ' ' << window.hi.x
                << ',' << window.hi.y;
        const auto& [id, r] = rects[static_cast<std::size_t>(pick(n))];
        const g::Coord d = pick(3 * cell);
        EXPECT_EQ(idx.neighbours(r, d), brute(r.expanded(d))) << id;
    }
    // Every rect's own box, so the first and last occupied cell of each
    // row starts or ends some window, and the whole layout.
    for (const auto& [id, r] : rects) EXPECT_EQ(idx.query(r), brute(r)) << id;
    const g::Rect all(-far, -far, far, far);
    EXPECT_EQ(idx.query(all), brute(all));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialIndexProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property sweep: separation() is symmetric and consistent with expansion:
// two rects are within distance d iff expanding one by d makes them touch.
class SeparationProperty : public ::testing::TestWithParam<int> {};

TEST_P(SeparationProperty, ExpansionConsistency) {
    const int seed = GetParam();
    // Tiny deterministic LCG so the sweep is reproducible.
    std::uint64_t s = static_cast<std::uint64_t>(seed) * 6364136223846793005ull + 1;
    auto next = [&]() {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<g::Coord>((s >> 33) % 2001) - 1000;
    };
    for (int k = 0; k < 50; ++k) {
        const g::Rect a(next(), next(), next(), next());
        const g::Rect b(next(), next(), next(), next());
        const g::Coord d = g::separation(a, b);
        EXPECT_EQ(d, g::separation(b, a));
        if (d > 0) {
            EXPECT_TRUE(a.expanded(d).touches(b));
            EXPECT_FALSE(a.expanded(d - 1).touches(b));
        } else {
            EXPECT_TRUE(a.touches(b));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeparationProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));
