// catlift/geom/spatial_index.h
//
// Spatial index over rectangles.  The defect analysis needs "which shapes
// lie within distance d of this shape" queries for every shape on a layer;
// a bucket grid sized to the maximum defect diameter makes the whole
// neighbour enumeration O(shapes x local density).  Long thin shapes -- a
// full-width metal2 track, a metal1 stub climbing to it -- would cover
// O(length) grid cells each, so they are kept out of the grid, in one list
// per axis sorted across it.  A long window -- the neighbourhood of such a
// shape -- would still lie over O(length) cells, mostly empty, so the grid
// keeps only occupied cells, listed sorted along each grid row.  A query
// walks the window's occupied rows and range-scans each row's cells, so
// its cost follows the cells it hits, not the window's length.

#pragma once

#include "geom/rect.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace catlift::geom {

/// Spatial index over rectangles with opaque payload ids.  A rect spanning
/// more than kLongSpan grid cells along one axis and at most kThinSpan
/// across it is long: it goes into that axis's strip, a list ordered by
/// its low coordinate across the axis, found by binary search.  Every
/// other rect is listed in each grid cell it covers.  Query returns the
/// ids whose rects touch a window; the caller applies its own exact
/// predicate.
class SpatialIndex {
public:
    static constexpr std::int64_t kLongSpan = 4;
    static constexpr std::int64_t kThinSpan = 2;

    /// `cell` is the grid pitch in nm; choose >= the largest query radius
    /// plus typical shape size for best performance.  Must be positive.
    explicit SpatialIndex(Coord cell);

    /// Insert a rectangle with caller-defined id (e.g. shape index).
    void insert(std::size_t id, const Rect& r);

    /// Ids of all rects whose bounding boxes touch `window`, ascending and
    /// without duplicates (the extractor relies on the order to pick the
    /// lowest-index hit, as an exhaustive scan would).  Reads only, so
    /// concurrent queries are safe.
    std::vector<std::size_t> query(const Rect& window) const;

    /// Ids of all rects within edge separation <= `dist` of `r` (candidate
    /// set by bounding box; exact separation up to the caller).
    std::vector<std::size_t> neighbours(const Rect& r, Coord dist) const {
        return query(r.expanded(dist));
    }

    std::size_t size() const { return ids_.size(); }

private:
    /// One grid row: its occupied cells as (cx, index into cells_),
    /// ascending by cx.
    using Row = std::vector<std::pair<std::int64_t, std::uint32_t>>;

    std::int64_t cell_of(Coord v) const {
        // Floor division for negative coordinates.
        std::int64_t q = v / cell_;
        if (v % cell_ != 0 && v < 0) --q;
        return q;
    }

    /// Long rects along one axis, keyed by their low coordinate across it;
    /// `thickness` (their largest extent across it) bounds how far below a
    /// window the search must start.
    struct Strip {
        std::multimap<Coord, std::uint32_t> by_lo;
        Coord thickness = 0;
    };

    Coord cell_;
    // Each rect is stored once; a cell or strip holds 4-byte slots into
    // these.
    std::vector<std::size_t> ids_;  ///< slot -> caller id
    std::vector<Rect> rects_;       ///< slot -> rect
    std::vector<std::vector<std::uint32_t>> cells_;  ///< cell -> slots
    std::map<std::int64_t, Row> rows_;  ///< occupied rows by cy
    std::array<Strip, 2> strips_;   ///< [0] along x (by lo.y), [1] along y
};

} // namespace catlift::geom
