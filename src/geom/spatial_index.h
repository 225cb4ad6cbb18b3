// catlift/geom/spatial_index.h
//
// Uniform-grid spatial index over rectangles.  The defect analysis needs
// "which shapes lie within distance d of this shape" queries for every shape
// on a layer; a bucket grid sized to the maximum defect diameter makes the
// whole neighbour enumeration O(shapes x local density).

#pragma once

#include "geom/rect.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace catlift::geom {

/// Spatial index mapping rectangles (with opaque payload ids) to grid
/// buckets.  Query returns candidate ids whose rects touch an expanded
/// window; the caller applies its own exact predicate.
class SpatialIndex {
public:
    /// `cell` is the grid pitch in nm; choose >= the largest query radius
    /// plus typical shape size for best performance.  Must be positive.
    explicit SpatialIndex(Coord cell);

    /// Insert a rectangle with caller-defined id (e.g. shape index).
    void insert(std::size_t id, const Rect& r);

    /// Ids of all rects whose bounding boxes touch `window`, ascending and
    /// without duplicates (the extractor relies on the order to pick the
    /// lowest-index hit, as an exhaustive scan would).
    std::vector<std::size_t> query(const Rect& window) const;

    /// Ids of all rects within edge separation <= `dist` of `r` (candidate
    /// set by bounding box; exact separation up to the caller).
    std::vector<std::size_t> neighbours(const Rect& r, Coord dist) const {
        return query(r.expanded(dist));
    }

    std::size_t size() const { return ids_.size(); }

private:
    struct CellKey {
        std::int64_t cx;
        std::int64_t cy;
        friend bool operator==(const CellKey&, const CellKey&) = default;
    };
    struct CellHash {
        std::size_t operator()(const CellKey& k) const {
            const std::uint64_t a = static_cast<std::uint64_t>(k.cx);
            const std::uint64_t b = static_cast<std::uint64_t>(k.cy);
            std::uint64_t h = a * 0x9E3779B97F4A7C15ull;
            h ^= b + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
            return static_cast<std::size_t>(h);
        }
    };

    std::int64_t cell_of(Coord v) const {
        // Floor division for negative coordinates.
        std::int64_t q = v / cell_;
        if (v % cell_ != 0 && v < 0) --q;
        return q;
    }

    Coord cell_;
    // Each rect is stored once; a cell holds 4-byte slots into these, so a
    // long shape spanning many cells costs 4 bytes per cell, not a copy.
    std::vector<std::size_t> ids_;  ///< slot -> caller id
    std::vector<Rect> rects_;       ///< slot -> rect
    std::unordered_map<CellKey, std::vector<std::uint32_t>, CellHash> grid_;
};

} // namespace catlift::geom
