#include "geom/spatial_index.h"

#include <algorithm>

namespace catlift::geom {

SpatialIndex::SpatialIndex(Coord cell) : cell_(cell) {
    require(cell > 0, "SpatialIndex: cell pitch must be positive");
}

void SpatialIndex::insert(std::size_t id, const Rect& r) {
    require(ids_.size() < UINT32_MAX, "SpatialIndex: too many rects");
    const auto slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(id);
    rects_.push_back(r);
    const std::int64_t cx0 = cell_of(r.lo.x), cx1 = cell_of(r.hi.x);
    const std::int64_t cy0 = cell_of(r.lo.y), cy1 = cell_of(r.hi.y);
    for (std::int64_t cx = cx0; cx <= cx1; ++cx)
        for (std::int64_t cy = cy0; cy <= cy1; ++cy)
            grid_[CellKey{cx, cy}].push_back(slot);
}

std::vector<std::size_t> SpatialIndex::query(const Rect& window) const {
    std::vector<std::size_t> out;
    const std::int64_t cx0 = cell_of(window.lo.x), cx1 = cell_of(window.hi.x);
    const std::int64_t cy0 = cell_of(window.lo.y), cy1 = cell_of(window.hi.y);
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
            auto it = grid_.find(CellKey{cx, cy});
            if (it == grid_.end()) continue;
            for (std::uint32_t slot : it->second)
                if (rects_[slot].touches(window)) out.push_back(ids_[slot]);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace catlift::geom
