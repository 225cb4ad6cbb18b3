#include "geom/spatial_index.h"

#include <algorithm>

namespace catlift::geom {

namespace {

/// First cell of a row at or after column `cx`.  Cells mostly arrive in
/// order, so a column past the end is checked first.
template <typename Row>
auto seek(Row& row, std::int64_t cx) {
    if (row.empty() || row.back().first < cx) return row.end();
    return std::lower_bound(
        row.begin(), row.end(), cx,
        [](const auto& e, std::int64_t v) { return e.first < v; });
}

} // namespace

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
    const std::int64_t span_x = cx1 - cx0 + 1, span_y = cy1 - cy0 + 1;
    if (span_x > kLongSpan && span_y <= kThinSpan) {
        strips_[0].by_lo.emplace(r.lo.y, slot);
        strips_[0].thickness = std::max(strips_[0].thickness, r.height());
        return;
    }
    if (span_y > kLongSpan && span_x <= kThinSpan) {
        strips_[1].by_lo.emplace(r.lo.x, slot);
        strips_[1].thickness = std::max(strips_[1].thickness, r.width());
        return;
    }
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
        Row& row = rows_[cy];
        for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
            auto it = seek(row, cx);
            if (it == row.end() || it->first != cx) {
                const auto cell = static_cast<std::uint32_t>(cells_.size());
                cells_.emplace_back();
                it = row.insert(it, {cx, cell});
            }
            cells_[it->second].push_back(slot);
        }
    }
}

std::vector<std::size_t> SpatialIndex::query(const Rect& window) const {
    std::vector<std::size_t> out;
    const std::int64_t cx0 = cell_of(window.lo.x), cx1 = cell_of(window.hi.x);
    const std::int64_t cy0 = cell_of(window.lo.y), cy1 = cell_of(window.hi.y);
    for (auto row = rows_.lower_bound(cy0);
         row != rows_.end() && row->first <= cy1; ++row)
        for (auto it = seek(row->second, cx0);
             it != row->second.end() && it->first <= cx1; ++it)
            for (std::uint32_t slot : cells_[it->second])
                if (rects_[slot].touches(window)) out.push_back(ids_[slot]);
    // A strip rect touching the window starts across the axis no lower than
    // the window's low edge minus the strip's thickness.
    const std::array<std::pair<Coord, Coord>, 2> across{
        std::pair{window.lo.y, window.hi.y}, std::pair{window.lo.x, window.hi.x}};
    for (std::size_t a = 0; a < 2; ++a) {
        const Strip& s = strips_[a];
        const auto [lo, hi] = across[a];
        for (auto it = s.by_lo.lower_bound(lo - s.thickness);
             it != s.by_lo.end() && it->first <= hi; ++it)
            if (rects_[it->second].touches(window))
                out.push_back(ids_[it->second]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace catlift::geom
