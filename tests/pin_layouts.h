// Layouts shared by the extraction and LIFT pin tests (ExtractPins,
// LiftPins): the canonical VCO, plain inverter chains of three sizes, and a
// chain with a shuffled track order and single-contact terminals.  The pins
// are FNV-1a-64 digests of everything the two stages produce, so any change
// in fragment, net, cut, device or fault-list order shows up as a mismatch.

#pragma once

#include "batch/result_store.h"
#include "circuits/vco.h"
#include "layout/cellgen.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace catlift::pins {

struct PinLayout {
    std::string name;
    layout::Layout layout;
    bool vco = false;  ///< LIFT classifies shorts with vco_net_blocks()
};

inline std::vector<PinLayout> pin_layouts() {
    std::vector<PinLayout> out;
    circuits::VcoOptions vopt;
    vopt.with_sources = false;
    out.push_back({"vco",
                   layout::generate_cell_layout(circuits::build_vco(vopt),
                                                layout::vco_cellgen_options()),
                   true});
    for (int n : {16, 64, 128})
        out.push_back({"chain" + std::to_string(n),
                       layout::generate_cell_layout(
                           circuits::build_inverter_chain(n, false)),
                       false});
    // 24 stages, tracks c0..c24 visited with stride 7 (a fixed shuffle),
    // and terminals of both polarities drawn with single contacts.
    layout::CellgenOptions o;
    for (int i = 0; i < 25; ++i)
        o.track_order.push_back(
            std::string("c").append(std::to_string((i * 7) % 25)));
    o.single_contact_terminals = {"MP3:d", "MN5:s", "MP10:g", "MN10:d",
                                  "MN17:g", "MP24:s", "MN24:d"};
    out.push_back({"chain24_shuffled",
                   layout::generate_cell_layout(
                       circuits::build_inverter_chain(24, false), o),
                   false});
    return out;
}

inline std::string hex64(std::uint64_t h) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace catlift::pins
