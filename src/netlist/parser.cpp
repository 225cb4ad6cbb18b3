#include "netlist/parser.h"

#include "netlist/units.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <fstream>
#include <sstream>

namespace catlift::netlist {

namespace {

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

/// Logical line after continuation-joining, with its starting line number.
struct LogicalLine {
    std::string text;
    int line_no = 0;
};

[[noreturn]] void fail(int line_no, const std::string& msg) {
    throw Error("spice parse error (line " + std::to_string(line_no) +
                "): " + msg);
}

/// Strip in-line comments introduced by ';' or '$ '.
std::string strip_comment(const std::string& s) {
    std::size_t cut = s.size();
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == ';') {
            cut = i;
            break;
        }
        if (s[i] == '$' && (i + 1 == s.size() || std::isspace(static_cast<unsigned char>(s[i + 1])))) {
            cut = i;
            break;
        }
    }
    return s.substr(0, cut);
}

/// Tokenise one logical line.  Parentheses and '=' become separators so that
/// "PULSE(0 5 0 10n)" and "W=10u" split cleanly; the '(' of "V(3)" likewise.
std::vector<std::string> tokenize(const std::string& s) {
    std::vector<std::string> out;
    std::string cur;
    auto flush = [&] {
        if (!cur.empty()) {
            out.push_back(cur);
            cur.clear();
        }
    };
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
            c == ')' || c == '=' || c == ',') {
            flush();
        } else {
            cur.push_back(c);
        }
    }
    flush();
    return out;
}

/// Parse the trailing portion of a V/I card into a SourceSpec.
/// `toks` holds the tokens after the two node names.
SourceSpec parse_source(const std::vector<std::string>& toks, int line_no) {
    SourceSpec spec;
    if (toks.empty()) return spec;  // defaults to DC 0

    std::size_t i = 0;
    // Optional leading "DC <value>" or bare value.
    if (lower(toks[i]) == "dc") {
        ++i;
        if (i >= toks.size()) fail(line_no, "DC needs a value");
        spec.dc = parse_value(toks[i++]);
    } else if (is_value(toks[i])) {
        spec.dc = parse_value(toks[i++]);
    }
    if (i < toks.size() && lower(toks[i]) == "ac") {
        ++i;
        if (i >= toks.size()) fail(line_no, "AC needs a magnitude");
        spec.ac_mag = parse_value(toks[i++]);
    }
    if (i >= toks.size()) return spec;

    const std::string kw = lower(toks[i]);
    auto num = [&](std::size_t k, double dflt) {
        return (i + 1 + k < toks.size() + 0u && i + 1 + k < toks.size())
                   ? parse_value(toks[i + 1 + k])
                   : dflt;
    };
    auto have = [&](std::size_t k) { return i + 1 + k < toks.size(); };

    if (kw == "pulse") {
        if (!have(1)) fail(line_no, "PULSE needs at least v1 v2");
        spec.kind = SourceSpec::Kind::Pulse;
        spec.v1 = num(0, 0);
        spec.v2 = num(1, 0);
        spec.td = num(2, 0);
        spec.tr = num(3, 1e-9);
        spec.tf = num(4, 1e-9);
        spec.pw = num(5, 1e-3);
        spec.per = num(6, 2e-3);
        spec.dc = spec.v1;
    } else if (kw == "pwl") {
        spec.kind = SourceSpec::Kind::Pwl;
        std::size_t k = 0;
        while (have(k) && have(k + 1)) {
            const double t = parse_value(toks[i + 1 + k]);
            const double v = parse_value(toks[i + 2 + k]);
            if (!spec.pwl.empty() && t <= spec.pwl.back().first)
                fail(line_no, "PWL times must increase");
            spec.pwl.emplace_back(t, v);
            k += 2;
        }
        if (spec.pwl.empty()) fail(line_no, "PWL needs (t,v) pairs");
        spec.dc = spec.pwl.front().second;
    } else if (kw == "sin") {
        if (!have(2)) fail(line_no, "SIN needs vo va freq");
        spec.kind = SourceSpec::Kind::Sin;
        spec.vo = num(0, 0);
        spec.va = num(1, 0);
        spec.freq = num(2, 1e6);
        spec.sin_td = num(3, 0);
        spec.theta = num(4, 0);
        spec.dc = spec.vo;
    } else {
        fail(line_no, "unknown source spec '" + toks[i] + "'");
    }
    return spec;
}

/// Parse "key value key value ..." pairs (tokenizer removed '=').
void parse_model_params(MosModel& m, const std::vector<std::string>& toks,
                        std::size_t start, int line_no) {
    for (std::size_t i = start; i + 1 < toks.size(); i += 2) {
        const std::string key = lower(toks[i]);
        const double v = parse_value(toks[i + 1]);
        if (key == "vto" || key == "vt0")
            m.vto = v;
        else if (key == "kp")
            m.kp = v;
        else if (key == "lambda")
            m.lambda = v;
        else if (key == "tox")
            m.tox = v;
        else if (key == "cgso")
            m.cgso = v;
        else if (key == "cgdo")
            m.cgdo = v;
        else if (key == "cj")
            m.cj_bottom = v;
        else
            fail(line_no, "unknown model parameter '" + key + "'");
    }
}

} // namespace

Circuit parse_spice(std::istream& in) {
    // Phase 1: raw lines -> logical lines (handle '+' continuations).
    std::vector<LogicalLine> lines;
    std::string raw;
    int line_no = 0;
    bool first = true;
    std::string title;
    while (std::getline(in, raw)) {
        ++line_no;
        if (first) {
            title = raw;
            first = false;
            continue;
        }
        if (raw.empty()) continue;
        if (raw[0] == '*') continue;  // comment card
        raw = strip_comment(raw);
        // Trim trailing whitespace.
        while (!raw.empty() && std::isspace(static_cast<unsigned char>(raw.back())))
            raw.pop_back();
        if (raw.empty()) continue;
        if (raw[0] == '+') {
            if (lines.empty()) fail(line_no, "continuation without a card");
            lines.back().text.append(" ").append(raw, 1);
        } else {
            lines.push_back({raw, line_no});
        }
    }

    Circuit ckt;
    ckt.title = title;

    // Phase 2: interpret each card.
    for (const LogicalLine& ll : lines) {
        const auto toks = tokenize(ll.text);
        if (toks.empty()) continue;
        const std::string head = lower(toks[0]);

        if (head[0] == '.') {
            if (head == ".end") break;
            if (head == ".model") {
                if (toks.size() < 3) fail(ll.line_no, ".model needs name+type");
                MosModel m;
                m.name = toks[1];
                const std::string type = lower(toks[2]);
                if (type == "nmos")
                    m.is_nmos = true;
                else if (type == "pmos")
                    m.is_nmos = false;
                else
                    fail(ll.line_no, "unsupported model type " + type);
                parse_model_params(m, toks, 3, ll.line_no);
                ckt.add_model(std::move(m));
            } else if (head == ".tran") {
                if (toks.size() < 3) fail(ll.line_no, ".tran tstep tstop");
                TranSpec t;
                t.tstep = parse_value(toks[1]);
                t.tstop = parse_value(toks[2]);
                if (toks.size() > 3) t.tstart = parse_value(toks[3]);
                ckt.tran = t;
            } else if (head == ".ac") {
                // .ac dec N fstart fstop  (only the decade sweep form)
                if (toks.size() < 5 || lower(toks[1]) != "dec")
                    fail(ll.line_no, ".ac dec N fstart fstop");
                AcCard a;
                const double points = parse_value(toks[2]);
                a.fstart = parse_value(toks[3]);
                a.fstop = parse_value(toks[4]);
                // Range-checked before the cast: converting an
                // out-of-range double to int is undefined behaviour.
                if (!(points >= 1 && points <= INT_MAX) || a.fstart <= 0 ||
                    a.fstop <= a.fstart)
                    fail(ll.line_no, "bad .ac parameters");
                a.points_per_decade = static_cast<int>(points);
                ckt.ac = a;
            } else if (head == ".save" || head == ".print" ||
                       head == ".plot") {
                // Accept forms: .save V(3) V(out) ... ; tokens arrive as
                // "v" "3" "v" "out" after tokenisation, or "tran" first.
                for (std::size_t i = 1; i + 1 <= toks.size(); ++i) {
                    const std::string t = lower(toks[i]);
                    if (t == "tran" || t == "v") continue;
                    ckt.save_nodes.push_back(canon_node(toks[i]));
                }
            } else if (head == ".ic") {
                // ".ic V(node) value ..." -- tokens arrive as: v node value.
                // Initial conditions are carried on capacitor IC= fields in
                // this subset; the card is validated but otherwise ignored.
                if ((toks.size() - 1) % 3 != 0)
                    fail(ll.line_no, ".ic expects V(node)=value groups");
                for (std::size_t i = 1; i + 3 <= toks.size(); i += 3) {
                    if (lower(toks[i]) != "v")
                        fail(ll.line_no, ".ic expects V(node)=value");
                    parse_value(toks[i + 2]);
                }
            } else if (head == ".options" || head == ".option" || head == ".temp") {
                // accepted and ignored (documented subset)
            } else {
                fail(ll.line_no, "unsupported card " + head);
            }
            continue;
        }

        // Element card.
        const char kind = head[0];
        Device d;
        d.name = toks[0];
        switch (kind) {
            case 'r': {
                if (toks.size() < 4) fail(ll.line_no, "R card: Rx n1 n2 val");
                d.kind = DeviceKind::Resistor;
                d.nodes = {toks[1], toks[2]};
                d.value = parse_value(toks[3]);
                if (d.value <= 0) fail(ll.line_no, "non-positive resistance");
                break;
            }
            case 'c': {
                if (toks.size() < 4) fail(ll.line_no, "C card: Cx n1 n2 val");
                d.kind = DeviceKind::Capacitor;
                d.nodes = {toks[1], toks[2]};
                d.value = parse_value(toks[3]);
                if (d.value <= 0) fail(ll.line_no, "non-positive capacitance");
                for (std::size_t i = 4; i + 1 < toks.size() + 1; i += 2) {
                    if (i + 1 < toks.size() && lower(toks[i]) == "ic")
                        d.ic = parse_value(toks[i + 1]);
                }
                break;
            }
            case 'v':
            case 'i': {
                if (toks.size() < 3) fail(ll.line_no, "source: Xx n+ n- spec");
                d.kind = (kind == 'v') ? DeviceKind::VSource
                                       : DeviceKind::ISource;
                d.nodes = {toks[1], toks[2]};
                d.source = parse_source(
                    std::vector<std::string>(toks.begin() + 3, toks.end()),
                    ll.line_no);
                break;
            }
            case 'm': {
                if (toks.size() < 6)
                    fail(ll.line_no, "M card: Mx nd ng ns nb model [W= L=]");
                d.kind = DeviceKind::Mosfet;
                d.nodes = {toks[1], toks[2], toks[3], toks[4]};
                d.model = toks[5];
                for (std::size_t i = 6; i + 1 < toks.size(); i += 2) {
                    const std::string key = lower(toks[i]);
                    const double v = parse_value(toks[i + 1]);
                    if (key == "w")
                        d.w = v;
                    else if (key == "l")
                        d.l = v;
                    else
                        fail(ll.line_no, "unknown M parameter " + key);
                }
                break;
            }
            default:
                fail(ll.line_no, "unsupported element '" + toks[0] + "'");
        }
        try {
            ckt.add(std::move(d));
        } catch (const Error& e) {
            fail(ll.line_no, e.what());
        }
    }

    // Validate model references now that all cards are read.
    for (const Device& d : ckt.devices) {
        if (d.kind == DeviceKind::Mosfet)
            require(ckt.models.count(d.model) > 0,
                    "deck references missing model '" + d.model + "' on " +
                        d.name);
    }
    return ckt;
}

Circuit parse_spice(const std::string& text) {
    std::istringstream is(text);
    return parse_spice(is);
}

Circuit parse_spice_file(const std::string& path) {
    std::ifstream f(path);
    require(f.good(), "cannot open spice deck: " + path);
    return parse_spice(f);
}

} // namespace catlift::netlist
