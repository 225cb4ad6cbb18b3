#include "netlist/units.h"

#include "geom/base.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>

namespace catlift::netlist {

namespace {

bool is_alpha(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0;
}

char lower(char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// Letters that may *lead* a dimension-unit tail ("V", "A", "s", "ohm",
/// "Hz", and after a multiplier also "F" as in "10uF").  Anything else
/// starting the tail -- "10x5", "3q", "3mq" -- is garbage, not a unit,
/// and must be rejected rather than silently parsed as a neutral
/// multiplier.  A *leading* "F" never reaches this set (it is femto, as
/// SPICE has always read it).
bool is_unit_letter(char c) {
    switch (lower(c)) {
        case 'v':  // volt
        case 'a':  // ampere
        case 's':  // second / siemens
        case 'o':  // ohm
        case 'h':  // henry / hertz
        case 'f':  // farad (after a multiplier; leading 'f' is femto)
        case 'm':  // meter, as in "W=2um" (leading 'm' is milli)
            return true;
        default:
            return false;
    }
}

/// Multiplier of the engineering suffix starting the string, and how many
/// characters it consumed; consumed == 0 when the first character is not
/// a multiplier letter.
std::pair<double, std::size_t> suffix_multiplier(std::string_view s) {
    if (s.empty()) return {1.0, 0};
    const char c0 = lower(s[0]);
    // "meg" must be checked before "m".
    if (s.size() >= 3 && c0 == 'm' && lower(s[1]) == 'e' && lower(s[2]) == 'g')
        return {1e6, 3};
    switch (c0) {
        case 'f': return {1e-15, 1};
        case 'p': return {1e-12, 1};
        case 'n': return {1e-9, 1};
        case 'u': return {1e-6, 1};
        case 'm': return {1e-3, 1};
        case 'k': return {1e3, 1};
        case 'g': return {1e9, 1};
        case 't': return {1e12, 1};
        default: return {1.0, 0};
    }
}

bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

bool is_hex_digit(char c) {
    return (c >= '0' && c <= '9') || (lower(c) >= 'a' && lower(c) <= 'f');
}

/// Whether `s` opens with a hexadecimal float ("0x1p4", "0X.8"): what
/// strtod would have read as one, and what a SPICE value field rejects.
bool is_hex_literal(std::string_view s) {
    if (s.size() < 3 || s[0] != '0' || lower(s[1]) != 'x') return false;
    if (is_hex_digit(s[2])) return true;
    return s[2] == '.' && s.size() > 3 && is_hex_digit(s[3]);
}

/// Whether a decimal literal that std::from_chars found out of range
/// overflowed rather than underflowed: |value| lies in
/// [10^(p+e-1), 10^(p+e)), where p is the decimal place of its leading
/// nonzero digit and e its exponent, so the sign of p+e tells.
bool overflowed(std::string_view lit) {
    long long place = 0;
    bool leading = true, fraction = false;
    std::size_t i = 0;
    for (; i < lit.size() && lower(lit[i]) != 'e'; ++i) {
        if (lit[i] == '.') {
            fraction = true;
        } else if (leading && lit[i] == '0') {
            if (fraction) --place;
        } else {
            leading = false;
            if (!fraction) ++place;
        }
    }
    long long exp = 0;
    if (i + 1 < lit.size()) {
        std::string_view e = lit.substr(i + 1);
        if (e[0] == '+') e.remove_prefix(1);
        if (std::from_chars(e.data(), e.data() + e.size(), exp).ec ==
            std::errc::result_out_of_range)
            exp = e[0] == '-' ? -(1LL << 60) : (1LL << 60);
    }
    return place + exp > 0;
}

} // namespace

double parse_value(std::string_view text) {
    if (text.empty()) throw Error("parse_value: empty numeric field");
    const std::string buf(text);
    // The C grammar strtod reads, minus its locale: leading white space, an
    // optional sign, then a decimal number, "inf" or "nan".  from_chars
    // takes no '+', so a leading one is skipped here -- but not "+-5".
    std::size_t start = 0;
    while (start < text.size() && is_space(text[start])) ++start;
    const bool plus = start < text.size() && text[start] == '+';
    if (plus) ++start;
    const std::string_view num = text.substr(start);
    const bool minus = !num.empty() && num[0] == '-';
    double base = 0.0;
    const auto [end, ec] =
        std::from_chars(num.data(), num.data() + num.size(), base);
    if (ec == std::errc::invalid_argument || (plus && minus))
        throw Error("parse_value: not a number: '" + buf + "'");
    const std::string_view lit = num.substr(0, end - num.data());
    // Out of range leaves `base` unset; strtod gave +-HUGE_VAL or zero.
    if (ec == std::errc::result_out_of_range)
        base = std::copysign(overflowed(lit.substr(minus ? 1 : 0))
                                 ? std::numeric_limits<double>::infinity()
                                 : 0.0,
                             minus ? -1.0 : 1.0);
    if (!std::isfinite(base))
        throw Error("parse_value: non-finite value: '" + buf + "'");
    // SPICE has no hex floats; from_chars stopped at the 'x' of one.
    if (is_hex_literal(num.substr(minus ? 1 : 0)))
        throw Error("parse_value: hex literal rejected: '" + buf + "'");

    const std::string_view rest = num.substr(lit.size());
    const auto [mult, consumed] = suffix_multiplier(rest);
    std::string_view tail = rest.substr(consumed);
    // Whatever follows the (optional) multiplier must be a purely
    // alphabetic unit annotation starting with a known unit letter.
    // "10uF", "5V", "1mohm" pass; "10x5", "3q", "3mq", "10k9" do not.
    if (!tail.empty()) {
        if (!is_unit_letter(tail[0]))
            throw Error("parse_value: bad suffix on '" + buf + "'");
        for (char c : tail)
            if (!is_alpha(c))
                throw Error("parse_value: bad suffix on '" + buf + "'");
    }
    // The multiplier can push a finite mantissa over the double range
    // ("2e305meg"); the scaled value must be finite too.
    const double scaled = base * mult;
    if (!std::isfinite(scaled))
        throw Error("parse_value: non-finite value: '" + buf + "'");
    return scaled;
}

bool is_value(std::string_view text) {
    try {
        parse_value(text);
        return true;
    } catch (const Error&) {
        return false;
    }
}

std::string format_value(double v) {
    if (v == 0.0) return std::signbit(v) ? "-0" : "0";
    if (!std::isfinite(v))
        throw Error("format_value: non-finite value");
    struct Suffix {
        double scale;
        const char* tag;
    };
    static constexpr Suffix table[] = {
        {1e12, "t"}, {1e9, "g"},  {1e6, "meg"}, {1e3, "k"},   {1.0, ""},
        {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"},  {1e-12, "p"}, {1e-15, "f"},
    };
    // Emit the shortest engineering form that parses back to exactly `v`
    // (scaling divides by a power of ten, which is not always exactly
    // invertible, and the old fixed 6-digit precision silently rounded) --
    // falling back to plain max_digits10 scientific, which round-trips by
    // definition.
    const double mag = std::fabs(v);
    auto try_precision = [&](double scaled, const char* tag) -> std::string {
        for (int prec = 6; prec <= std::numeric_limits<double>::max_digits10;
             ++prec) {
            std::ostringstream os;
            os << std::setprecision(prec) << scaled << tag;
            std::string s = os.str();
            // A rounded-up intermediate can overflow past DBL_MAX and be
            // rejected as non-finite; treat that like any other mismatch.
            try {
                if (parse_value(s) == v) return s;
            } catch (const Error&) {
            }
        }
        return {};
    };
    for (const auto& s : table) {
        if (mag >= s.scale * 0.9999999) {
            std::string out = try_precision(v / s.scale, s.tag);
            if (!out.empty()) return out;
            break;
        }
    }
    std::string out = try_precision(v, "");
    if (!out.empty()) return out;
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
    return os.str();
}

} // namespace catlift::netlist
