// catlift/obs/trace.h
//
// Scoped span timers feeding (a) the per-phase histograms of the global
// metrics registry and (b) an in-memory trace buffer exported as Chrome
// `trace_event` JSON ("X" complete events), loadable in Perfetto or
// chrome://tracing.  Every thread owns a lane (tid) that survives the
// thread itself; campaign worker threads name their lane "worker-N" so a
// fault simulation shows up as a span on the worker that ran it, with the
// kernel phases (analyze/factor/refactor/solve/newton/store_append)
// nested underneath by start/duration containment.
//
// Everything is compiled in but off by default.  The entire off path of
// a `Span` is one relaxed atomic load and a branch -- no clock read, no
// allocation -- so a traced-off campaign pays next to nothing for the
// spans; bench_flow measures what tracing on costs as
// `flow.trace_overhead`.

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace catlift::obs {

// ---------------------------------------------------------------------------
// Runtime enable mask.

enum : unsigned {
    kMetricsBit = 1u,  ///< spans feed phase histograms in Registry::global()
    kTracingBit = 2u,  ///< spans append Chrome trace events to their lane
};

namespace detail {
extern std::atomic<unsigned> g_enabled_mask;
} // namespace detail

inline unsigned enabled_mask() noexcept {
    return detail::g_enabled_mask.load(std::memory_order_relaxed);
}
inline bool metrics_enabled() noexcept {
    return (enabled_mask() & kMetricsBit) != 0;
}
inline bool tracing_enabled() noexcept {
    return (enabled_mask() & kTracingBit) != 0;
}
void enable_metrics(bool on) noexcept;
void enable_tracing(bool on) noexcept;

/// Nanoseconds since the process trace epoch (steady clock).
std::uint64_t now_ns() noexcept;

// ---------------------------------------------------------------------------
// Phases -- the stable span vocabulary (see docs/trace-schema.md).

enum class Phase : std::uint8_t {
    FaultSim,     ///< one fault simulation (injection + nominal-vs-faulty run)
    Nominal,      ///< the campaign's fault-free reference simulation
    Analyze,      ///< sparse symbolic analysis / ordering
    Factor,       ///< full LU factorization (dense, or sparse with fill pass)
    Refactor,     ///< sparse numeric refactorization on the known pattern
    Solve,        ///< forward/backward substitution
    Newton,       ///< one Newton-Raphson solve to convergence
    StoreAppend,  ///< result-store record encode + append + flush
    kCount
};

const char* phase_name(Phase p) noexcept;      // e.g. "fault", "newton"
const char* phase_category(Phase p) noexcept;  // "fault" | "kernel" | "store"

// ---------------------------------------------------------------------------
// Trace events.

struct TraceArg {
    const char* key = "";
    enum class Kind : std::uint8_t { I64, F64, Str } kind = Kind::I64;
    std::int64_t i = 0;
    double d = 0.0;
    std::string s;
};

inline TraceArg arg(const char* key, std::int64_t v) {
    TraceArg a;
    a.key = key;
    a.kind = TraceArg::Kind::I64;
    a.i = v;
    return a;
}
inline TraceArg arg(const char* key, double v) {
    TraceArg a;
    a.key = key;
    a.kind = TraceArg::Kind::F64;
    a.d = v;
    return a;
}
inline TraceArg arg(const char* key, std::string v) {
    TraceArg a;
    a.key = key;
    a.kind = TraceArg::Kind::Str;
    a.s = std::move(v);
    return a;
}

struct TraceEvent {
    const char* name = "";
    const char* cat = "";
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
    std::vector<TraceArg> args;
};

// ---------------------------------------------------------------------------
// Span -- RAII scoped timer.  Construct with the phase; on destruction
// (or explicit end()) it records the duration into the phase histogram
// when metrics are on and appends a complete event to the calling
// thread's lane when tracing is on.  Args attach only when tracing is on.

class Span {
public:
    explicit Span(Phase p) noexcept : mask_(enabled_mask()) {
        if (mask_ != 0) {
            phase_ = p;
            t0_ = now_ns();
            live_ = true;
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
        if (live_) finish();
    }

    /// Re-classify a live span (e.g. Factor that turned out a Refactor).
    void set_phase(Phase p) noexcept {
        if (live_) phase_ = p;
    }
    void arg(const char* key, std::int64_t v);
    void arg(const char* key, double v);
    void arg(const char* key, std::string v);
    /// Close early (idempotent; the destructor becomes a no-op).
    void end() {
        if (live_) {
            finish();
            live_ = false;
        }
    }

private:
    void finish();

    unsigned mask_ = 0;
    bool live_ = false;
    Phase phase_ = Phase::FaultSim;
    std::uint64_t t0_ = 0;
    std::vector<TraceArg> args_;
};

/// The phase histogram a span records into ("phase.<name>.seconds" in
/// Registry::global()); exposed so reports can read p50/p95/max.
class Histogram;
Histogram& phase_histogram(Phase p);

// ---------------------------------------------------------------------------
// Lanes and export.

/// Name the calling thread's trace lane ("main", "worker-3", ...).
void set_lane_name(const std::string& name);

/// Append a pre-built event to the calling thread's lane (tracing must be
/// checked by the caller; used by Span and the event bridge).
void append_event(TraceEvent ev);

/// All buffered events, every lane, sorted by (tid, ts).
std::vector<TraceEvent> trace_snapshot();
std::size_t trace_event_count();
/// Drop all buffered events (lanes and names survive).
void trace_reset();

/// Chrome trace_event JSON: {"traceEvents":[...]} with one "M" metadata
/// event per named lane and all spans as "X" complete events sorted by
/// (tid, ts) so every lane's timestamps are monotonic in file order.
void write_chrome_trace(std::ostream& os);
/// Convenience: write to `path`, returns false if the file can't open.
bool write_chrome_trace_file(const std::string& path);

/// Escape a string for embedding inside a JSON string literal.
std::string json_escape(const std::string& s);

} // namespace catlift::obs
