/**
 * @file
 * Lightweight category-based event tracing (gem5 DPRINTF-style).
 *
 * Two renderings share one set of call sites and categories (see
 * sim/span_trace.h for the TraceCat list):
 *
 *  - Text lines: human-readable, tagged with the virtual timestamp,
 *    e.g. `[     12.345 us] fault: wp va=0x100003000 ino=7`. Enable
 *    from code (Trace::get().enable(TraceCat::Fault)) or for the whole
 *    process with DAXVM_TRACE, a comma list of category names or
 *    "all":
 *
 *        DAXVM_TRACE=fault,shootdown ./build/examples/webserver
 *
 *    The sink defaults to stderr and can be redirected to any FILE*
 *    (or captured into a string for tests).
 *
 *  - Structured spans: the same DAX_TRACE call sites double as Instant
 *    events in the SpanRecorder (Trace::get().spans()), and DAX_SPAN
 *    scopes add Begin/End pairs, exportable as Chrome trace_event JSON
 *    or folded stacks. Benches enable this with `--trace FILE`.
 *
 * Both are off by default and add one predictable branch per call site
 * when disabled. reset() restores the pristine state between tests.
 */
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/engine.h"
#include "sim/span_trace.h"
#include "sim/time.h"

namespace dax::sim {

/** Span track of a Cpu: engine thread id, or a scratch-Cpu track. */
inline std::uint32_t
spanTrackOf(const Cpu &cpu)
{
    const auto id = static_cast<std::uint32_t>(cpu.threadId());
    // Scratch Cpus commonly carry threadId -1: mask to 16 bits so the
    // scratch track space never wraps into the engine-thread range.
    return cpu.engine() != nullptr ? id
                                   : kScratchTrackBase + (id & 0xffffu);
}

class Trace
{
  public:
    /** Global tracer (reads DAXVM_TRACE on first use). */
    static Trace &get();

    void enable(TraceCat cat) { mask_ |= bit(cat); }
    void disable(TraceCat cat) { mask_ &= ~bit(cat); }
    void enableAll() { mask_ = ~0u; }
    void disableAll() { mask_ = 0; }

    bool
    enabled(TraceCat cat) const
    {
        return (mask_ & bit(cat)) != 0;
    }

    /** True when either rendering of @p cat is live. */
    bool
    wants(TraceCat cat) const
    {
        return enabled(cat) || spans_.enabled(cat);
    }

    /** Structured span recorder sharing the DAX_TRACE call sites. */
    SpanRecorder &spans() { return spans_; }

    /** Redirect output (nullptr buffers into captured()). */
    void setSink(std::FILE *sink) { sink_ = sink; }

    /** Captured output when the sink is nullptr (tests). */
    const std::string &captured() const { return captured_; }
    void clearCaptured() { captured_.clear(); }

    /** Emit one line (printf-style), tagged with @p now. */
    void log(TraceCat cat, Time now, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));

    /**
     * Emit one event through every live rendering: a text line when
     * the category's text mask is set, an Instant span event when the
     * recorder has it enabled. The call site is instrumented once.
     */
    void event(TraceCat cat, std::uint32_t track, int core, Time now,
               const char *fmt, ...)
        __attribute__((format(printf, 6, 7)));

    /** Parse a DAXVM_TRACE-style spec ("fault,mmap" or "all"). */
    void enableFromSpec(const std::string &spec);

    /**
     * Restore the pristine state: all categories off (text and spans),
     * sink back to stderr, captured text and recorded spans dropped.
     * Lets tests sandbox tracing instead of leaking enabled categories
     * into later tests in the same binary.
     */
    void reset();

  private:
    Trace();

    static unsigned
    bit(TraceCat cat)
    {
        return 1u << static_cast<unsigned>(cat);
    }

    unsigned mask_ = 0;
    std::FILE *sink_ = stderr;
    std::string captured_;
    SpanRecorder spans_;
};

/** Call-site helper: no-op (one branch) when the category is off. */
#define DAX_TRACE(cat, cpu, ...)                                        \
    do {                                                                \
        auto &traceInstance = ::dax::sim::Trace::get();                 \
        if (traceInstance.wants(cat))                                   \
            traceInstance.event(cat, ::dax::sim::spanTrackOf(cpu),      \
                                (cpu).coreId(), (cpu).now(),            \
                                __VA_ARGS__);                           \
    } while (0)

/**
 * RAII Begin/End span scope. Cheap when recording is off: the
 * constructor takes one predictable branch and leaves the scope inert.
 * The name must be a static string literal.
 */
class SpanScope
{
  public:
    SpanScope(TraceCat cat, const Cpu &cpu, const char *name)
    {
        SpanRecorder &rec = Trace::get().spans();
        if (rec.enabled(cat)) {
            rec_ = &rec;
            cpu_ = &cpu;
            cat_ = cat;
            name_ = name;
            rec.begin(cat, spanTrackOf(cpu), cpu.coreId(), cpu.now(),
                      name);
        }
    }

    ~SpanScope()
    {
        if (rec_ != nullptr) {
            rec_->end(cat_, spanTrackOf(*cpu_), cpu_->coreId(),
                      cpu_->now(), name_);
        }
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_ = nullptr;
    const Cpu *cpu_ = nullptr;
    const char *name_ = nullptr;
    TraceCat cat_{};
};

#define DAX_SPAN_CONCAT2(a, b) a##b
#define DAX_SPAN_CONCAT(a, b) DAX_SPAN_CONCAT2(a, b)

/** Scope the rest of the block as one named span on @p cpu's track. */
#define DAX_SPAN(cat, cpu, name)                                        \
    ::dax::sim::SpanScope DAX_SPAN_CONCAT(daxSpanScope_, __COUNTER__)(  \
        cat, cpu, name)

} // namespace dax::sim
