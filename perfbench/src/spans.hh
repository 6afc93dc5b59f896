/**
 * @file
 * In-memory span recorder for the traced run.  Spans go into a fixed
 * ring (the newest `capacity` survive), so the per-span cost does not
 * change over a run, and are written as JSON lines when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

struct Span
{
    const char *name = nullptr; ///< static string: the layer call
    uint64_t startNs = 0;       ///< since the recorder's epoch
    uint64_t endNs = 0;         ///< 0 while open
    uint32_t id = 0;            ///< 1-based; 0 = no span
    uint32_t parent = 0;        ///< enclosing span, 0 at the root
    uint64_t op = 0;            ///< access, trial or repetition id
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(size_t capacity);

    /** Open a span; returns its id for end(). */
    uint32_t
    begin(const char *name, uint32_t parent, uint64_t op)
    {
        const uint32_t id = ++nextId;
        Span &s = ring[id % ring.size()];
        s = Span{name, nowNs(), 0, id, parent, op};
        return id;
    }

    /** Close span @p id and return its duration in ns. */
    uint64_t
    end(uint32_t id)
    {
        const uint64_t t = nowNs();
        Span &s = ring[id % ring.size()];
        if (s.id != id)
            return 0; // overwritten by newer spans while open
        s.endNs = t;
        return t - s.startNs;
    }

    /** Spans recorded over the run (kept or overwritten). */
    uint64_t recorded() const { return nextId; }

    /** Write the surviving spans, oldest first; false on I/O error. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::vector<Span> ring;
    uint32_t nextId = 0;
    Clock::time_point epoch = Clock::now();

    uint64_t
    nowNs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch)
                .count());
    }
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
