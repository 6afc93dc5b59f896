#include "spans.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

SpanRecorder::SpanRecorder(size_t capacity) : ring(capacity ? capacity : 1)
{
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const uint64_t kept = std::min<uint64_t>(nextId, ring.size());
    for (uint64_t id = nextId - kept + 1; id <= nextId; ++id) {
        const Span &s = ring[id % ring.size()];
        std::fprintf(f,
                     "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"op\":%llu,"
                     "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                     s.id, s.parent, s.name,
                     static_cast<unsigned long long>(s.op),
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs));
    }
    const bool ok = !std::ferror(f);
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
