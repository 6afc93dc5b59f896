/**
 * @file
 * Shared pieces of the AIECC benchmark driver: the workload interface,
 * the timed-repetition loop's statistics, and the metric sink that
 * becomes the final JSON line.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** The q-quantile (0..1) of @p values by linear interpolation. */
double quantile(std::vector<double> values, double q);

class SpanRecorder;

/** One named metric with its unit, in output order. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

using Metrics = std::vector<Metric>;

/**
 * One benchmark workload.  A run is set-up followed by whole rounds;
 * a round is repsPerRound() fixed-size repetitions, and every round
 * performs the same operations, so failures are the same share of
 * attempts in every run.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Cold set-up: build engines and reference state. */
    virtual void setup() = 0;

    virtual size_t repsPerRound() const = 0;

    /**
     * Run repetition @p rep of the current round; return the number
     * of operations it performed.  With @p spans given, record a span
     * (child of @p parent) around every call into the library.
     */
    virtual uint64_t runRep(size_t rep, SpanRecorder *spans,
                            uint32_t parent) = 0;

    /**
     * End-of-run checks of the library's outputs against references
     * computed here; false with @p why set on the first violation.
     */
    virtual bool verify(std::string &why) const = 0;

    uint64_t attempted() const { return nAttempted; }
    uint64_t failed() const { return nFailed; }

  protected:
    uint64_t nAttempted = 0;
    uint64_t nFailed = 0;
};

std::unique_ptr<Workload> makeTrafficQpcRead(uint64_t seed);
std::unique_ptr<Workload> makeTrafficAmdWriteFaults(uint64_t seed);
std::unique_ptr<Workload> makeCampaignCcca(uint64_t seed);
std::unique_ptr<Workload> makeMonteCarloData(uint64_t seed);

/**
 * Time every library layer in isolation on inputs derived from
 * @p seed (the traffic streams, campaign trials and Monte-Carlo error
 * bursts) and append the per-layer metrics.
 */
void runLayerSuite(uint64_t seed, SpanRecorder &spans, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
