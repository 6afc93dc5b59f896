/**
 * @file
 * Reference checks the benchmark applies to the library's outputs.
 * Everything here is computed independently of the library: payloads
 * from the block address and a version the benchmark keeps, trial
 * counts from binomial coefficients, and Monte-Carlo SDC rates from
 * the closed-form miscorrection probability of a random word.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <cstdint>

#include "common/bitvec.hh"
#include "inject/campaign.hh"

namespace perfbench
{

/** Word @p w (0..7) of the 512-bit payload of (block, version). */
uint64_t payloadWord(uint32_t block, uint32_t version, unsigned w);

/** Fill @p out (512 bits) with the payload of (block, version). */
void fillPayload(aiecc::BitVec &out, uint32_t block, uint32_t version);

/** True iff all 512 bits of @p got equal the (block, version) payload. */
bool payloadMatches(const aiecc::BitVec &got, uint32_t block,
                    uint32_t version);

/** C(n, k), computed here rather than taken from the library. */
uint64_t choose(unsigned n, unsigned k);

/** Exhaustive k-pin trial count over five command patterns. */
inline uint64_t
expectedSweepTrials(unsigned injectablePins, unsigned k)
{
    return 5 * choose(injectablePins, k);
}

/** AIECC's claim: no silent or latent corruption in the sweep. */
inline bool
fullyCovered(const aiecc::CampaignStats &s)
{
    return s.sdc == 0 && s.mdc == 0;
}

/**
 * Probability that a uniformly random received word of a t-error
 * correcting RS(n, k) code over GF(256) decodes without a DUE, i.e.
 * lies within distance t of some codeword: V(n, t) / 256^(n-k).
 */
double rsRandomWordAcceptProb(unsigned n, unsigned k);

/** Whole-rank-error SDC rate of QPC RS(72,64). */
double qpcRank1SdcRate();

/** Whole-rank-error SDC rate of AMD RS(18,16) x 4 words. */
double amdRank1SdcRate();

/** Inclusive acceptance range for a count. */
struct CountInterval
{
    uint64_t lo = 0;
    uint64_t hi = 0;
};

/**
 * Two-sided interval holding a Binomial(trials, p) count with
 * probability at least 1 - alpha, via its Poisson limit (p is tiny for
 * every rate checked here).
 */
CountInterval binomialInterval(uint64_t trials, double p, double alpha);

/** True iff @p count lies in binomialInterval(trials, p, alpha). */
bool withinBinomial(uint64_t count, uint64_t trials, double p,
                    double alpha);

/** Significance of the Monte-Carlo rate checks (false alarms/cell). */
inline constexpr double kRateAlpha = 1e-6;

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
