#include "check.hh"

#include <cmath>

#include "ddr4/burst.hh"

namespace perfbench
{

namespace
{

uint64_t
splitmix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** log P(X = k) for X ~ Poisson(lambda). */
double
logPoisson(uint64_t k, double lambda)
{
    const double kd = static_cast<double>(k);
    return kd * std::log(lambda) - lambda - std::lgamma(kd + 1.0);
}

} // namespace

uint64_t
payloadWord(uint32_t block, uint32_t version, unsigned w)
{
    return splitmix((static_cast<uint64_t>(block) << 32 | version) * 8 + w);
}

void
fillPayload(aiecc::BitVec &out, uint32_t block, uint32_t version)
{
    for (unsigned w = 0; w < aiecc::Burst::dataBits / 64; ++w)
        out.setField(64 * w, 64, payloadWord(block, version, w));
}

bool
payloadMatches(const aiecc::BitVec &got, uint32_t block, uint32_t version)
{
    if (got.size() != aiecc::Burst::dataBits)
        return false;
    for (unsigned w = 0; w < aiecc::Burst::dataBits / 64; ++w) {
        if (got.getField(64 * w, 64) != payloadWord(block, version, w))
            return false;
    }
    return true;
}

uint64_t
choose(unsigned n, unsigned k)
{
    if (k > n)
        return 0;
    uint64_t c = 1;
    for (unsigned i = 1; i <= k; ++i)
        c = c * (n - k + i) / i; // exact: c * (n-k+i) is C(n-k+i, i) * i
    return c;
}

double
rsRandomWordAcceptProb(unsigned n, unsigned k)
{
    const unsigned t = (n - k) / 2;
    double volume = 0.0;
    for (unsigned i = 0; i <= t; ++i)
        volume += static_cast<double>(choose(n, i)) * std::pow(255.0, i);
    return volume / std::pow(256.0, n - k);
}

double
qpcRank1SdcRate()
{
    return rsRandomWordAcceptProb(72, 64);
}

double
amdRank1SdcRate()
{
    return std::pow(rsRandomWordAcceptProb(18, 16), 4);
}

CountInterval
binomialInterval(uint64_t trials, double p, double alpha)
{
    const double lambda = static_cast<double>(trials) * p;
    CountInterval iv;
    if (lambda <= 0.0)
        return iv; // only a zero count is possible
    // Walk the CDF upwards; lo is the first k whose CDF exceeds
    // alpha/2, hi the first k whose CDF reaches 1 - alpha/2.
    double cdf = 0.0;
    bool haveLo = false;
    for (uint64_t k = 0;; ++k) {
        cdf += std::exp(logPoisson(k, lambda));
        if (!haveLo && cdf > alpha / 2) {
            iv.lo = k;
            haveLo = true;
        }
        if (cdf >= 1.0 - alpha / 2) {
            iv.hi = k;
            return iv;
        }
    }
}

bool
withinBinomial(uint64_t count, uint64_t trials, double p, double alpha)
{
    const CountInterval iv = binomialInterval(trials, p, alpha);
    return count >= iv.lo && count <= iv.hi;
}

} // namespace perfbench
