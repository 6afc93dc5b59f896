/**
 * @file
 * Shows that each of the benchmark's correctness checks can fail: a
 * check that cannot reject a wrong output proves nothing.
 *
 * Build and run:  cmake --build .bench_build --target perfbench_check_test
 *                 && ctest --test-dir .bench_build
 */

#include <cstdio>

#include "check.hh"
#include "ddr4/burst.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

void
payloadCheckRejectsOneFlippedBit()
{
    aiecc::BitVec data(aiecc::Burst::dataBits);
    fillPayload(data, 1234, 7);
    expect(payloadMatches(data, 1234, 7), "payload matches itself");
    expect(!payloadMatches(data, 1234, 8), "other version mismatches");
    expect(!payloadMatches(data, 1235, 7), "other block mismatches");
    for (size_t bit : {size_t{0}, size_t{63}, size_t{300}, size_t{511}}) {
        aiecc::BitVec flipped = data;
        flipped.flip(bit);
        expect(!payloadMatches(flipped, 1234, 7),
               "a payload with one flipped bit mismatches");
    }
}

void
coverageCheckRejectsSyntheticSdc()
{
    aiecc::CampaignStats stats;
    aiecc::TrialResult ok;
    ok.outcome = aiecc::Outcome::Corrected;
    ok.detected = true;
    stats.add(ok);
    expect(fullyCovered(stats), "a corrected trial is covered");

    aiecc::TrialResult sdc;
    sdc.outcome = aiecc::Outcome::Sdc;
    sdc.sdc = true;
    aiecc::CampaignStats withSdc = stats;
    withSdc.add(sdc);
    expect(!fullyCovered(withSdc), "an SDC trial fails the coverage check");

    aiecc::TrialResult mdc;
    mdc.outcome = aiecc::Outcome::Mdc;
    mdc.mdc = true;
    aiecc::CampaignStats withMdc = stats;
    withMdc.add(mdc);
    expect(!fullyCovered(withMdc), "an MDC trial fails the coverage check");

    expect(expectedSweepTrials(27, 1) == 135, "5 * C(27,1)");
    expect(expectedSweepTrials(27, 2) == 1755, "5 * C(27,2)");
    expect(expectedSweepTrials(27, 3) == 14625, "5 * C(27,3)");
}

void
rateCheckRejectsTwiceTheAnalyticRate()
{
    const double qpc = qpcRank1SdcRate();
    const double amd = amdRank1SdcRate();
    expect(qpc > 2.35e-4 && qpc < 2.37e-4, "QPC V(72,4)/256^8 ~ 2.36e-4");
    expect(amd > 2.40e-5 && amd < 2.42e-5, "AMD rate ~ 2.41e-5");

    // The issue's reference point: 47 SDC in 200k QPC trials.
    expect(withinBinomial(47, 200000, qpc, kRateAlpha),
           "47 of 200k QPC trials is inside the interval");
    for (const auto &[trials, p] : {std::pair{uint64_t{1000000}, qpc},
                                    std::pair{uint64_t{4000000}, amd}}) {
        const uint64_t expected = static_cast<uint64_t>(trials * p);
        expect(withinBinomial(expected, trials, p, kRateAlpha),
               "the expected count is inside the interval");
        expect(!withinBinomial(2 * expected, trials, p, kRateAlpha),
               "twice the analytic rate is outside the interval");
        expect(!withinBinomial(0, trials, p, kRateAlpha),
               "zero SDC is outside the interval");
    }
}

} // namespace

int
main()
{
    payloadCheckRejectsOneFlippedBit();
    coverageCheckRejectsSyntheticSdc();
    rateCheckRejectsTwiceTheAnalyticRate();
    if (failures == 0)
        std::printf("perfbench checks: all passed\n");
    return failures == 0 ? 0 : 1;
}
