/**
 * @file
 * The CCCA campaign workload: exhaustive 1-, 2- and 3-pin sweeps over
 * the five command patterns at AIECC, plus the 1- and 2-pin sweeps at
 * DDR4 DECC for contrast, with an Observer and StatsRegistry attached
 * as the paper benches run them.
 */

#include "bench.hh"
#include "check.hh"
#include "ddr4/pins.hh"
#include "obs/observer.hh"
#include "obs/stats.hh"
#include "spans.hh"

namespace perfbench
{

using namespace aiecc;

namespace
{

constexpr uint64_t kTrialsPerRep = 64;

/** One exhaustive sweep: a protection level at one pin count. */
struct Sweep
{
    ProtectionLevel level = ProtectionLevel::Aiecc;
    unsigned k = 1;
    InjectionCampaign *campaign = nullptr;
    uint64_t perPattern = 0; ///< C(p, k)
    CampaignStats stats;
};

/** Corruption that escaped every mechanism (the campaign's SDC/MDC). */
bool
silent(Outcome o)
{
    return o == Outcome::Sdc || o == Outcome::Mdc || o == Outcome::SdcMdc;
}

struct TrialRef
{
    uint16_t sweep;
    uint8_t pattern;
    uint64_t rank;
};

class CampaignWorkload : public Workload
{
  public:
    explicit CampaignWorkload(uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        observer.setStats(&registry);
        aieccCampaign = std::make_unique<InjectionCampaign>(
            Mechanisms::forLevel(ProtectionLevel::Aiecc), seed);
        deccCampaign = std::make_unique<InjectionCampaign>(
            Mechanisms::forLevel(ProtectionLevel::Ddr4Decc), seed ^ 0xDECC);
        aieccCampaign->setObserver(&observer);
        deccCampaign->setObserver(&observer);
        const std::pair<ProtectionLevel, unsigned> plan[] = {
            {ProtectionLevel::Aiecc, 1},    {ProtectionLevel::Aiecc, 2},
            {ProtectionLevel::Aiecc, 3},    {ProtectionLevel::Ddr4Decc, 1},
            {ProtectionLevel::Ddr4Decc, 2}};
        patterns = allPatterns();
        for (const auto &[level, k] : plan) {
            const size_t s = sweeps.size();
            Sweep &sw = sweeps.emplace_back();
            sw.level = level;
            sw.k = k;
            sw.campaign = level == ProtectionLevel::Aiecc
                              ? aieccCampaign.get()
                              : deccCampaign.get();
            const unsigned p = static_cast<unsigned>(
                injectablePins(sw.campaign->mechanisms().parPinPresent())
                    .size());
            sw.perPattern = choose(p, k);
            for (size_t pat = 0; pat < patterns.size(); ++pat) {
                for (uint64_t r = 0; r < sw.perPattern; ++r)
                    trials.push_back({static_cast<uint16_t>(s),
                                      static_cast<uint8_t>(pat), r});
            }
            expected.push_back(expectedSweepTrials(p, k));
            spaceSizes.push_back(sw.campaign->kPinSpace(k).size());
        }
    }

    size_t
    repsPerRound() const override
    {
        return (trials.size() + kTrialsPerRep - 1) / kTrialsPerRep;
    }

    uint64_t
    runRep(size_t rep, SpanRecorder *spans, uint32_t parent) override
    {
        // Repetition r runs trials r, r + R, r + 2R, ... (R reps per
        // round), so every repetition samples the same mix of sweeps
        // and patterns and their rates are comparable.
        const size_t stride = repsPerRound();
        uint64_t ops = 0;
        for (size_t i = rep; i < trials.size(); i += stride, ++ops) {
            const TrialRef &t = trials[i];
            Sweep &sw = sweeps[t.sweep];
            const PinError err = sw.campaign->kPinError(sw.k, t.rank);
            const uint32_t sid =
                spans ? spans->begin("inject.ccca_trial", parent,
                                     nAttempted)
                      : 0;
            const TrialResult r =
                sw.campaign->runTrial(patterns[t.pattern], err);
            if (spans)
                spans->end(sid);
            sw.stats.add(r);
            ++nAttempted;
            if (sw.level == ProtectionLevel::Aiecc && silent(r.outcome))
                ++nFailed;
        }
        if (rep + 1 == stride)
            ++rounds;
        return ops;
    }

    bool
    verify(std::string &why) const override
    {
        if (rounds == 0) {
            why = "no complete campaign round";
            return false;
        }
        for (size_t s = 0; s < sweeps.size(); ++s) {
            const Sweep &sw = sweeps[s];
            const std::string name = protectionLevelName(sw.level) + " " +
                                     std::to_string(sw.k) + "-pin";
            if (spaceSizes[s] != sw.perPattern) {
                why = name + ": library pin space " +
                      std::to_string(spaceSizes[s]) + " != C(p,k) " +
                      std::to_string(sw.perPattern);
                return false;
            }
            if (sw.stats.trials != rounds * expected[s]) {
                why = name + ": " + std::to_string(sw.stats.trials) +
                      " trials != " + std::to_string(rounds) + " x " +
                      std::to_string(expected[s]);
                return false;
            }
            if (sw.level == ProtectionLevel::Aiecc && !fullyCovered(sw.stats)) {
                why = name + ": " + std::to_string(sw.stats.sdc) + " SDC, " +
                      std::to_string(sw.stats.mdc) + " MDC";
                return false;
            }
        }
        // DECC leaves some single/double-pin errors silent (Figure 7).
        if (sweeps[3].stats.sdc + sweeps[4].stats.sdc == 0) {
            why = "DDR4 DECC showed no SDC";
            return false;
        }
        return true;
    }

  private:
    uint64_t seed;
    obs::StatsRegistry registry;
    obs::Observer observer;
    std::unique_ptr<InjectionCampaign> aieccCampaign;
    std::unique_ptr<InjectionCampaign> deccCampaign;
    std::vector<Sweep> sweeps;
    std::vector<CommandPattern> patterns;
    std::vector<TrialRef> trials;
    std::vector<uint64_t> expected;   ///< per sweep, one round
    std::vector<uint64_t> spaceSizes; ///< the library's kPinSpace sizes
    uint64_t rounds = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCampaignCcca(uint64_t seed)
{
    return std::make_unique<CampaignWorkload>(seed);
}

} // namespace perfbench
