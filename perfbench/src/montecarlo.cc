/**
 * @file
 * The Monte-Carlo data-error workload: Table III cells (1-chip and
 * 1-rank data errors, with and without a 1-bit address error) over
 * QPC, AMD and eDECC-QPC.
 */

#include "bench.hh"
#include "check.hh"
#include "inject/montecarlo.hh"
#include "spans.hh"

namespace perfbench
{

using namespace aiecc;

namespace
{

/**
 * Trials per cell in one repetition.  Every repetition runs all
 * twelve cells, so repetitions are alike and their rates comparable.
 */
constexpr uint64_t kTrialsPerCell = 512;

struct Cell
{
    size_t engine;
    EccScheme scheme;
    DataErrorModel data;
    AddrErrorModel addr;
    MonteCarloCell tally;
};

std::string
cellName(const Cell &c)
{
    return eccSchemeName(c.scheme) + " " + dataErrorName(c.data) + "/" +
           addrErrorName(c.addr);
}

bool
plainCode(EccScheme s)
{
    return s == EccScheme::Qpc || s == EccScheme::Amd;
}

class MonteCarloWorkload : public Workload
{
  public:
    explicit MonteCarloWorkload(uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        const EccScheme schemes[] = {EccScheme::Qpc, EccScheme::Amd,
                                     EccScheme::EDeccQpc};
        for (size_t e = 0; e < 3; ++e) {
            engines.push_back(std::make_unique<DataMonteCarlo>(
                schemes[e], Rng::forStream(seed, 10 + e).next()));
            for (DataErrorModel d : {DataErrorModel::Chip1,
                                     DataErrorModel::Rank1}) {
                for (AddrErrorModel a : {AddrErrorModel::None,
                                         AddrErrorModel::Bit1})
                    cells.push_back({e, schemes[e], d, a, {}});
            }
        }
        qpcRate = qpcRank1SdcRate();
        amdRate = amdRank1SdcRate();
    }

    size_t repsPerRound() const override { return 1; }

    uint64_t
    runRep(size_t, SpanRecorder *spans, uint32_t parent) override
    {
        for (Cell &c : cells) {
            const uint32_t sid =
                spans ? spans->begin("inject.mc_cell", parent, nAttempted)
                      : 0;
            const MonteCarloCell got =
                engines[c.engine]->runCell(c.data, c.addr, kTrialsPerCell);
            if (spans)
                spans->end(sid);
            c.tally.merge(got);
            nAttempted += kTrialsPerCell;
            nFailed += failures(c, got);
        }
        return kTrialsPerCell * cells.size();
    }

    bool
    verify(std::string &why) const override
    {
        for (const Cell &c : cells) {
            uint64_t sum = 0;
            for (uint64_t n : c.tally.counts)
                sum += n;
            if (c.tally.trials == 0 || sum != c.tally.trials) {
                why = cellName(c) + ": outcome counts do not sum to trials";
                return false;
            }
            const uint64_t sdc = c.tally.count(DataOutcome::Sdc);
            // A plain code cannot see an address error: every read of
            // the wrong block is consumed.
            if (plainCode(c.scheme) && c.data == DataErrorModel::Chip1 &&
                c.addr == AddrErrorModel::Bit1 && sdc != c.tally.trials) {
                why = cellName(c) + ": " + std::to_string(sdc) + " SDC of " +
                      std::to_string(c.tally.trials);
                return false;
            }
            // A random word is accepted at the closed-form rate.
            if (plainCode(c.scheme) && c.data == DataErrorModel::Rank1) {
                const double p =
                    c.scheme == EccScheme::Qpc ? qpcRate : amdRate;
                if (!withinBinomial(sdc, c.tally.trials, p, kRateAlpha)) {
                    const CountInterval iv =
                        binomialInterval(c.tally.trials, p, kRateAlpha);
                    why = cellName(c) + ": " + std::to_string(sdc) +
                          " SDC outside [" + std::to_string(iv.lo) + ", " +
                          std::to_string(iv.hi) + "] for " +
                          std::to_string(c.tally.trials) + " trials";
                    return false;
                }
            }
        }
        return true;
    }

  private:
    uint64_t seed;
    std::vector<std::unique_ptr<DataMonteCarlo>> engines;
    std::vector<Cell> cells;
    double qpcRate = 0.0;
    double amdRate = 0.0;

    /** Trials of @p got that broke a per-trial guarantee of its cell. */
    static uint64_t
    failures(const Cell &c, const MonteCarloCell &got)
    {
        // Chipkill corrects any single-chip error in the data.  Other
        // cells have no per-trial guarantee: a chip error plus an
        // address error exceeds eDECC's correction radius.
        if (c.data == DataErrorModel::Chip1 && c.addr == AddrErrorModel::None)
            return got.trials - got.count(DataOutcome::CeD);
        return 0;
    }
};

} // namespace

std::unique_ptr<Workload>
makeMonteCarloData(uint64_t seed)
{
    return std::make_unique<MonteCarloWorkload>(seed);
}

} // namespace perfbench
