/**
 * @file
 * Tests for the Table III Monte-Carlo engine: the qualitative cells
 * of the paper's data-reliability comparison must reproduce.
 */

#include <string>

#include <gtest/gtest.h>

#include "inject/montecarlo.hh"
#include "obs/stats.hh"

namespace aiecc
{
namespace
{

constexpr uint64_t kTrials = 3000;

/**
 * A plain bounded-distance RS(72,64) decoder miscorrects random
 * beyond-capability garbage with probability ~sum_i C(72,i)*255^i /
 * 255^8 ~ 2.4e-4; the paper's "<1e-6%" cells imply extra screening in
 * their decoder.  Tests on those cells allow our textbook floor
 * (documented in EXPERIMENTS.md).
 */
constexpr double kMiscorrectionFloor = 2.4e-4;

/** Binomial-tail-safe bound on miscorrections over n trials. */
uint64_t
floorBudget(uint64_t n)
{
    return static_cast<uint64_t>(n * kMiscorrectionFloor * 8) + 4;
}

TEST(MonteCarlo, NoErrorIsNoError)
{
    for (EccScheme scheme :
         {EccScheme::Qpc, EccScheme::AzulQpc,
          EccScheme::EDeccTransformQpc, EccScheme::EDeccQpc}) {
        DataMonteCarlo mc(scheme);
        const auto cell = mc.runCell(DataErrorModel::None,
                                     AddrErrorModel::None, 200);
        EXPECT_EQ(cell.count(DataOutcome::NoError), 200u)
            << eccSchemeName(scheme);
    }
}

TEST(MonteCarlo, QpcAddressErrorsAre100PercentSdc)
{
    // Table III row "None / 1 bit": data-only QPC sees nothing.
    DataMonteCarlo mc(EccScheme::Qpc);
    const auto cell =
        mc.runCell(DataErrorModel::None, AddrErrorModel::Bit1, 500);
    EXPECT_DOUBLE_EQ(cell.sdcFrac(), 1.0);
}

TEST(MonteCarlo, QpcCorrectsPureDataErrors)
{
    DataMonteCarlo mc(EccScheme::Qpc);
    for (auto model : {DataErrorModel::Bit1, DataErrorModel::Chip1}) {
        const auto cell =
            mc.runCell(model, AddrErrorModel::None, 500);
        EXPECT_EQ(cell.count(DataOutcome::CeD), 500u);
    }
}

TEST(MonteCarlo, AzulAliasesNear6Point3Percent)
{
    // Table III "None / 32 bits" for QPC+Azul: 6.3% SDC.
    DataMonteCarlo mc(EccScheme::AzulQpc);
    const auto cell =
        mc.runCell(DataErrorModel::None, AddrErrorModel::Bits32, kTrials);
    EXPECT_NEAR(cell.sdcFrac(), 1.0 / 16.0, 0.02);
}

TEST(MonteCarlo, AzulOneBitAddressIsCeR)
{
    // Table III "None / 1 bit" for QPC+Azul: CE-R (no SDC).
    DataMonteCarlo mc(EccScheme::AzulQpc);
    const auto cell =
        mc.runCell(DataErrorModel::None, AddrErrorModel::Bit1, 1000);
    EXPECT_DOUBLE_EQ(cell.sdcFrac(), 0.0);
    EXPECT_EQ(cell.dominant(), DataOutcome::CeR);
}

TEST(MonteCarlo, TransformDetectsAllAddressErrors)
{
    // Table III eDECC-t column: CE-R for pure address errors.
    DataMonteCarlo mc(EccScheme::EDeccTransformQpc);
    for (auto model : {AddrErrorModel::Bit1, AddrErrorModel::Bits32}) {
        const auto cell =
            mc.runCell(DataErrorModel::None, model, 2000);
        EXPECT_LE(cell.count(DataOutcome::Sdc), floorBudget(2000))
            << addrErrorName(model);
        EXPECT_EQ(cell.dominant(), DataOutcome::CeR);
    }
}

TEST(MonteCarlo, CombinedEDeccDiagnosesAddressErrors)
{
    // Table III eDECC-c column: CE-R+ (precise diagnosis).
    DataMonteCarlo mc(EccScheme::EDeccQpc);
    for (auto model : {AddrErrorModel::Bit1, AddrErrorModel::Bits32}) {
        const auto cell =
            mc.runCell(DataErrorModel::None, model, 1000);
        EXPECT_DOUBLE_EQ(cell.sdcFrac(), 0.0) << addrErrorName(model);
        EXPECT_EQ(cell.dominant(), DataOutcome::CeRPlus);
    }
}

TEST(MonteCarlo, CombinedEDeccBitPlusBitIsCeRDPlus)
{
    // Table III "1 bit / 1 bit" for eDECC-c: CE-RD+.
    DataMonteCarlo mc(EccScheme::EDeccQpc);
    const auto cell =
        mc.runCell(DataErrorModel::Bit1, AddrErrorModel::Bit1, 1000);
    EXPECT_DOUBLE_EQ(cell.sdcFrac(), 0.0);
    EXPECT_EQ(cell.dominant(), DataOutcome::CeRDPlus);
}

TEST(MonteCarlo, ChipPlusAddressErrorNeverSilent)
{
    // Table III "1 chip / 1 bit": <1e-6% SDC for every
    // address-protecting scheme (detected, though uncorrectable).
    for (EccScheme scheme :
         {EccScheme::AzulQpc, EccScheme::EDeccTransformQpc,
          EccScheme::EDeccQpc}) {
        DataMonteCarlo mc(scheme);
        const auto cell = mc.runCell(DataErrorModel::Chip1,
                                     AddrErrorModel::Bit1, kTrials);
        EXPECT_LE(cell.count(DataOutcome::Sdc), floorBudget(kTrials))
            << eccSchemeName(scheme);
    }
}

TEST(MonteCarlo, ChipPlus32BitAddressAliasesOnlyForAzul)
{
    // Table III "1 chip / 32 bits": 6.3% for Azul, ~0 for eDECC.
    DataMonteCarlo azul(EccScheme::AzulQpc);
    const auto azulCell = azul.runCell(DataErrorModel::Chip1,
                                       AddrErrorModel::Bits32, kTrials);
    EXPECT_NEAR(azulCell.sdcFrac(), 1.0 / 16.0, 0.02);

    DataMonteCarlo edecc(EccScheme::EDeccQpc);
    const auto edeccCell = edecc.runCell(DataErrorModel::Chip1,
                                         AddrErrorModel::Bits32, kTrials);
    EXPECT_LE(edeccCell.count(DataOutcome::Sdc), floorBudget(kTrials));
}

TEST(MonteCarlo, RankErrorsAreDueEverywhere)
{
    // Table III bottom row: full-rank errors are detected (<1e-6% SDC)
    // by every scheme.
    for (EccScheme scheme :
         {EccScheme::Qpc, EccScheme::AzulQpc,
          EccScheme::EDeccTransformQpc, EccScheme::EDeccQpc}) {
        DataMonteCarlo mc(scheme);
        const auto cell = mc.runCell(DataErrorModel::Rank1,
                                     AddrErrorModel::None, kTrials);
        EXPECT_LE(cell.count(DataOutcome::Sdc), floorBudget(kTrials))
            << eccSchemeName(scheme);
        EXPECT_EQ(cell.dominant(), DataOutcome::Due)
            << eccSchemeName(scheme);
    }
}

TEST(MonteCarlo, ChipkillPreservedUnderEDecc)
{
    // "Any single-chip errors are still corrected (preserving
    // chipkill)" — Section V-B.
    DataMonteCarlo mc(EccScheme::EDeccQpc);
    const auto cell =
        mc.runCell(DataErrorModel::Chip1, AddrErrorModel::None, 1000);
    EXPECT_EQ(cell.count(DataOutcome::CeD), 1000u);
}

TEST(MonteCarlo, CellBookkeeping)
{
    DataMonteCarlo mc(EccScheme::Qpc);
    const auto cell =
        mc.runCell(DataErrorModel::Bit1, AddrErrorModel::None, 100);
    EXPECT_EQ(cell.trials, 100u);
    uint64_t total = 0;
    for (unsigned i = 0; i < 8; ++i)
        total += cell.counts[i];
    EXPECT_EQ(total, 100u);
}

TEST(MonteCarlo, CellMergeAddsTrialsAndCounts)
{
    MonteCarloCell a, b;
    a.add(DataOutcome::Sdc);
    a.add(DataOutcome::CeD);
    b.add(DataOutcome::CeD);
    b.add(DataOutcome::Due);
    a.merge(b);
    EXPECT_EQ(a.trials, 4u);
    EXPECT_EQ(a.count(DataOutcome::Sdc), 1u);
    EXPECT_EQ(a.count(DataOutcome::CeD), 2u);
    EXPECT_EQ(a.count(DataOutcome::Due), 1u);
}

// ---- sharded execution: bit-identical for any worker count ----

TEST(MonteCarlo, ShardedResultIndependentOfJobs)
{
    const DataErrorModel dm = DataErrorModel::Chip1;
    const AddrErrorModel am = AddrErrorModel::Bit1;
    constexpr uint64_t trials = 2500; // not a shard-size multiple
    MonteCarloCell byJobs[3];
    const unsigned jobsValues[3] = {1, 2, 8};
    for (unsigned i = 0; i < 3; ++i) {
        DataMonteCarlo mc(EccScheme::AzulQpc, 0x5EED);
        ShardPlan plan;
        plan.shardSize = 512;
        plan.jobs = jobsValues[i];
        byJobs[i] = mc.runCellSharded(dm, am, trials, plan);
    }
    for (unsigned i = 1; i < 3; ++i) {
        EXPECT_EQ(byJobs[i].trials, byJobs[0].trials)
            << "--jobs " << jobsValues[i];
        for (unsigned o = 0; o < 8; ++o)
            EXPECT_EQ(byJobs[i].counts[o], byJobs[0].counts[o])
                << "--jobs " << jobsValues[i] << " outcome " << o;
    }
    EXPECT_EQ(byJobs[0].trials, trials);
}

TEST(MonteCarlo, ShardedObserverCountsMatchCell)
{
    obs::StatsRegistry reg;
    obs::Observer observer;
    observer.setStats(&reg);
    DataMonteCarlo mc(EccScheme::EDeccQpc, 0xF00D);
    mc.setObserver(&observer);
    ShardPlan plan;
    plan.shardSize = 256;
    plan.jobs = 4;
    const auto cell = mc.runCellSharded(DataErrorModel::Bit1,
                                        AddrErrorModel::Bit1, 1000, plan);
    EXPECT_EQ(cell.trials, 1000u);
    EXPECT_EQ(reg.counterValue("montecarlo.trials"), 1000u);
    for (unsigned o = 0; o < 8; ++o) {
        const auto outcome = static_cast<DataOutcome>(o);
        EXPECT_EQ(reg.counterValue(std::string("montecarlo.outcome.") +
                                   dataOutcomeSlug(outcome)),
                  cell.counts[o])
            << dataOutcomeName(outcome);
    }
}

TEST(MonteCarlo, ShardedMatchesPaperExpectations)
{
    // The sharded path draws a different (equally valid) sample than
    // the sequential one; the physics must still come out right.
    DataMonteCarlo mc(EccScheme::AzulQpc);
    ShardPlan plan;
    plan.jobs = 2;
    const auto cell = mc.runCellSharded(DataErrorModel::None,
                                        AddrErrorModel::Bits32, kTrials,
                                        plan);
    EXPECT_NEAR(cell.sdcFrac(), 1.0 / 16.0, 0.02);
}

// ---- checkpoint state round-trip ----

TEST(MonteCarlo, CellStateRoundTripIsExact)
{
    DataMonteCarlo mc(EccScheme::AzulQpc, 0xBEEF);
    const MonteCarloCell cell =
        mc.runCell(DataErrorModel::Chip1, AddrErrorModel::Bit1, 300);
    MonteCarloCell restored;
    ASSERT_TRUE(state::load(restored, state::save(cell)).ok);
    EXPECT_EQ(state::save(restored), state::save(cell));
    EXPECT_EQ(restored.trials, cell.trials);
    for (unsigned o = 0; o < 8; ++o)
        EXPECT_EQ(restored.counts[o], cell.counts[o]) << o;
}

// ---- exhaustive enumeration ----

TEST(MonteCarloExhaustive, CellSpaceSizes)
{
    using D = DataErrorModel;
    using A = AddrErrorModel;
    // 72 pins x 8 beats transferred bits; 32 MTB-address bits.
    EXPECT_EQ(DataMonteCarlo::cellSpaceSize(D::Bit1, A::None), 576u);
    EXPECT_EQ(DataMonteCarlo::cellSpaceSize(D::None, A::Bit1), 32u);
    EXPECT_EQ(DataMonteCarlo::cellSpaceSize(D::Bit1, A::Bit1), 18432u);
    // Random-word models have no finite position space.
    EXPECT_EQ(DataMonteCarlo::cellSpaceSize(D::Chip1, A::None), 0u);
    EXPECT_EQ(DataMonteCarlo::cellSpaceSize(D::Rank1, A::Bit1), 0u);
    EXPECT_EQ(DataMonteCarlo::cellSpaceSize(D::Bit1, A::Bits32), 0u);
    EXPECT_EQ(DataMonteCarlo::cellSpaceSize(D::None, A::None), 0u);
}

TEST(MonteCarloExhaustive, ResultIndependentOfJobs)
{
    MonteCarloCell byJobs[3];
    const unsigned jobsValues[3] = {1, 2, 8};
    for (unsigned i = 0; i < 3; ++i) {
        DataMonteCarlo mc(EccScheme::EDeccQpc, 0x5EED);
        ShardPlan plan;
        plan.shardSize = 64;
        plan.jobs = jobsValues[i];
        byJobs[i] = mc.runCellExhaustive(DataErrorModel::Bit1,
                                         AddrErrorModel::Bit1, plan);
    }
    EXPECT_EQ(byJobs[0].trials, 18432u);
    for (unsigned i = 1; i < 3; ++i)
        for (unsigned o = 0; o < 8; ++o)
            EXPECT_EQ(byJobs[i].counts[o], byJobs[0].counts[o])
                << "--jobs " << jobsValues[i] << " outcome " << o;
}

TEST(MonteCarloExhaustive, PureDataBitFlipsAllCorrected)
{
    // QPC corrects any single transferred-bit flip, so the full
    // 576-position enumeration must be 100% CE-D — an exact claim a
    // sampled run can only approximate.
    DataMonteCarlo mc(EccScheme::Qpc);
    ShardPlan plan;
    plan.jobs = 2;
    const auto cell = mc.runCellExhaustive(DataErrorModel::Bit1,
                                           AddrErrorModel::None, plan);
    EXPECT_EQ(cell.trials, 576u);
    EXPECT_EQ(cell.count(DataOutcome::CeD), 576u);
    EXPECT_EQ(cell.sdcFrac(), 0.0);
}

// ---- checkpointed execution ----

TEST(MonteCarloCheckpointed, SampledMatchesShardedAndLedger)
{
    const DataErrorModel dm = DataErrorModel::Bit1;
    const AddrErrorModel am = AddrErrorModel::Bit1;
    constexpr uint64_t trials = 1500;
    ShardPlan plan;
    plan.shardSize = 256;
    plan.jobs = 2;

    obs::LineageLedger refLedger;
    DataMonteCarlo ref(EccScheme::EDeccQpc, 0xACE);
    ref.setLineageLedger(&refLedger);
    const auto want = ref.runCellSharded(dm, am, trials, plan);

    clearStopRequest();
    obs::LineageLedger ledger;
    DataMonteCarlo mc(EccScheme::EDeccQpc, 0xACE);
    mc.setLineageLedger(&ledger);
    MonteCarloCell got;
    uint64_t nextShard = 0;
    ASSERT_EQ(mc.runCellCheckpointed(dm, am, trials, /*exhaustive=*/false,
                                     plan, /*batchShards=*/2, nextShard,
                                     got, [](uint64_t, uint64_t) {}),
              RunStatus::Completed);
    EXPECT_EQ(state::save(got), state::save(want));
    EXPECT_EQ(ledger.digest(), refLedger.digest());
}

TEST(MonteCarloCheckpointed, InterruptAndResumeIsBitIdentical)
{
    ShardPlan plan;
    plan.shardSize = 64;
    plan.jobs = 2;

    DataMonteCarlo ref(EccScheme::AzulQpc, 0xD1CE);
    const auto want = ref.runCellExhaustive(DataErrorModel::Bit1,
                                            AddrErrorModel::None, plan);

    // Stop inside the first commit, then continue from the recorded
    // shard with the partially merged cell.
    clearStopRequest();
    DataMonteCarlo mc(EccScheme::AzulQpc, 0xD1CE);
    MonteCarloCell got;
    uint64_t nextShard = 0;
    const uint64_t space = DataMonteCarlo::cellSpaceSize(
        DataErrorModel::Bit1, AddrErrorModel::None);
    ASSERT_EQ(mc.runCellCheckpointed(
                  DataErrorModel::Bit1, AddrErrorModel::None, space,
                  /*exhaustive=*/true, plan, 2, nextShard, got,
                  [](uint64_t, uint64_t) { requestStop(); }),
              RunStatus::Interrupted);
    clearStopRequest();
    ASSERT_GT(nextShard, 0u);
    ASSERT_LT(got.trials, want.trials);

    ASSERT_EQ(mc.runCellCheckpointed(
                  DataErrorModel::Bit1, AddrErrorModel::None, space,
                  /*exhaustive=*/true, plan, 2, nextShard, got,
                  [](uint64_t, uint64_t) {}),
              RunStatus::Completed);
    EXPECT_EQ(state::save(got), state::save(want));
}

} // namespace
} // namespace aiecc
