/**
 * @file
 * Unit tests for the RAS health monitor: symptom routing (data-path
 * vs alert-family detections), the per-bank hysteresis state machine,
 * fault-topology inference (cell/row/column/chip/link) including the
 * median-based chip dominance and sticky retired-row calls, action
 * recommendation and draining, the shard merge, and the checkpoint
 * round-trip.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ddr4/address.hh"
#include "obs/json.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace
{

obs::TraceEvent
dataCe(unsigned bank, unsigned row, unsigned col, uint64_t cycle,
       const std::string &label = "DECC",
       const std::string &detail = "")
{
    const Geometry geom;
    MtbAddress addr;
    addr.bg = bank / geom.banksPerGroup();
    addr.ba = bank % geom.banksPerGroup();
    addr.row = row;
    addr.col = col;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Detection;
    ev.cycle = cycle;
    ev.label = label;
    ev.value = addr.pack(geom);
    ev.detail = detail;
    return ev;
}

obs::TraceEvent
alert(uint64_t cycle, const std::string &label = "CSTC")
{
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Detection;
    ev.cycle = cycle;
    ev.label = label;
    return ev;
}

TEST(HealthMonitor, StartsHealthy)
{
    ras::HealthMonitor mon;
    EXPECT_EQ(mon.rankState(), ras::HealthState::Healthy);
    EXPECT_EQ(mon.degradedBanks(), 0u);
    EXPECT_EQ(mon.failingBanks(), 0u);
    EXPECT_TRUE(mon.topologies().empty());
    EXPECT_EQ(mon.eventsSeen(), 0u);
}

TEST(HealthMonitor, WindowedCesDegradeTheBank)
{
    ras::HealthMonitor mon;
    const uint64_t need = mon.config().degradeCes;
    for (uint64_t i = 0; i < need; ++i)
        mon.record(dataCe(2, 10 + unsigned(i), 0, 1000 + i));
    EXPECT_EQ(mon.bankState(2), ras::HealthState::Degraded);
    EXPECT_EQ(mon.degradedBanks(), 1u);
    // The first degraded component recommends raising the patrol rate.
    std::vector<ras::RecommendedAction> actions;
    ASSERT_GE(mon.drainActions(actions), 1u);
    EXPECT_EQ(actions[0].kind, ras::ActionKind::RaisePatrol);
    // Draining is destructive: nothing left afterwards.
    actions.clear();
    EXPECT_EQ(mon.drainActions(actions), 0u);
}

TEST(HealthMonitor, UesEscalateFasterThanCes)
{
    ras::HealthMonitor mon;
    mon.record(dataCe(4, 1, 1, 100, "eDECC", "uncorrectable DUE"));
    EXPECT_EQ(mon.bankState(4), ras::HealthState::Degraded);
    mon.record(dataCe(4, 2, 2, 200, "eDECC", "uncorrectable DUE"));
    EXPECT_EQ(mon.bankState(4), ras::HealthState::Failing);
    EXPECT_EQ(mon.failingBanks(), 1u);
    bool quarantined = false;
    for (const ras::RecommendedAction &a : mon.actionLog())
        quarantined |= a.kind == ras::ActionKind::QuarantineBank &&
                       a.bank == 4;
    EXPECT_TRUE(quarantined);
}

TEST(HealthMonitor, DataEccDetailRoutesToDataPath)
{
    // Standalone data-codec engines label detections with the scheme
    // name, not DECC/eDECC; the "data-ecc" detail tag must route them
    // down the address-evidence path all the same.
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 8; ++i)
        mon.record(dataCe(1, 9, i, 100 * i, "QPC",
                          "data-ecc corrected"));
    const ras::TopologyCall call = mon.bankTopology(1);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.bank, 1u);
    EXPECT_EQ(call.row, 9u);
}

TEST(HealthMonitor, NonDataDetectionsAreAlerts)
{
    ras::HealthMonitor mon;
    const uint64_t need = mon.config().linkAlerts;
    for (uint64_t i = 0; i < need - 1; ++i)
        mon.record(alert(100 + i, "eWCRC"));
    EXPECT_EQ(mon.linkTopology().kind, ras::Topology::None);
    mon.record(alert(200, "CA-parity"));
    const ras::TopologyCall call = mon.linkTopology();
    EXPECT_EQ(call.kind, ras::Topology::Link);
    EXPECT_EQ(call.evidence, need);
    EXPECT_EQ(call.pin, -1); // no diagnosis yet
    // Alert-family symptoms carry no address: no bank sees them.
    for (unsigned b = 0; b < mon.config().geom.numBanks(); ++b)
        EXPECT_EQ(mon.bankState(b), ras::HealthState::Healthy);
}

TEST(HealthMonitor, DiagnosisNamesTheSuspectPin)
{
    ras::HealthMonitor mon;
    for (uint64_t i = 0; i < mon.config().linkAlerts; ++i)
        mon.record(alert(100 + i));
    obs::TraceEvent diag;
    diag.kind = obs::EventKind::Diagnosis;
    diag.cycle = 500;
    diag.label = pinName(static_cast<Pin>(3));
    mon.record(diag);
    const ras::TopologyCall call = mon.linkTopology();
    EXPECT_EQ(call.kind, ras::Topology::Link);
    EXPECT_EQ(call.pin, 3);
}

TEST(HealthMonitor, SingleCellBeatsRowAndColumn)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(0, 17, 5, 100 * i));
    const ras::TopologyCall call = mon.bankTopology(0);
    EXPECT_EQ(call.kind, ras::Topology::SingleCell);
    EXPECT_EQ(call.row, 17u);
    EXPECT_EQ(call.col, 5u);
    EXPECT_EQ(call.evidence, 6u);
}

TEST(HealthMonitor, RowCallNeedsColumnSpread)
{
    ras::HealthMonitor mon;
    // Same row, many distinct columns: a weak row, not a stuck cell.
    for (unsigned i = 0; i < 8; ++i)
        mon.record(dataCe(3, 44, i, 100 * i));
    const ras::TopologyCall call = mon.bankTopology(3);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.bank, 3u);
    EXPECT_EQ(call.row, 44u);
    // Enough row-concentrated corrections retire the row.
    bool retired = false;
    for (const ras::RecommendedAction &a : mon.actionLog())
        retired |= a.kind == ras::ActionKind::RetireRow && a.bank == 3 &&
                   a.row == 44;
    EXPECT_TRUE(retired);
}

TEST(HealthMonitor, ColumnCallNeedsRowSpread)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(7, i, 12, 100 * i));
    const ras::TopologyCall call = mon.bankTopology(7);
    EXPECT_EQ(call.kind, ras::Topology::Column);
    EXPECT_EQ(call.col, 12u);
}

TEST(HealthMonitor, RetiredRowCallIsSticky)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 8; ++i)
        mon.record(dataCe(3, 44, i, 100 * i));
    ASSERT_EQ(mon.bankTopology(3).kind, ras::Topology::Row);
    // Mitigation retires the row and the symptom stream moves on to
    // scattered single corrections; the settled call must survive the
    // dilution below the concentration threshold.
    for (unsigned i = 0; i < 40; ++i)
        mon.record(dataCe(3, 200 + i, i % 32, 1000 + 100 * i));
    const ras::TopologyCall call = mon.bankTopology(3);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.row, 44u);
}

TEST(HealthMonitor, ChipCallNeedsBankSpreadAndMedianDominance)
{
    ras::HealthMonitor mon;
    // Chip 7's symbols keep getting corrected across six banks.
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(i, i, i, 100 * i, "DECC", " chips=80"));
    const std::vector<ras::TopologyCall> chips = mon.chipTopologies();
    ASSERT_EQ(chips.size(), 1u);
    EXPECT_EQ(chips[0].kind, ras::Topology::Chip);
    EXPECT_EQ(chips[0].chip, 7u);
    EXPECT_EQ(chips[0].evidence, 6u);
    EXPECT_EQ(mon.chipTopology().chip, 7u);
}

TEST(HealthMonitor, ConcentratedBankActivityIsNotAChip)
{
    ras::HealthMonitor mon;
    // A weak row also lands on few chips, but never across banks:
    // the bank-spread test must reject the chip explanation.
    for (unsigned i = 0; i < 10; ++i)
        mon.record(dataCe(2, 44, i, 100 * i, "DECC", " chips=80"));
    EXPECT_TRUE(mon.chipTopologies().empty());
}

TEST(HealthMonitor, MedianDominanceSurvivesMultiChipFaults)
{
    ras::HealthMonitor mon;
    // Two chips dying at once: a mean-based test would let each mask
    // the other; the median (still 0 with 16 quiet chips) must not.
    for (unsigned i = 0; i < 8; ++i) {
        mon.record(dataCe(i % 8, i, i, 100 * i, "DECC", " chips=4"));
        mon.record(
            dataCe(i % 8, 40 + i, i, 50 + 100 * i, "DECC",
                   " chips=20000")); // chip 17 (hex bit 17)
    }
    const std::vector<ras::TopologyCall> chips = mon.chipTopologies();
    ASSERT_EQ(chips.size(), 2u);
    EXPECT_EQ(chips[0].chip, 2u);
    EXPECT_EQ(chips[1].chip, 17u);
}

TEST(HealthMonitor, EscalationVerdictForcesFailing)
{
    ras::HealthMonitor mon;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Escalation;
    ev.cycle = 1234;
    ev.label = "quarantine";
    ev.value = 5;
    mon.record(ev);
    EXPECT_EQ(mon.bankState(5), ras::HealthState::Failing);
}

TEST(HealthMonitor, QuietBankRecoversAfterDwell)
{
    ras::HealthMonitor mon;
    for (uint64_t i = 0; i < mon.config().degradeCes; ++i)
        mon.record(dataCe(2, 10 + unsigned(i), 0, 1000 + i));
    ASSERT_EQ(mon.bankState(2), ras::HealthState::Degraded);
    // Quiet traffic far past the window and the dwell: the periodic
    // tick (every 256 events) must step the bank back down.
    const uint64_t quiet = 1000 + mon.config().recoverDwell +
                           mon.config().bucketCycles * 32;
    for (uint64_t i = 0; i < 512; ++i) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::Retry;
        ev.cycle = quiet + i;
        ev.label = "re-read";
        mon.record(ev);
    }
    EXPECT_EQ(mon.bankState(2), ras::HealthState::Healthy);
}

TEST(HealthMonitor, FaultLifecycleCounters)
{
    ras::HealthMonitor mon;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::FaultInject;
    mon.record(ev);
    mon.record(ev);
    ev.kind = obs::EventKind::FaultResolve;
    mon.record(ev);
    EXPECT_EQ(mon.faultsInjected(), 2u);
    EXPECT_EQ(mon.faultsResolved(), 1u);
    EXPECT_EQ(mon.eventsSeen(), 3u);
}

TEST(HealthMonitor, MergeFoldsCountersStatesAndSketches)
{
    ras::HealthMonitor a, b;
    // Shard a sees half the weak row's corrections, shard b the rest:
    // neither alone is confident, the fold is.
    for (unsigned i = 0; i < 3; ++i)
        a.record(dataCe(3, 44, i, 100 * i));
    for (unsigned i = 3; i < 8; ++i)
        b.record(dataCe(3, 44, i, 100 * i));
    for (uint64_t i = 0; i < b.config().degradeUes; ++i)
        b.record(dataCe(6, 1, 1, 500 + i, "eDECC", "uncorrectable DUE"));
    EXPECT_EQ(a.bankTopology(3).kind, ras::Topology::None);

    a.merge(b);
    EXPECT_EQ(a.eventsSeen(), 9u);
    const ras::TopologyCall call = a.bankTopology(3);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.row, 44u);
    EXPECT_EQ(call.evidence, 8u);
    // Worse-of state folding: b's degraded bank 6 wins over healthy.
    EXPECT_EQ(a.bankState(6), ras::HealthState::Degraded);
}

TEST(HealthMonitor, MergeFoldIsDeterministic)
{
    // The same shard-order fold run twice gives the same bytes — the
    // property the campaign engines rely on for --jobs invariance.
    const auto build = [] {
        std::vector<ras::HealthMonitor> shards(3);
        for (unsigned s = 0; s < 3; ++s) {
            for (unsigned i = 0; i < 5 + s; ++i)
                shards[s].record(
                    dataCe(s, 10 * s, i, 1000 * s + 100 * i));
            shards[s].record(alert(1000 * s + 999));
        }
        ras::HealthMonitor merged;
        for (const ras::HealthMonitor &shard : shards)
            merged.merge(shard);
        return state::save(merged);
    };
    EXPECT_EQ(build(), build());
}

TEST(HealthMonitor, SerializeRoundTripIsExact)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 8; ++i)
        mon.record(dataCe(3, 44, i, 100 * i)); // row call + retire
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(i, i, i, 200 * i, "DECC", " chips=80"));
    for (uint64_t i = 0; i < mon.config().linkAlerts; ++i)
        mon.record(alert(3000 + i));

    ras::HealthMonitor restored;
    ASSERT_TRUE(state::load(restored, state::save(mon)).ok);
    EXPECT_EQ(state::save(restored), state::save(mon));
    EXPECT_EQ(restored.bankState(3), mon.bankState(3));
    EXPECT_EQ(restored.bankTopology(3).row, 44u);
    EXPECT_EQ(restored.linkTopology().kind, ras::Topology::Link);
    // Both keep evolving identically — resume equals never-stopped.
    mon.record(dataCe(3, 44, 9, 5000));
    restored.record(dataCe(3, 44, 9, 5000));
    EXPECT_EQ(state::save(restored), state::save(mon));
}

TEST(HealthMonitor, JsonCarriesSymptomTotals)
{
    ras::HealthMonitor mon;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Retry;
    ev.cycle = 10;
    mon.record(ev);
    mon.record(ev);
    ev.kind = obs::EventKind::Scrub;
    mon.record(ev);
    ev.kind = obs::EventKind::Recovery;
    ev.detail = "retries exhausted";
    mon.record(ev);
    obs::JsonWriter w;
    mon.writeJson(w);
    const std::string json = w.str();
    EXPECT_NE(json.find("\"retries_total\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"scrubs_total\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"exhausted_total\": 1"), std::string::npos);
}

} // namespace
} // namespace aiecc
