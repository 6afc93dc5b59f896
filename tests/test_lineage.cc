/**
 * @file
 * Tests for fault lineage tracing and the coverage-matrix audit:
 * deterministic fault-ID derivation, the inject-then-resolve ledger
 * protocol (including its panics), conservation auditing, shard-order
 * merge equality, ledger byte-identity across worker counts for all
 * three campaigns, and the per-fault trace event stream.
 */

#include <gtest/gtest.h>

#include <set>

#include "gddr5/campaign.hh"
#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/coverage.hh"
#include "obs/lineage.hh"
#include "obs/trace_reader.hh"

namespace aiecc
{
namespace
{

using obs::FaultKind;
using obs::FaultTerminal;
using obs::LineageLedger;

TEST(FaultId, DerivationIsDeterministicAndNonzero)
{
    const uint64_t salt = obs::lineageHash("ddr4:test-config");
    EXPECT_EQ(obs::deriveFaultId(salt, 3, 17),
              obs::deriveFaultId(salt, 3, 17));

    std::set<uint64_t> ids;
    for (uint64_t stream = 0; stream < 8; ++stream) {
        for (uint64_t trial = 0; trial < 256; ++trial) {
            const uint64_t id = obs::deriveFaultId(salt, stream, trial);
            ASSERT_NE(id, 0u) << stream << "/" << trial;
            ids.insert(id);
        }
    }
    // 8 streams x 256 trials must not collide.
    EXPECT_EQ(ids.size(), 8u * 256u);

    // Different campaign salts give disjoint ID spaces for the same
    // (stream, trial) — this is what lets campaigns share a ledger.
    const uint64_t other = obs::lineageHash("gddr5:test-config");
    for (uint64_t trial = 0; trial < 64; ++trial) {
        EXPECT_NE(obs::deriveFaultId(salt, 0, trial),
                  obs::deriveFaultId(other, 0, trial));
    }
}

TEST(LineageLedger, InjectResolveRoundTrip)
{
    LineageLedger ledger;
    ledger.recordInjection(42, FaultKind::Ccca, "CS");
    EXPECT_EQ(ledger.size(), 1u);
    EXPECT_EQ(ledger.unaccounted(), 1u);

    ledger.resolve(42, FaultTerminal::Recovered, "eWCRC", 2, 1);
    EXPECT_EQ(ledger.unaccounted(), 0u);

    const obs::LineageRecord &rec = ledger.records().front();
    EXPECT_EQ(rec.faultId, 42u);
    EXPECT_EQ(rec.kind, FaultKind::Ccca);
    EXPECT_EQ(rec.terminal, FaultTerminal::Recovered);
    EXPECT_EQ(ledger.siteName(rec.site), "CS");
    EXPECT_EQ(ledger.mechanismLabel(rec.mech), "eWCRC");
    EXPECT_EQ(rec.observations, 2u);
    EXPECT_EQ(rec.attempts, 1u);

    // Serialization is the canonical byte-stable form.
    const std::string text = ledger.serialize();
    EXPECT_NE(text.find("ccca"), std::string::npos);
    EXPECT_NE(text.find("recovered"), std::string::npos);
    EXPECT_NE(text.find("eWCRC"), std::string::npos);
    EXPECT_EQ(ledger.digest(), ledger.digest());
}

using LineageLedgerDeathTest = ::testing::Test;

TEST(LineageLedgerDeathTest, ProtocolViolationsPanic)
{
    LineageLedger ledger;
    ledger.recordInjection(7, FaultKind::Data, "bit");
    EXPECT_DEATH(ledger.recordInjection(7, FaultKind::Data, "bit"),
                 "duplicate injection");
    EXPECT_DEATH(ledger.resolve(8, FaultTerminal::Masked),
                 "never injected");
    ledger.resolve(7, FaultTerminal::Corrected, "QPC");
    EXPECT_DEATH(ledger.resolve(7, FaultTerminal::Corrected, "QPC"),
                 "never injected \\(or already resolved\\)");
}

TEST(Coverage, ConservationAuditPassesOnHealthyLedger)
{
    LineageLedger ledger;
    ledger.recordInjection(1, FaultKind::Ccca, "CS");
    ledger.resolve(1, FaultTerminal::Masked);
    ledger.recordInjection(2, FaultKind::Ccca, "CAS");
    ledger.resolve(2, FaultTerminal::Recovered, "eCAP", 1, 1);
    ledger.recordInjection(3, FaultKind::Data, "chip");
    ledger.resolve(3, FaultTerminal::Corrected, "QPC", 1, 0);
    ledger.recordInjection(4, FaultKind::Addr, "bit");
    ledger.resolve(4, FaultTerminal::Escaped);

    const obs::CoverageMatrix m = obs::CoverageMatrix::fromLedger(ledger);
    EXPECT_EQ(m.injected(), 4u);
    EXPECT_EQ(m.terminalTotal(FaultTerminal::Masked), 1u);
    EXPECT_EQ(m.terminalTotal(FaultTerminal::Recovered), 1u);
    EXPECT_EQ(m.terminalTotal(FaultTerminal::Corrected), 1u);
    EXPECT_EQ(m.terminalTotal(FaultTerminal::Escaped), 1u);
    EXPECT_EQ(m.terminalTotal(FaultTerminal::Unaccounted), 0u);

    const obs::CoverageMatrix::Audit audit = m.audit();
    EXPECT_TRUE(audit.ok);
    EXPECT_EQ(audit.injected, 4u);
    EXPECT_EQ(audit.unaccounted, 0u);
    EXPECT_TRUE(audit.violations.empty());
}

// The deliberately-broken campaign double: injects faults but loses
// one classification.  The auditor must flag it, proving the
// conservation check can actually catch a buggy harness.
TEST(Coverage, FlagsUnaccountedFault)
{
    LineageLedger ledger;
    ledger.recordInjection(10, FaultKind::Ccca, "CS");
    ledger.resolve(10, FaultTerminal::Masked);
    ledger.recordInjection(11, FaultKind::Ccca, "CAS");
    // ... and "forgets" to resolve fault 11.

    EXPECT_EQ(ledger.unaccounted(), 1u);
    const obs::CoverageMatrix m = obs::CoverageMatrix::fromLedger(ledger);
    const obs::CoverageMatrix::Audit audit = m.audit();
    EXPECT_FALSE(audit.ok);
    EXPECT_EQ(audit.injected, 2u);
    EXPECT_EQ(audit.unaccounted, 1u);
    ASSERT_FALSE(audit.violations.empty());
    EXPECT_NE(audit.violations.front().find("never resolved"),
              std::string::npos);
}

TEST(LineageLedger, MergeEqualsSequentialAppend)
{
    LineageLedger whole, partA, partB;
    for (uint64_t i = 1; i <= 6; ++i) {
        LineageLedger &part = i <= 3 ? partA : partB;
        const std::string site = i % 2 ? "CS" : "CAS";
        whole.recordInjection(i, FaultKind::Ccca, site);
        whole.resolve(i, FaultTerminal::Detected, "CSTC", 1, 0);
        part.recordInjection(i, FaultKind::Ccca, site);
        part.resolve(i, FaultTerminal::Detected, "CSTC", 1, 0);
    }
    LineageLedger merged;
    merged.merge(partA);
    merged.merge(partB);
    EXPECT_EQ(merged.serialize(), whole.serialize());
    EXPECT_EQ(merged.digest(), whole.digest());
}

std::vector<PinError>
campaignErrors()
{
    std::vector<PinError> errors;
    for (Pin pin : injectablePins(true))
        errors.push_back(PinError::onePin(pin));
    errors.push_back(PinError::twoPin(Pin::A3, Pin::A4));
    errors.push_back(PinError::allPins(0xAB5));
    return errors;
}

TEST(CampaignLineage, LedgerIdenticalAcrossJobs)
{
    std::string serialized[3];
    const unsigned jobsValues[3] = {1, 2, 8};
    for (unsigned i = 0; i < 3; ++i) {
        InjectionCampaign camp(
            Mechanisms::forLevel(ProtectionLevel::Aiecc));
        LineageLedger ledger;
        camp.setLineageLedger(&ledger);
        camp.runTrials(CommandPattern::ActWr, campaignErrors(),
                       jobsValues[i]);
        EXPECT_EQ(ledger.size(), campaignErrors().size());
        EXPECT_EQ(ledger.unaccounted(), 0u);
        serialized[i] = ledger.serialize();
    }
    EXPECT_EQ(serialized[0], serialized[1]);
    EXPECT_EQ(serialized[0], serialized[2]);
}

TEST(CampaignLineage, TraceCarriesInjectObserveResolve)
{
    obs::VectorTraceSink sink;
    obs::Observer observer;
    observer.addSink(&sink);
    InjectionCampaign camp(Mechanisms::forLevel(ProtectionLevel::Aiecc));
    camp.setObserver(&observer);
    LineageLedger ledger;
    camp.setLineageLedger(&ledger);
    camp.runTrials(CommandPattern::Rd, campaignErrors(), 1);

    const obs::LineageView view = obs::buildLineageView(sink.events());
    EXPECT_EQ(view.faults.size(), campaignErrors().size());
    EXPECT_EQ(view.orphanEvents, 0u);
    EXPECT_EQ(view.unresolved, 0u);
    EXPECT_EQ(view.resolveWithoutInject, 0u);
    for (size_t i = 0; i < view.faults.size(); ++i) {
        const obs::FaultTimeline &ft = view.faults[i];
        EXPECT_TRUE(ft.injected);
        EXPECT_TRUE(ft.resolved);
        // Timelines appear in trial order and match the ledger.
        EXPECT_EQ(ft.faultId, ledger.records()[i].faultId);
        EXPECT_EQ(ft.events.front().kind, obs::EventKind::FaultInject);
        EXPECT_EQ(ft.events.back().kind, obs::EventKind::FaultResolve);
        EXPECT_EQ(ft.events.back().label,
                  obs::faultTerminalName(ledger.records()[i].terminal));
    }
}

TEST(CampaignLineage, WithoutLedgerTraceIsUnchanged)
{
    obs::VectorTraceSink sink;
    obs::Observer observer;
    observer.addSink(&sink);
    InjectionCampaign camp(Mechanisms::forLevel(ProtectionLevel::Aiecc));
    camp.setObserver(&observer);
    camp.runTrials(CommandPattern::Rd, campaignErrors(), 1);
    // Pre-lineage consumers rely on one Classification per trial.
    ASSERT_EQ(sink.size(), campaignErrors().size());
    for (const obs::TraceEvent &event : sink.events()) {
        EXPECT_EQ(event.kind, obs::EventKind::Classification);
        EXPECT_EQ(event.faultId, 0u);
    }
}

TEST(Gddr5Lineage, LedgerIdenticalAcrossJobs)
{
    std::vector<gddr5::Gddr5Error> errors;
    for (gddr5::Pin pin : gddr5::gddr5InjectablePins())
        errors.push_back(gddr5::Gddr5Error::onePin(pin));
    errors.push_back(gddr5::Gddr5Error::allPins(0x5EED));

    std::string serialized[3];
    const unsigned jobsValues[3] = {1, 2, 8};
    for (unsigned i = 0; i < 3; ++i) {
        gddr5::Gddr5Campaign camp(gddr5::Protection::aiecc());
        LineageLedger ledger;
        camp.setLineageLedger(&ledger);
        camp.runTrials(gddr5::Pattern::ActWr, errors, jobsValues[i]);
        camp.runTrials(gddr5::Pattern::Rd, errors, jobsValues[i]);
        EXPECT_EQ(ledger.size(), 2 * errors.size());
        EXPECT_EQ(ledger.unaccounted(), 0u);
        serialized[i] = ledger.serialize();
    }
    EXPECT_EQ(serialized[0], serialized[1]);
    EXPECT_EQ(serialized[0], serialized[2]);
}

TEST(MonteCarloLineage, LedgerIdenticalAcrossJobs)
{
    std::string serialized[2];
    const unsigned jobsValues[2] = {1, 4};
    for (unsigned i = 0; i < 2; ++i) {
        DataMonteCarlo mc(EccScheme::EDeccQpc);
        LineageLedger ledger;
        mc.setLineageLedger(&ledger);
        ShardPlan plan;
        plan.shardSize = 16;
        plan.jobs = jobsValues[i];
        mc.runCellSharded(DataErrorModel::Bit1, AddrErrorModel::Bit1,
                          100, plan);
        mc.runCellSharded(DataErrorModel::Chip1, AddrErrorModel::None,
                          100, plan);
        EXPECT_EQ(ledger.size(), 200u);
        EXPECT_EQ(ledger.unaccounted(), 0u);
        serialized[i] = ledger.serialize();
    }
    EXPECT_EQ(serialized[0], serialized[1]);
}

TEST(MonteCarloLineage, NothingInjectedStaysOutOfLedger)
{
    DataMonteCarlo mc(EccScheme::Qpc);
    LineageLedger ledger;
    mc.setLineageLedger(&ledger);
    mc.runCell(DataErrorModel::None, AddrErrorModel::None, 50);
    EXPECT_EQ(ledger.size(), 0u);
}

TEST(TraceRoundTrip, FaultMemberSurvivesJsonl)
{
    obs::TraceEvent event;
    event.kind = obs::EventKind::FaultInject;
    event.cycle = 123;
    event.label = "CS";
    event.detail = "ccca";
    event.faultId = 0xDEADBEEFull;
    obs::JsonWriter w(0);
    event.writeJson(w);
    const auto parsed = obs::parseTraceLine(w.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->kind, obs::EventKind::FaultInject);
    EXPECT_EQ(parsed->cycle, 123u);
    EXPECT_EQ(parsed->label, "CS");
    EXPECT_EQ(parsed->faultId, 0xDEADBEEFull);

    // Events without a fault context keep the pre-lineage schema.
    obs::TraceEvent plain;
    plain.kind = obs::EventKind::Detection;
    obs::JsonWriter w2(0);
    plain.writeJson(w2);
    EXPECT_EQ(w2.str().find("fault"), std::string::npos);
}

using StatsDescriptionDeathTest = ::testing::Test;

TEST(StatsDescriptionDeathTest, CollisionAcrossMergedShardsPanics)
{
    // Same counter name, two different claims about what it means:
    // a silent last-wins would let merged shards disagree about the
    // semantics of a shared stat.
    obs::StatsRegistry a, b;
    a.counter("campaign.trials", "trials run") += 3;
    b.counter("campaign.trials", "trials attempted") += 4;
    EXPECT_DEATH(a.merge(b), "different description");

    // Direct re-registration collides the same way.
    obs::StatsRegistry reg;
    reg.counter("x.y", "first meaning");
    EXPECT_DEATH(reg.counter("x.y", "second meaning"),
                 "different description");
}

TEST(LineageLedger, CheckpointStateRoundTripIsExact)
{
    // A ledger restored from its checkpoint form must be behaviorally
    // identical: same serialize()/digest(), and it keeps working —
    // further injections and merges behave as if the process never
    // died.  Site names with spaces exercise the intern-table path
    // (the display serialize() is not reversible for those).
    LineageLedger ledger;
    ledger.recordInjection(11, FaultKind::Ccca, "CS + CKE pair");
    ledger.resolve(11, FaultTerminal::Recovered, "eWCRC", 2, 1);
    ledger.recordInjection(12, FaultKind::Data, "chip 3");
    ledger.resolve(12, FaultTerminal::Corrected, "QPC");
    ledger.recordInjection(13, FaultKind::Addr, "addr bit 7");
    // 13 left Unaccounted on purpose: in-flight state must survive.

    LineageLedger restored;
    ASSERT_TRUE(state::load(restored, state::save(ledger)).ok);
    EXPECT_EQ(restored.serialize(), ledger.serialize());
    EXPECT_EQ(state::save(restored), state::save(ledger));
    EXPECT_EQ(restored.digest(), ledger.digest());
    EXPECT_EQ(restored.size(), 3u);
    EXPECT_EQ(restored.unaccounted(), 1u);

    // Both continue identically after the restore point.
    ledger.resolve(13, FaultTerminal::Detected, "eDECC", 1, 0);
    ledger.recordInjection(14, FaultKind::Data, "chip 3");
    ledger.resolve(14, FaultTerminal::Masked);
    restored.resolve(13, FaultTerminal::Detected, "eDECC", 1, 0);
    restored.recordInjection(14, FaultKind::Data, "chip 3");
    restored.resolve(14, FaultTerminal::Masked);
    EXPECT_EQ(restored.serialize(), ledger.serialize());
    EXPECT_EQ(restored.digest(), ledger.digest());
}

TEST(LineageLedgerDeathTest, RestoredLedgerStillPanicsOnDuplicates)
{
    LineageLedger ledger;
    ledger.recordInjection(21, FaultKind::Data, "bit");
    LineageLedger restored;
    ASSERT_TRUE(state::load(restored, state::save(ledger)).ok);
    EXPECT_DEATH(restored.recordInjection(21, FaultKind::Data, "bit"),
                 "duplicate injection");
}

TEST(StatsDescription, EmptyAndEqualDescriptionsAreCompatible)
{
    obs::StatsRegistry reg;
    obs::Counter &c = reg.counter("stack.retries", "retry commands");
    // Hot-path re-resolution without a description is fine...
    EXPECT_EQ(&reg.counter("stack.retries"), &c);
    // ...as is repeating the identical description...
    EXPECT_EQ(&reg.counter("stack.retries", "retry commands"), &c);
    // ...and a bare registration adopts the first description offered.
    obs::Scalar &s = reg.scalar("stack.rate");
    EXPECT_EQ(s.description(), "");
    reg.scalar("stack.rate", "adopted later");
    EXPECT_EQ(s.description(), "adopted later");
}

} // namespace
} // namespace aiecc
