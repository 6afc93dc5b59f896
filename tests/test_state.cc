/**
 * @file
 * Hostile-input tests for the one checkpoint loader (common/state.hh).
 *
 * For each of the nine mergeable types a populated instance must
 * round-trip byte-exactly (save -> load -> save), and every damaged
 * form — truncated at any token boundary, a non-numeric or
 * overflowing token, an out-of-range enum, trailing tokens — must be
 * refused with an error naming the type and the field, leaving the
 * target unchanged.  The loader's identity checks (bank count, window
 * width, intern indexes) and the derived sum-merge ride along.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aiecc/cost_model.hh"
#include "common/state.hh"
#include "ddr4/address.hh"
#include "gddr5/campaign.hh"
#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/cost.hh"
#include "obs/lineage.hh"
#include "obs/profile.hh"
#include "obs/stats.hh"
#include "obs/timeseries.hh"
#include "ras/health.hh"
#include "recovery/recovery.hh"

namespace aiecc
{
namespace
{

// ---- populated instances ------------------------------------------------

obs::StatsRegistry
populatedStats()
{
    obs::StatsRegistry reg;
    reg.counter("campaign.trials") += 42;
    reg.counter("campaign.detected") += 40;
    reg.scalar("campaign.rate") = 0.1;
    for (uint64_t v : {0u, 3u, 17u, 900u})
        reg.histogram("recovery.attempts").sample(v);
    return reg;
}

obs::ProfileRegistry
populatedProfile()
{
    obs::ProfileRegistry prof;
    for (uint64_t v : {120u, 80u, 4000u})
        prof.timer("stack.read").sample(v);
    {
        obs::ScopedTimer t(&prof.timer("stack.write"));
        std::vector<int> heap(64, 1);
        EXPECT_EQ(heap.size(), 64u);
    }
    return prof;
}

obs::SlidingWindow
populatedWindow()
{
    obs::SlidingWindow w(1 << 10);
    for (uint64_t i = 0; i < 40; ++i)
        w.record(i * 777, 1 + i % 3);
    return w;
}

obs::LineageLedger
populatedLedger()
{
    obs::LineageLedger ledger;
    ledger.recordInjection(11, obs::FaultKind::Ccca, "pin A3");
    ledger.recordInjection(12, obs::FaultKind::Data, "mc:QPC chip 3");
    ledger.recordInjection(13, obs::FaultKind::DataAddr, "mc:QPC chip 3");
    ledger.resolve(11, obs::FaultTerminal::Recovered, "eCAP", 2, 1);
    ledger.resolve(13, obs::FaultTerminal::Corrected, "eDECC", 1, 0);
    return ledger; // fault 12 stays Unaccounted
}

obs::CostModel
aieccModel()
{
    return makeCostModel(Mechanisms::forLevel(ProtectionLevel::Aiecc));
}

obs::CostAccountant
populatedCost()
{
    obs::CostAccountant acct(aieccModel());
    acct.onCommand(true, false);
    acct.onEccEncode();
    acct.onCommand(false, true);
    acct.onEccDecode();
    {
        obs::ScopedRecoveryCost scope(&acct);
        acct.onCommand(true, false);
        acct.onBackoff(12);
    }
    return acct;
}

obs::TraceEvent
dataCe(unsigned bank, unsigned row, unsigned col, uint64_t cycle)
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
    ev.label = "DECC";
    ev.value = addr.pack(geom);
    return ev;
}

ras::HealthMonitor
populatedMonitor()
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 10; ++i)
        mon.record(dataCe(3, 44, i, 100 * i)); // degrade, retire row
    obs::TraceEvent alertEv;
    alertEv.kind = obs::EventKind::Detection;
    alertEv.cycle = 5000;
    alertEv.label = "CSTC";
    mon.record(alertEv);
    EXPECT_FALSE(mon.actionLog().empty());
    return mon;
}

CampaignStats
populatedCampaign()
{
    CampaignStats s;
    s.trials = 30;
    s.detected = 25;
    s.noEffect = 4;
    s.corrected = 20;
    s.due = 5;
    s.sdc = 1;
    s.recoveryEpisodes = 7;
    s.recoveryAttempts = 9;
    s.recoveredFirstTry = 5;
    s.recoveredAfterRetries = 2;
    s.byFirstDetector[Mechanism::ECap] = 20;
    s.byFirstDetector[Mechanism::EDecc] = 5;
    return s;
}

MonteCarloCell
populatedCell()
{
    MonteCarloCell c;
    c.trials = 490;
    c.counts[2] = 12;
    c.counts[7] = 478;
    return c;
}

gddr5::Gddr5Stats
populatedGddr5()
{
    gddr5::Gddr5Stats s;
    s.trials = 21;
    s.detected = 19;
    s.noEffect = 2;
    s.corrected = 17;
    s.due = 2;
    return s;
}

// ---- damage helpers -----------------------------------------------------

std::vector<std::string>
split(const std::string &text)
{
    std::vector<std::string> toks;
    size_t begin = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == ' ') {
            toks.push_back(text.substr(begin, i - begin));
            begin = i + 1;
        }
    }
    return toks;
}

std::string
join(const std::vector<std::string> &toks)
{
    std::string out;
    for (size_t i = 0; i < toks.size(); ++i)
        out += (i ? " " : "") + toks[i];
    return out;
}

/** @p text with token @p index (negative: from the end) replaced. */
std::string
withToken(const std::string &text, long index, const std::string &tok)
{
    std::vector<std::string> toks = split(text);
    toks.at(index < 0 ? toks.size() + index : index) = tok;
    return join(toks);
}

/**
 * Loading @p bad into @p target must fail with "<type>.<field>...: "
 * (containing @p field when given) and leave @p target's bytes alone.
 */
template <class T>
void
expectRejected(T &target, const std::string &bad, const std::string &type,
               const std::string &what, const std::string &field = "")
{
    const std::string before = state::save(target);
    const state::Status st = state::load(target, bad);
    EXPECT_FALSE(st.ok) << what;
    EXPECT_EQ(st.error.rfind(type + ".", 0), 0u) << what << ": " << st.error;
    EXPECT_NE(st.error.find(": "), std::string::npos) << st.error;
    if (!field.empty()) {
        EXPECT_NE(st.error.find(field), std::string::npos)
            << what << ": " << st.error;
    }
    EXPECT_EQ(state::save(target), before) << what;
}

/**
 * The common battery: round trip into @p target, then every damage
 * kind against it.  @p narrowTail marks types whose last token is a
 * 32-bit field, so 2^32 must overflow it.
 */
template <class T>
void
checkHostileInput(T &target, const T &populated, const std::string &type,
                  bool narrowTail = false)
{
    const std::string text = state::save(populated);
    ASSERT_TRUE(state::load(target, text).ok) << type;
    ASSERT_EQ(state::save(target), text) << type;

    expectRejected(target, "", type, "empty input");
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ' ')
            expectRejected(target, text.substr(0, i), type,
                           "cut at byte " + std::to_string(i));
    }
    expectRejected(target, withToken(text, 0, "x1"), type,
                   "non-numeric first token", "is not a number");
    expectRejected(target, withToken(text, -1, "12z"), type,
                   "non-numeric last token", "is not a number");
    expectRejected(target, withToken(text, 0, "18446744073709551616"),
                   type, "overflowing first token", "overflows");
    expectRejected(target, withToken(text, -1, "18446744073709551616"),
                   type, "overflowing last token", "overflows");
    if (narrowTail)
        expectRejected(target, withToken(text, -1, "4294967296"), type,
                       "2^32 in a 32-bit field", "overflows a 32-bit");
    expectRejected(target, text + " 7", type, "trailing token",
                   "trailing tokens");
}

// ---- the nine types -----------------------------------------------------

TEST(StateCodec, StatsRegistryRejectsHostileInput)
{
    obs::StatsRegistry target;
    checkHostileInput(target, populatedStats(), "StatsRegistry");
    EXPECT_EQ(target.counterValue("campaign.trials"), 42u);
}

TEST(StateCodec, ProfileRegistryRejectsHostileInput)
{
    obs::ProfileRegistry target;
    checkHostileInput(target, populatedProfile(), "ProfileRegistry");
    ASSERT_NE(target.find("stack.read"), nullptr);
    EXPECT_EQ(target.find("stack.read")->count(), 3u);
    // The restored timer is wired to its restored allocation scope.
    EXPECT_EQ(target.find("stack.read")->allocScope(),
              target.findAlloc("stack.read"));
}

TEST(StateCodec, SlidingWindowRejectsHostileInput)
{
    obs::SlidingWindow target(1 << 10);
    const obs::SlidingWindow w = populatedWindow();
    checkHostileInput(target, w, "SlidingWindow");
    EXPECT_EQ(target.windowTotal(), w.windowTotal());
}

TEST(StateCodec, LineageLedgerRejectsHostileInput)
{
    obs::LineageLedger target;
    const obs::LineageLedger ledger = populatedLedger();
    checkHostileInput(target, ledger, "LineageLedger", true);
    EXPECT_EQ(target.digest(), ledger.digest());
    EXPECT_EQ(target.unaccounted(), 1u);

    // The last record's tail is "... kind terminal site mech obs att".
    const std::string text = state::save(ledger);
    expectRejected(target, withToken(text, -6, "4"), "LineageLedger",
                   "FaultKind 4", "recs[2].kind: value 4");
    expectRejected(target, withToken(text, -5, "6"), "LineageLedger",
                   "FaultTerminal 6", "recs[2].terminal: value 6");
    expectRejected(target, withToken(text, -4, "9"), "LineageLedger",
                   "site index 9", "recs[2].site");
    expectRejected(target, withToken(text, -3, "9"), "LineageLedger",
                   "mechanism index 9", "recs[2].mech");
}

TEST(StateCodec, CostAccountantRejectsHostileInput)
{
    obs::CostAccountant target(aieccModel());
    const obs::CostAccountant acct = populatedCost();
    checkHostileInput(target, acct, "CostAccountant");
    // Totals are derived, not stored, and the restored digest (the
    // byte-stable serialize() form) is the original's.
    EXPECT_TRUE(target.audit().ok);
    EXPECT_EQ(target.digest(), acct.digest());
}

TEST(StateCodec, HealthMonitorRejectsHostileInput)
{
    ras::HealthMonitor target;
    const ras::HealthMonitor mon = populatedMonitor();
    checkHostileInput(target, mon, "HealthMonitor");
    EXPECT_EQ(target.bankState(3), mon.bankState(3));

    // rank.state leads the form; the action log ends it, so the last
    // action's kind is four tokens from the end.
    const std::string text = state::save(mon);
    expectRejected(target, withToken(text, 0, "3"), "HealthMonitor",
                   "HealthState 3", "rank.state: value 3");
    expectRejected(target, withToken(text, -4, "3"), "HealthMonitor",
                   "ActionKind 3", ".kind: value 3");
}

TEST(StateCodec, CampaignStatsRejectsHostileInput)
{
    CampaignStats target;
    checkHostileInput(target, populatedCampaign(), "CampaignStats", true);
    EXPECT_EQ(target.byFirstDetector.at(Mechanism::EDecc), 5u);

    // byFirstDetector ends the form: "... key value" per entry.
    const std::string text = state::save(populatedCampaign());
    expectRejected(target, withToken(text, -2, "7"), "CampaignStats",
                   "Mechanism 7", "byFirstDetector[1]: value 7");
    expectRejected(target, withToken(text, -2, "1"), "CampaignStats",
                   "duplicate Mechanism key",
                   "byFirstDetector[1]: duplicate key");
}

TEST(StateCodec, MonteCarloCellRejectsHostileInput)
{
    MonteCarloCell target;
    checkHostileInput(target, populatedCell(), "MonteCarloCell");
    EXPECT_EQ(target.counts[7], 478u);
}

TEST(StateCodec, Gddr5StatsRejectsHostileInput)
{
    gddr5::Gddr5Stats target;
    checkHostileInput(target, populatedGddr5(), "Gddr5Stats", true);
    EXPECT_EQ(target.corrected, 17u);
}

// ---- identity checks and derived members --------------------------------

TEST(StateCodec, HealthMonitorRefusesOtherGeometryOrWidth)
{
    const std::string text = state::save(populatedMonitor());
    ras::HealthConfig wide;
    wide.bucketCycles = 1ull << 15;
    ras::HealthMonitor other(wide);
    expectRejected(other, text, "HealthMonitor", "bucket width",
                   "bucket width");

    // A monitor of another geometry refuses the bank vector.
    ras::HealthConfig small;
    small.geom.bgBits = 1;
    ras::HealthMonitor fewer(small);
    expectRejected(fewer, text, "HealthMonitor", "bank count",
                   "banks: 16 banks, monitor has 8");
}

TEST(StateCodec, SlidingWindowRefusesZeroWidth)
{
    obs::SlidingWindow target(1 << 10);
    expectRejected(target, withToken(state::save(populatedWindow()), 0, "0"),
                   "SlidingWindow", "zero width",
                   "bucketWidth: zero bucket width");
}

TEST(StateCodec, LedgerRestoresOpenRecordsAndSpacedSites)
{
    obs::LineageLedger restored;
    ASSERT_TRUE(state::load(restored, state::save(populatedLedger())).ok);
    EXPECT_EQ(restored.siteName(1), "mc:QPC chip 3");
    // The open record is live again: resolving it works, twice does not.
    restored.resolve(12, obs::FaultTerminal::Masked);
    EXPECT_EQ(restored.unaccounted(), 0u);
}

TEST(StateCodec, StatsRegistryRefusesConflictingNames)
{
    // A counter "a" and a histogram "a.b" cannot coexist (leaf vs
    // group); the loader refuses the pair as registration would.
    obs::StatsRegistry reg;
    reg.histogram("a.b").sample(1);
    // "0 0 1 3:a.b ..." with the empty counter table swapped for {a: 1}.
    const std::string text = withToken(state::save(reg), 0, "1 1:a 1");
    obs::StatsRegistry target;
    expectRejected(target, text, "StatsRegistry", "leaf/group clash",
                   "histograms: stat group 'a'");
}

TEST(StateCodec, SumIntoAddsEveryField)
{
    // Every persisted field of a plain-sum type takes part in the
    // merge: summing an all-ones value three times yields all threes.
    RecoveryStats ones;
    ones.episodes = ones.attempts = ones.recovered = 1;
    ones.recoveredFirstTry = ones.recoveredAfterRetries = 1;
    ones.exhausted = ones.wrReplays = ones.rdReissues = 1;
    ones.wrtResyncs = ones.quarantines = ones.rankDegrades = 1;
    ones.patrolReads = ones.patrolScrubs = 1;
    RecoveryStats sum;
    for (int i = 0; i < 3; ++i)
        state::sumInto(sum, ones);
    for (const std::string &tok : split(state::save(sum)))
        EXPECT_EQ(tok, "3");

    CampaignStats a = populatedCampaign();
    CampaignStats b;
    b.trials = 1;
    b.byFirstDetector[Mechanism::Cstc] = 1;
    a.merge(b);
    EXPECT_EQ(a.trials, 31u);
    EXPECT_EQ(a.byFirstDetector.size(), 3u);
    EXPECT_EQ(a.byFirstDetector.at(Mechanism::ECap), 20u);
}

} // namespace
} // namespace aiecc
