/**
 * @file
 * Tests for the live campaign heartbeat (obs/heartbeat.hh): the flat
 * JSONL records round-trip through the trace_reader parser, the
 * AIECC_HEARTBEAT_INTERVAL_MS rate limit and its interval-0 override,
 * the SIGUSR1 forced dump, append-mode resume semantics, torn-tail
 * tolerance, and the observability contract — a campaign's merged
 * results are bit-identical for every --jobs value with a heartbeat
 * ticking from the commit callbacks.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "inject/campaign.hh"
#include "obs/heartbeat.hh"
#include "obs/trace_reader.hh"

namespace aiecc
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** Fresh heartbeat file path: remove any leftover from a prior run. */
std::string
freshPath(const std::string &name)
{
    const std::string path = tmpPath(name);
    std::remove(path.c_str());
    return path;
}

/** RAII interval override so one test cannot leak into the next. */
struct IntervalGuard
{
    explicit IntervalGuard(const char *ms)
    {
        ::setenv("AIECC_HEARTBEAT_INTERVAL_MS", ms, 1);
    }
    ~IntervalGuard() { ::unsetenv("AIECC_HEARTBEAT_INTERVAL_MS"); }
};

TEST(Heartbeat, EmptyPathIsInert)
{
    obs::HeartbeatEmitter hb;
    EXPECT_FALSE(hb.open("", "campaign"));
    EXPECT_FALSE(hb.enabled());
    hb.tick(1, 1);
    hb.finalTick(2, 2);
    EXPECT_EQ(hb.records(), 0u);
}

TEST(Heartbeat, UnwritablePathStaysDisabled)
{
    obs::HeartbeatEmitter hb;
    EXPECT_FALSE(hb.open("/no/such/dir/heartbeat.jsonl", "campaign"));
    EXPECT_FALSE(hb.enabled());
}

TEST(Heartbeat, IntervalZeroRecordsRoundTrip)
{
    const IntervalGuard guard("0");
    const std::string path = freshPath("aiecc_hb_roundtrip.jsonl");

    obs::HeartbeatEmitter hb;
    ASSERT_TRUE(hb.open(path, "unit_test_campaign"));
    EXPECT_TRUE(hb.enabled());
    hb.setTotals(10, 100);
    hb.setNote("unit 1/2");
    hb.setPayload([](obs::JsonWriter &w) {
        w.kv("cov_injected", 7);
        w.kv("cost_storage_bits", 1234);
    });
    hb.tick(2, 20);
    hb.tick(5, 50);
    hb.setNote("unit 2/2");
    hb.finalTick(10, 100);
    EXPECT_EQ(hb.records(), 3u);
    hb.close();

    const obs::HeartbeatFile hf = obs::readHeartbeatFile(path);
    ASSERT_TRUE(hf.opened);
    EXPECT_EQ(hf.badLines, 0u);
    EXPECT_EQ(hf.truncatedTail, 0u);
    ASSERT_EQ(hf.records.size(), 3u);

    for (size_t i = 0; i < hf.records.size(); ++i) {
        const obs::HeartbeatRecord &r = hf.records[i];
        EXPECT_EQ(r.seq, i + 1);
        EXPECT_EQ(r.campaign, "unit_test_campaign");
        EXPECT_EQ(r.shardsTotal, 10u);
        EXPECT_EQ(r.trialsTotal, 100u);
        EXPECT_FALSE(r.forced);
        // The bench payload and the process allocation totals arrive
        // as flat extras.
        EXPECT_DOUBLE_EQ(r.extras.at("cov_injected"), 7.0);
        EXPECT_DOUBLE_EQ(r.extras.at("cost_storage_bits"), 1234.0);
        EXPECT_TRUE(r.extras.count("alloc_allocs"));
    }
    EXPECT_EQ(hf.records[0].shardsDone, 2u);
    EXPECT_EQ(hf.records[0].note, "unit 1/2");
    EXPECT_EQ(hf.records[1].trialsDone, 50u);
    EXPECT_EQ(hf.records[2].shardsDone, 10u);
    EXPECT_EQ(hf.records[2].trialsDone, 100u);
    EXPECT_EQ(hf.records[2].note, "unit 2/2");
}

TEST(Heartbeat, LongIntervalRateLimitsAndSigusr1Forces)
{
    // One hour between records: only the first tick emits... until a
    // SIGUSR1 arrives, which forces the next tick out immediately.
    const IntervalGuard guard("3600000");
    const std::string path = freshPath("aiecc_hb_force.jsonl");

    obs::HeartbeatEmitter hb;
    ASSERT_TRUE(hb.open(path, "forced"));
    hb.setTotals(100, 100);
    hb.tick(1, 1); // first tick always emits (rate baseline)
    hb.tick(2, 2); // suppressed
    hb.tick(3, 3); // suppressed
    EXPECT_EQ(hb.records(), 1u);

    ASSERT_EQ(::raise(SIGUSR1), 0);
    hb.tick(4, 4); // forced out by the signal
    hb.tick(5, 5); // suppressed again (flag consumed)
    EXPECT_EQ(hb.records(), 2u);

    hb.finalTick(100, 100); // final records are never suppressed
    hb.close();

    const obs::HeartbeatFile hf = obs::readHeartbeatFile(path);
    ASSERT_TRUE(hf.opened);
    ASSERT_EQ(hf.records.size(), 3u);
    EXPECT_FALSE(hf.records[0].forced);
    EXPECT_EQ(hf.records[0].shardsDone, 1u);
    EXPECT_TRUE(hf.records[1].forced);
    EXPECT_EQ(hf.records[1].shardsDone, 4u);
    EXPECT_FALSE(hf.records[2].forced);
    EXPECT_EQ(hf.records[2].shardsDone, 100u);
}

TEST(Heartbeat, AppendModeExtendsEarlierSessionLog)
{
    // A resumed campaign reopens the same path; the file then tells
    // the whole multi-session story in order.
    const IntervalGuard guard("0");
    const std::string path = freshPath("aiecc_hb_resume.jsonl");
    {
        obs::HeartbeatEmitter hb;
        ASSERT_TRUE(hb.open(path, "resumable"));
        hb.setTotals(4, 4);
        hb.tick(1, 1);
        hb.close();
    }
    {
        obs::HeartbeatEmitter hb;
        ASSERT_TRUE(hb.open(path, "resumable"));
        hb.setTotals(4, 4);
        hb.finalTick(4, 4);
        hb.close();
    }
    const obs::HeartbeatFile hf = obs::readHeartbeatFile(path);
    ASSERT_TRUE(hf.opened);
    ASSERT_EQ(hf.records.size(), 2u);
    EXPECT_EQ(hf.records[0].shardsDone, 1u);
    EXPECT_EQ(hf.records[1].shardsDone, 4u);
    // Sequence numbers are per-session by design (each emitter starts
    // at 1); the resume boundary is visible as the seq reset.
    EXPECT_EQ(hf.records[1].seq, 1u);
}

TEST(Heartbeat, TornTailIsDroppedNotFatal)
{
    // A live writer can be mid-record when the reader looks: the torn
    // final line is dropped and counted, everything before it parses.
    const IntervalGuard guard("0");
    const std::string path = freshPath("aiecc_hb_torn.jsonl");
    {
        obs::HeartbeatEmitter hb;
        ASSERT_TRUE(hb.open(path, "torn"));
        hb.setTotals(2, 2);
        hb.tick(1, 1);
        hb.close();
    }
    std::FILE *f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"heartbeat\",\"seq\":2,\"camp", f);
    std::fclose(f);

    const obs::HeartbeatFile hf = obs::readHeartbeatFile(path);
    ASSERT_TRUE(hf.opened);
    EXPECT_EQ(hf.truncatedTail, 1u);
    ASSERT_EQ(hf.records.size(), 1u);
    EXPECT_EQ(hf.records[0].shardsDone, 1u);
}

TEST(Heartbeat, ParserRejectsForeignTypes)
{
    // Trace events and heartbeats share the flat JSONL grammar but
    // not the "type" member — the parser must not confuse the files.
    std::string err;
    EXPECT_FALSE(obs::parseHeartbeatLine(
        R"({"kind":"command","cycle":1,"label":"WR"})", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(obs::parseHeartbeatLine(
        R"({"type":"trace","seq":1})", nullptr));
    EXPECT_FALSE(obs::parseHeartbeatLine("not json", nullptr));
    EXPECT_TRUE(obs::parseHeartbeatLine(
        R"({"type":"heartbeat","seq":1,"campaign":"x"})", nullptr));
}

TEST(Heartbeat, JobsBitIdentityWithHeartbeatTicking)
{
    // The observability contract: a ticking heartbeat must not
    // perturb campaign results, and the merged stats must stay
    // bit-identical across --jobs values.  Run the same checkpointed
    // sweep at jobs=1 and jobs=4, each with its own interval-0
    // emitter ticking from every commit, and compare the serialized
    // campaign state.
    const IntervalGuard guard("0");
    std::vector<PinError> errors;
    {
        const InjectionCampaign probe(
            Mechanisms::forLevel(ProtectionLevel::Aiecc));
        for (Pin pin : injectablePins(probe.mechanisms().parPinPresent()))
            errors.push_back(PinError::onePin(pin));
    }

    auto runAt = [&](unsigned jobs, const std::string &name) {
        obs::HeartbeatEmitter hb;
        const std::string path = freshPath(name);
        EXPECT_TRUE(hb.open(path, "bitident"));
        hb.setTotals(
            shardCount(errors.size(), InjectionCampaign::trialShardSize),
            errors.size());
        InjectionCampaign camp(
            Mechanisms::forLevel(ProtectionLevel::Aiecc));
        CampaignStats stats;
        uint64_t nextShard = 0;
        EXPECT_EQ(camp.runTrialsCheckpointed(
                      CommandPattern::ActWr, errors, jobs,
                      /*batchShards=*/2, nextShard,
                      [&](uint64_t, const TrialResult &r) {
                          stats.add(r);
                      },
                      [&](uint64_t, uint64_t end) {
                          hb.tick(end, end * InjectionCampaign::
                                            trialShardSize);
                      }),
                  RunStatus::Completed);
        hb.finalTick(nextShard, errors.size());
        EXPECT_GE(hb.records(), 2u);
        return state::save(stats);
    };

    const std::string one = runAt(1, "aiecc_hb_jobs1.jsonl");
    const std::string four = runAt(4, "aiecc_hb_jobs4.jsonl");
    EXPECT_EQ(one, four);
}

} // namespace
} // namespace aiecc
