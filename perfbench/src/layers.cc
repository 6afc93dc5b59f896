/**
 * @file
 * The traced run's layer suite: every layer timed on its own, through
 * its public functions, on inputs the seeded streams produce.
 *
 * Times are per call, taken as the 25th percentile over repetitions
 * (the fast repetitions repeat on a shared host).  Counts come from
 * fixed-length stream segments, so they repeat exactly for a seed.
 */

#include <algorithm>
#include <array>

#include "aiecc/stack.hh"
#include "bench.hh"
#include "check.hh"
#include "controller/controller.hh"
#include "crc/crc.hh"
#include "ddr4/command.hh"
#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/observer.hh"
#include "obs/stats.hh"
#include "rs/rs_code.hh"
#include "spans.hh"
#include "stream.hh"

namespace perfbench
{

using namespace aiecc;

namespace
{

constexpr uint64_t kSegmentAccesses = 16384;
constexpr uint64_t kAccessesPerRep = 1024;
constexpr uint64_t kCaptureAccesses = 4096;
constexpr int kReps = 15;
constexpr double kTckNs = 1000.0 / 1200.0; ///< DDR4-2400 command clock

/** Defeats dead-code elimination of timed results. */
volatile uint64_t gSink = 0;

/**
 * Time @p body (performing @p calls calls) kReps times after one
 * warm-up pass; ns per call at the 25th percentile of repetitions.
 */
template <class Body>
double
nsPerCall(SpanRecorder &spans, uint32_t parent, const char *name,
          uint64_t calls, Body &&body)
{
    body();
    std::vector<double> perCall;
    for (int r = 0; r < kReps; ++r) {
        const uint32_t sid = spans.begin(name, parent, r);
        body();
        perCall.push_back(static_cast<double>(spans.end(sid)) / calls);
    }
    return quantile(perCall, 0.25);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One command edge of the clean QPC stream, as the device saw it. */
struct Edge
{
    Cycle cycle = 0;
    PinWord pins;
    Command cmd;
    int write = -1; ///< index into the captured writes (WR edges)
};

struct CapturedWrite
{
    MtbAddress addr;
    uint32_t packed = 0;
    BitVec payload{Burst::dataBits};
};

/** The clean QPC stream's command edges and writes. */
struct Capture
{
    std::vector<Edge> edges;
    std::vector<CapturedWrite> writes;
};

Capture
captureQpcStream(uint64_t seed)
{
    Capture cap;
    TrafficRunner runner(qpcReadSpec(), seed);
    runner.prewrite();
    ProtectionStack &stack = runner.stack();
    runner.setEdgeTap([&cap, &stack](uint64_t, const PinWord &pins) {
        Edge e;
        e.cycle = stack.controller().now();
        e.pins = pins;
        e.cmd = decodeCommand(pins).cmd;
        if (e.cmd.type == CmdType::Wr)
            e.write = static_cast<int>(cap.writes.size()) - 1;
        cap.edges.push_back(e);
    });
    for (uint64_t i = 0; i < kCaptureAccesses; ++i) {
        const TrafficRunner::Next n = runner.peekNext();
        if (!n.isRead) {
            CapturedWrite w;
            w.addr = n.addr;
            w.packed = n.addr.pack(stack.geometry());
            fillPayload(w.payload, n.block, runner.version(n.block) + 1);
            cap.writes.push_back(w);
        }
        runner.access(nullptr, 0, i);
    }
    return cap;
}

RankConfig
rankConfigFor(const Mechanisms &mech, const Burst &fill)
{
    RankConfig rc;
    rc.parityMode = mech.parity;
    rc.wcrcMode = mech.wcrc;
    rc.cstcEnabled = mech.cstc;
    // Every never-written block reads as one valid codeword: a copy,
    // close to the cost of a stored block.
    rc.fillFn = [fill](uint32_t) { return fill; };
    return rc;
}

/** The write data the controller sends with a WR (burst + eWCRC). */
WriteData
writeDataFor(const Burst &burst, const MtbAddress &intended, WcrcMode mode)
{
    WriteData wd;
    wd.burst = burst;
    wd.crcValid = mode != WcrcMode::Off;
    const uint64_t addrField =
        static_cast<uint64_t>(intended.pack(Geometry{})) << 32;
    for (unsigned chip = 0; chip < Burst::numChips; ++chip) {
        const uint64_t lane = burst.chipWord(chip);
        wd.crc[chip] = static_cast<uint8_t>(
            mode == WcrcMode::DataAddress
                ? Crc::ddr4Crc8().computeWord(lane | addrField, 64)
                : Crc::ddr4Crc8().computeWord(lane, 32));
    }
    return wd;
}

/** Payload bytes as GF(2^8) symbols (64 per block). */
std::vector<GfElem>
payloadSymbols(const std::vector<CapturedWrite> &writes)
{
    std::vector<GfElem> out;
    for (const CapturedWrite &w : writes) {
        for (unsigned word = 0; word < 8; ++word) {
            const uint64_t v = w.payload.getField(64 * word, 64);
            for (unsigned b = 0; b < 8; ++b)
                out.push_back(static_cast<GfElem>(v >> (8 * b)));
        }
    }
    return out;
}

void
timeBelowStack(uint64_t seed, SpanRecorder &spans, uint32_t parent,
               Metrics &out)
{
    const Capture cap = captureQpcStream(seed);
    const Mechanisms mech = qpcReadSpec().mech;
    const std::unique_ptr<DataEcc> qpc = makeEcc(EccScheme::EDeccQpc);
    const std::unique_ptr<DataEcc> amd = makeEcc(EccScheme::EDeccAmd);
    const size_t nw = cap.writes.size();

    std::vector<Burst> qpcBursts, amdBursts;
    for (const CapturedWrite &w : cap.writes) {
        qpcBursts.push_back(qpc->encode(w.payload, w.packed));
        amdBursts.push_back(amd->encode(w.payload, w.packed));
    }

    // ---- ddr4: the command codec ----
    out.push_back({"ddr4.encode_command_ns", "ns",
                   nsPerCall(spans, parent, "ddr4.encodeCommand",
                             cap.edges.size(), [&] {
                                 uint64_t x = 0;
                                 for (const Edge &e : cap.edges)
                                     x ^= encodeCommand(e.cmd).levels;
                                 gSink = gSink + x;
                             })});
    out.push_back({"ddr4.decode_command_ns", "ns",
                   nsPerCall(spans, parent, "ddr4.decodeCommand",
                             cap.edges.size(), [&] {
                                 uint64_t x = 0;
                                 for (const Edge &e : cap.edges)
                                     x ^= decodeCommand(e.pins).cmd.col;
                                 gSink = gSink + x;
                             })});

    // ---- controller and dram: replay the edges on fresh models ----
    const Burst fill = qpcBursts.front();
    std::vector<std::optional<WriteData>> wrData(cap.edges.size());
    {
        std::vector<unsigned> openRow(Geometry{}.numBanks(), 0);
        for (size_t i = 0; i < cap.edges.size(); ++i) {
            const Edge &e = cap.edges[i];
            const unsigned bank = e.cmd.bg * Geometry{}.banksPerGroup() +
                                  e.cmd.ba;
            if (e.cmd.type == CmdType::Act)
                openRow[bank] = e.cmd.row;
            if (e.write < 0)
                continue;
            MtbAddress intended;
            intended.bg = e.cmd.bg;
            intended.ba = e.cmd.ba;
            intended.row = openRow[bank];
            intended.col = e.cmd.col >> Geometry::burstBits;
            wrData[i] = writeDataFor(qpcBursts[e.write], intended, mech.wcrc);
        }
    }
    uint64_t replayAlerts = 0;
    std::vector<double> issueNs, stepNs;
    for (int r = 0; r <= kReps; ++r) {
        const RankConfig rc = rankConfigFor(mech, fill);
        {
            DramRank rank(rc);
            MemController ctrl(rc, &rank);
            const uint32_t sid =
                spans.begin("controller.issue", parent, r);
            for (const Edge &e : cap.edges) {
                const IssueResult res =
                    e.write >= 0 ? ctrl.issue(e.cmd, qpcBursts[e.write])
                                 : ctrl.issue(e.cmd);
                replayAlerts += res.exec.alerts.size();
            }
            const double ns = static_cast<double>(spans.end(sid));
            if (r > 0)
                issueNs.push_back(ns / cap.edges.size());
        }
        {
            DramRank rank(rc);
            const uint32_t sid = spans.begin("dram.step", parent, r);
            for (size_t i = 0; i < cap.edges.size(); ++i) {
                const ExecResult ex =
                    rank.step(cap.edges[i].cycle, cap.edges[i].pins,
                              wrData[i]);
                replayAlerts += ex.alerts.size();
            }
            const double ns = static_cast<double>(spans.end(sid));
            if (r > 0)
                stepNs.push_back(ns / cap.edges.size());
        }
    }
    out.push_back({"controller.issue_ns", "ns", quantile(issueNs, 0.25)});
    out.push_back({"dram.step_ns", "ns", quantile(stepNs, 0.25)});
    out.push_back({"controller.replay_alerts", "count",
                   static_cast<double>(replayAlerts)});

    // ---- ecc: the data codecs the two traffic workloads run ----
    const auto timeCodec = [&](const char *encName, const char *decName,
                               const char *encSpan, const char *decSpan,
                               const DataEcc &codec,
                               const std::vector<Burst> &bursts) {
        out.push_back({encName, "ns",
                       nsPerCall(spans, parent, encSpan, nw, [&] {
                           uint64_t x = 0;
                           for (const CapturedWrite &w : cap.writes)
                               x ^= codec.encode(w.payload, w.packed)
                                        .chipWord(0);
                           gSink = gSink + x;
                       })});
        out.push_back({decName, "ns",
                       nsPerCall(spans, parent, decSpan, nw, [&] {
                           uint64_t x = 0;
                           for (size_t i = 0; i < nw; ++i)
                               x += codec.decode(bursts[i],
                                                 cap.writes[i].packed)
                                        .symbolsCorrected;
                           gSink = gSink + x;
                       })});
    };
    timeCodec("ecc.qpc.encode_ns", "ecc.qpc.decode_ns", "ecc.qpc.encode",
              "ecc.qpc.decode", *qpc, qpcBursts);
    timeCodec("ecc.amd.encode_ns", "ecc.amd.decode_ns", "ecc.amd.encode",
              "ecc.amd.decode", *amd, amdBursts);

    // ---- crc: the eWCRC lanes of every write ----
    out.push_back(
        {"crc.word_ns", "ns",
         nsPerCall(spans, parent, "crc.computeWord", nw * Burst::numChips,
                   [&] {
                       uint64_t x = 0;
                       for (size_t i = 0; i < nw; ++i) {
                           const uint64_t addrField =
                               static_cast<uint64_t>(cap.writes[i].packed)
                               << 32;
                           for (unsigned c = 0; c < Burst::numChips; ++c)
                               x ^= Crc::ddr4Crc8().computeWord(
                                   qpcBursts[i].chipWord(c) | addrField, 64);
                       }
                       gSink = gSink + x;
                   })});

    // ---- rs: the raw codes, clean and with injected symbol errors ----
    const std::vector<GfElem> msgs = payloadSymbols(cap.writes);
    Rng errRng = Rng::forStream(seed, 30);
    RsWorkspace ws;
    uint8_t positions[8];
    unsigned numPositions = 0;

    const RsCodec rsQpc(72, 64);
    std::vector<GfElem> qpcWords(nw * 72), qpcErr(nw * 72), scratch(72 * 4);
    for (size_t i = 0; i < nw; ++i) {
        rsQpc.encodeInto(&msgs[i * 64], &qpcWords[i * 72]);
        std::copy_n(&qpcWords[i * 72], 72, &qpcErr[i * 72]);
        // t = 4 symbol errors at distinct positions.
        std::array<unsigned, 4> pos{};
        for (unsigned j = 0; j < 4; ++j) {
            unsigned p;
            do {
                p = static_cast<unsigned>(errRng.below(72));
            } while (std::find(pos.begin(), pos.begin() + j, p) !=
                     pos.begin() + j);
            pos[j] = p;
            qpcErr[i * 72 + p] ^= static_cast<GfElem>(1 + errRng.below(255));
        }
    }
    out.push_back({"rs.qpc.parity_ns", "ns",
                   nsPerCall(spans, parent, "rs.qpc.parityInto", nw, [&] {
                       for (size_t i = 0; i < nw; ++i)
                           rsQpc.parityInto(&msgs[i * 64], scratch.data());
                       gSink = gSink + scratch[0];
                   })});
    const auto decodeQpc = [&](const std::vector<GfElem> &words) {
        uint64_t x = 0;
        for (size_t i = 0; i < nw; ++i) {
            std::copy_n(&words[i * 72], 72, scratch.data());
            x += static_cast<uint64_t>(rsQpc.decodeInto(
                scratch.data(), ws, positions, numPositions));
        }
        gSink = gSink + x;
    };
    out.push_back({"rs.qpc.decode_clean_ns", "ns",
                   nsPerCall(spans, parent, "rs.qpc.decodeInto.clean", nw,
                             [&] { decodeQpc(qpcWords); })});
    out.push_back({"rs.qpc.decode_error_ns", "ns",
                   nsPerCall(spans, parent, "rs.qpc.decodeInto.error", nw,
                             [&] { decodeQpc(qpcErr); })});

    // AMD: four interleaved RS(18,16) words per block, lane-minor.
    const RsCodec rsAmd(18, 16);
    std::vector<GfElem> amdWords(nw * 72), amdErr(nw * 72);
    for (size_t i = 0; i < nw; ++i) {
        GfElem *w = &amdWords[i * 72];
        std::copy_n(&msgs[i * 64], 64, w);
        rsAmd.parityBatch(w, w + 64, 4);
        std::copy_n(w, 72, &amdErr[i * 72]);
        // One bad chip: the same symbol position in every lane.
        const unsigned p = static_cast<unsigned>(errRng.below(18));
        for (unsigned lane = 0; lane < 4; ++lane)
            amdErr[i * 72 + p * 4 + lane] ^=
                static_cast<GfElem>(1 + errRng.below(255));
    }
    out.push_back({"rs.amd.parity_batch_ns", "ns",
                   nsPerCall(spans, parent, "rs.amd.parityBatch", nw, [&] {
                       for (size_t i = 0; i < nw; ++i)
                           rsAmd.parityBatch(&msgs[i * 64], scratch.data(),
                                             4);
                       gSink = gSink + scratch[0];
                   })});
    RsCodec::LaneResult lanes[4];
    const auto decodeAmd = [&](const std::vector<GfElem> &words) {
        uint64_t x = 0;
        for (size_t i = 0; i < nw; ++i) {
            std::copy_n(&words[i * 72], 72, scratch.data());
            rsAmd.decodeBatch(scratch.data(), 4, lanes, ws);
            x += static_cast<uint64_t>(lanes[0].status);
        }
        gSink = gSink + x;
    };
    out.push_back({"rs.amd.decode_batch_clean_ns", "ns",
                   nsPerCall(spans, parent, "rs.amd.decodeBatch.clean", nw,
                             [&] { decodeAmd(amdWords); })});
    out.push_back({"rs.amd.decode_batch_error_ns", "ns",
                   nsPerCall(spans, parent, "rs.amd.decodeBatch.error", nw,
                             [&] { decodeAmd(amdErr); })});
}

/** Per-access ns of a stream segment, in repetitions of accesses. */
double
timeSegment(TrafficRunner &runner, SpanRecorder &spans, uint32_t parent,
            const char *name)
{
    std::vector<double> perAccess;
    for (uint64_t done = 0; done < kSegmentAccesses;
         done += kAccessesPerRep) {
        const uint32_t sid = spans.begin(name, parent, done);
        for (uint64_t i = 0; i < kAccessesPerRep; ++i)
            runner.access(nullptr, 0, done + i);
        perAccess.push_back(static_cast<double>(spans.end(sid)) /
                            kAccessesPerRep);
    }
    return quantile(perAccess, 0.25);
}

void
timeStack(uint64_t seed, SpanRecorder &spans, uint32_t parent, Metrics &out)
{
    // ---- the QPC stream at every protection level ----
    const std::pair<ProtectionLevel, const char *> levels[] = {
        {ProtectionLevel::None, "aiecc.level_none_ns"},
        {ProtectionLevel::Ddr4Decc, "aiecc.level_decc_ns"},
        {ProtectionLevel::Ddr4EDecc, "aiecc.level_edecc_ns"},
        {ProtectionLevel::Aiecc, "aiecc.level_aiecc_ns"},
    };
    for (const auto &[level, name] : levels) {
        TrafficRunner runner(levelSpec(level), seed);
        runner.prewrite();
        out.push_back({name, "ns", timeSegment(runner, spans, parent, name)});
    }

    // ---- per call on the QPC stream; exact counts of its segment ----
    {
        TrafficRunner runner(qpcReadSpec(), seed);
        runner.prewrite();
        MemController &ctrl = runner.stack().controller();
        const uint64_t cmd0 = ctrl.commandsIssued();
        const Cycle cyc0 = ctrl.now();
        std::vector<double> readNs;
        for (uint64_t i = 0; i < kSegmentAccesses; ++i) {
            const bool isRead = runner.peekNext().isRead;
            const uint32_t sid = spans.begin(
                isRead ? "aiecc.read" : "aiecc.write", parent, i);
            runner.access(nullptr, 0, i);
            const double ns = static_cast<double>(spans.end(sid));
            if (isRead)
                readNs.push_back(ns);
        }
        out.push_back({"aiecc.read_ns", "ns", median(readNs)});
        out.push_back({"controller.commands_per_access", "count",
                       static_cast<double>(ctrl.commandsIssued() - cmd0) /
                           kSegmentAccesses});
        out.push_back({"controller.sim_ns_per_access", "ns",
                       static_cast<double>(ctrl.now() - cyc0) * kTckNs /
                           kSegmentAccesses});
    }

    // ---- the faulted AMD stream: writes, recovery, detections ----
    {
        TrafficRunner runner(amdWriteFaultsSpec(), seed);
        runner.prewrite();
        const RecoveryStats r0 = runner.stack().recoveryStats();
        const uint64_t det0 = runner.tally().detections;
        std::vector<double> writeNs, recoveringNs;
        for (uint64_t i = 0; i < kSegmentAccesses; ++i) {
            const bool isRead = runner.peekNext().isRead;
            const uint64_t ep = runner.stack().recoveryStats().episodes;
            const uint32_t sid = spans.begin(
                isRead ? "aiecc.read" : "aiecc.write", parent, i);
            runner.access(nullptr, 0, i);
            const double ns = static_cast<double>(spans.end(sid));
            if (runner.stack().recoveryStats().episodes != ep)
                recoveringNs.push_back(ns);
            else if (!isRead)
                writeNs.push_back(ns);
        }
        const RecoveryStats &r1 = runner.stack().recoveryStats();
        out.push_back({"aiecc.write_ns", "ns", median(writeNs)});
        out.push_back({"aiecc.recovering_access_ns", "ns",
                       median(recoveringNs)});
        out.push_back({"aiecc.detections", "count",
                       static_cast<double>(runner.tally().detections - det0)});
        const std::pair<const char *, uint64_t> counts[] = {
            {"recovery.episodes", r1.episodes - r0.episodes},
            {"recovery.attempts", r1.attempts - r0.attempts},
            {"recovery.wr_replays", r1.wrReplays - r0.wrReplays},
            {"recovery.rd_reissues", r1.rdReissues - r0.rdReissues},
            {"recovery.wrt_resyncs", r1.wrtResyncs - r0.wrtResyncs},
        };
        for (const auto &[name, n] : counts)
            out.push_back({name, "count", static_cast<double>(n)});
    }

    // ---- construction of one stack ----
    StackConfig cfg;
    cfg.mech = qpcReadSpec().mech;
    cfg.seed = seed;
    out.push_back({"aiecc.construct_ms", "ms",
                   1e-6 * nsPerCall(spans, parent, "aiecc.construct", 1, [&] {
                       ProtectionStack stack(cfg);
                       gSink = gSink + stack.controller().now();
                   })});
}

void
timeInjection(uint64_t seed, SpanRecorder &spans, uint32_t parent,
              Metrics &out)
{
    // ---- CCCA trials: every 1-pin error on every pattern ----
    const auto trialNs = [&](obs::Observer *observer, const char *name) {
        InjectionCampaign camp(Mechanisms::forLevel(ProtectionLevel::Aiecc),
                               seed);
        camp.setObserver(observer);
        const unsigned p = static_cast<unsigned>(camp.kPinSpace(1).size());
        const std::vector<CommandPattern> patterns = allPatterns();
        return nsPerCall(spans, parent, name, p * patterns.size(), [&] {
            uint64_t x = 0;
            for (CommandPattern pat : patterns) {
                for (uint64_t r = 0; r < p; ++r)
                    x += static_cast<uint64_t>(
                        camp.runTrial(pat, camp.kPinError(1, r)).outcome);
            }
            gSink = gSink + x;
        });
    };
    const double bare = trialNs(nullptr, "inject.ccca_trial");
    obs::StatsRegistry registry;
    obs::Observer observer(&registry);
    const double observed = trialNs(&observer, "inject.ccca_trial.observed");
    out.push_back({"inject.ccca_trial_ns", "ns", bare});
    out.push_back({"obs.observer_ns_per_trial", "ns", observed - bare});

    // ---- Monte-Carlo trials per data-error model (QPC) ----
    constexpr uint64_t kTrials = 4096;
    DataMonteCarlo mc(EccScheme::Qpc, Rng::forStream(seed, 40).next());
    const std::pair<DataErrorModel, const char *> models[] = {
        {DataErrorModel::Chip1, "inject.mc_trial_ns.chip1"},
        {DataErrorModel::Rank1, "inject.mc_trial_ns.rank1"},
    };
    for (const auto &[model, name] : models) {
        out.push_back({name, "ns",
                       nsPerCall(spans, parent, name, kTrials, [&] {
                           gSink = gSink +
                                   mc.runCell(model, AddrErrorModel::None,
                                              kTrials)
                                       .trials;
                       })});
    }
}

} // namespace

void
runLayerSuite(uint64_t seed, SpanRecorder &spans, Metrics &out)
{
    const uint32_t root = spans.begin("layer_suite", 0, seed);
    timeStack(seed, spans, root, out);
    timeBelowStack(seed, spans, root, out);
    timeInjection(seed, spans, root, out);
    spans.end(root);
}

} // namespace perfbench
