/**
 * @file
 * The two traffic workloads: the clean QPC read mix and the
 * write-heavy, CCCA-faulted AMD mix.
 */

#include "bench.hh"
#include "check.hh"
#include "ddr4/command.hh"
#include "spans.hh"
#include "stream.hh"

namespace perfbench
{

using namespace aiecc;

namespace
{

constexpr uint64_t kAccessesPerRep = 1024;
constexpr size_t kRepsPerRound = 32;

/**
 * A fixed, seed-independent reproduction of a known fault.  On a fresh
 * stack: open a row in bank B, write block A, write A again with CS
 * flipped on the WR edge (the device never sees it), then write B on
 * its open row.  The write-toggle mismatch alerts on B's WR, recovery
 * replays B's write, and A's second version is lost: the read-back of
 * A returns the first version with no DUE, one failed operation in
 * every round.
 */
class DroppedWriteRepro
{
  public:
    static constexpr uint64_t kAccesses = 5;

    explicit DroppedWriteRepro(const TrafficSpec &spec) : spec(spec) {}

    /** Run the five accesses; true iff the read-back of A matched. */
    bool
    run()
    {
        StackConfig cfg;
        cfg.mech = spec.mech;
        cfg.scrubOnCorrection = spec.scrubOnCorrection;
        ProtectionStack stack(cfg);
        bool armed = false;
        stack.setPinCorruptor([&armed](uint64_t, PinWord &pins) {
            if (armed && decodeCommand(pins).cmd.type == CmdType::Wr) {
                pins.flip(Pin::CS);
                armed = false;
            }
        });
        MtbAddress a;
        a.row = 5;
        a.col = 7;
        MtbAddress b;
        b.bg = 1;
        b.row = 9;
        b.col = 3;
        constexpr uint32_t blockA = 0xA0;
        constexpr uint32_t blockB = 0xB0;
        BitVec data(Burst::dataBits);
        fillPayload(data, blockB, 1);
        stack.write(b, data);
        fillPayload(data, blockA, 1);
        stack.write(a, data);
        armed = true;
        fillPayload(data, blockA, 2);
        stack.write(a, data);
        fillPayload(data, blockB, 2);
        stack.write(b, data);
        const ReadOutcome got = stack.read(a);
        return got.due || payloadMatches(got.data, blockA, 2);
    }

  private:
    TrafficSpec spec;
};

class TrafficWorkload : public Workload
{
  public:
    TrafficWorkload(const TrafficSpec &spec, uint64_t seed, bool clean)
        : spec(spec), seed(seed), clean(clean), repro(spec)
    {
    }

    void
    setup() override
    {
        runner = std::make_unique<TrafficRunner>(spec, seed);
        runner->prewrite();
    }

    size_t repsPerRound() const override { return kRepsPerRound; }

    uint64_t
    runRep(size_t rep, SpanRecorder *spans, uint32_t parent) override
    {
        const uint64_t mismatchesBefore = runner->tally().mismatches;
        for (uint64_t i = 0; i < kAccessesPerRep; ++i)
            runner->access(spans, parent, nAttempted + i);
        nAttempted += kAccessesPerRep;
        nFailed += runner->tally().mismatches - mismatchesBefore;
        if (clean || rep + 1 != kRepsPerRound)
            return kAccessesPerRep;
        const uint32_t sid =
            spans ? spans->begin("aiecc.dropped_write_repro", parent,
                                 nAttempted)
                  : 0;
        const bool ok = repro.run();
        if (spans)
            spans->end(sid);
        nAttempted += DroppedWriteRepro::kAccesses;
        nFailed += ok ? 0 : 1;
        ++reproRuns;
        return kAccessesPerRep + DroppedWriteRepro::kAccesses;
    }

    bool
    verify(std::string &why) const override
    {
        const TrafficTally &t = runner->tally();
        const uint64_t reproAccesses = DroppedWriteRepro::kAccesses * reproRuns;
        if (t.reads + t.writes + reproAccesses != nAttempted) {
            why = "reads + writes != accesses requested";
            return false;
        }
        if (clean && (t.mismatches || t.dues || t.detections ||
                      t.detectedReads)) {
            why = "clean stream: " + std::to_string(t.mismatches) +
                  " mismatches, " + std::to_string(t.dues) + " DUEs, " +
                  std::to_string(t.detections) + " detections";
            return false;
        }
        if (!clean && t.detections == 0) {
            why = "faulted stream raised no detections";
            return false;
        }
        // Silent mismatches are failed operations, not a broken run.
        return true;
    }

  private:
    TrafficSpec spec;
    uint64_t seed;
    bool clean;
    DroppedWriteRepro repro;
    std::unique_ptr<TrafficRunner> runner;
    uint64_t reproRuns = 0;
};

} // namespace

std::unique_ptr<Workload>
makeTrafficQpcRead(uint64_t seed)
{
    return std::make_unique<TrafficWorkload>(qpcReadSpec(), seed, true);
}

std::unique_ptr<Workload>
makeTrafficAmdWriteFaults(uint64_t seed)
{
    return std::make_unique<TrafficWorkload>(amdWriteFaultsSpec(), seed,
                                             false);
}

} // namespace perfbench
