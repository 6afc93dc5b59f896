/**
 * @file
 * The seeded traffic stream and its self-checking driver.
 *
 * A TrafficRunner owns one ProtectionStack, a working set of
 * 16 banks x 64 rows x 128 MTBs, and a shadow of every block's write
 * version.  Every write stores the (block, version) payload; every
 * read is compared over all 512 bits with the payload the shadow
 * predicts, so correctness never rests on the stack's own report.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <functional>
#include <memory>
#include <vector>

#include "aiecc/stack.hh"
#include "common/rng.hh"

namespace perfbench
{

class SpanRecorder;

struct TrafficSpec
{
    aiecc::Mechanisms mech;
    double readFrac = 0.67;
    double rowHitRate = 0.6;
    /** Single-pin CCCA flip odds per command edge (0 = clean). */
    double faultRate = 0.0;
    bool scrubOnCorrection = false;
};

/** Full AIECC over QPC, 67% reads, clean channel. */
TrafficSpec qpcReadSpec();

/**
 * AIECC over eDECC-AMD with on-demand scrubbing and in-band recovery,
 * 33% reads, single-pin flips at 1e-3 per command edge.
 */
TrafficSpec amdWriteFaultsSpec();

/** Same mechanisms as Mechanisms::forLevel, on the QPC stream. */
TrafficSpec levelSpec(aiecc::ProtectionLevel level);

/**
 * Pins the seeded fault stream flips: every injectable pin except the
 * control group (CKE, CS, ODT), whose single flips can end in silent
 * corruption (see the README's "Known faults").
 */
std::vector<aiecc::Pin> streamFaultPins(bool parPin);

inline constexpr unsigned kRows = 64;
inline constexpr unsigned kCols = 128;

struct TrafficTally
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t mismatches = 0; ///< wrong data returned without a DUE
    uint64_t dues = 0;
    uint64_t detectedReads = 0;
    uint64_t detections = 0; ///< DetectionEvents raised
};

class TrafficRunner
{
  public:
    TrafficRunner(const TrafficSpec &spec, uint64_t seed);
    // The installed pin corruptor captures `this`.
    TrafficRunner(const TrafficRunner &) = delete;
    TrafficRunner &operator=(const TrafficRunner &) = delete;

    /** Write version 0 of every block of the working set. */
    void prewrite();

    /**
     * Generate and perform the next access, checking a read against
     * the shadow.
     */
    void access(SpanRecorder *spans, uint32_t parent, uint64_t op);

    /**
     * Observe every command edge before fault injection (the clean
     * pin word); empty clears it.
     */
    void setEdgeTap(std::function<void(uint64_t, const aiecc::PinWord &)>
                        tap)
    {
        edgeTap = std::move(tap);
        installCorruptor();
    }

    aiecc::ProtectionStack &stack() { return *stk; }
    const TrafficTally &tally() const { return tl; }
    unsigned
    numBlocks() const
    {
        return static_cast<unsigned>(versions.size());
    }

    /** The address of flat block @p block. */
    aiecc::MtbAddress blockAddress(uint32_t block) const;
    uint32_t version(uint32_t block) const { return versions[block]; }

    /** The access the next call to access() will perform. */
    struct Next
    {
        aiecc::MtbAddress addr;
        uint32_t block = 0;
        bool isRead = false;
    };
    Next peekNext();

  private:
    TrafficSpec spec;
    std::unique_ptr<aiecc::ProtectionStack> stk;
    aiecc::Rng rng;
    aiecc::Rng faultRng;
    std::vector<aiecc::Pin> faultPins;
    std::vector<uint32_t> versions;
    std::vector<unsigned> lastRow;
    aiecc::BitVec payload{aiecc::Burst::dataBits};
    std::function<void(uint64_t, const aiecc::PinWord &)> edgeTap;
    TrafficTally tl;
    bool havePeek = false;
    Next peeked;

    Next draw();
    void installCorruptor();
};

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
