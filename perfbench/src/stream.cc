#include "stream.hh"

#include "check.hh"
#include "ddr4/pins.hh"
#include "spans.hh"

namespace perfbench
{

using namespace aiecc;

TrafficSpec
qpcReadSpec()
{
    TrafficSpec s;
    s.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    return s;
}

TrafficSpec
amdWriteFaultsSpec()
{
    TrafficSpec s;
    s.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    s.mech.ecc = EccScheme::EDeccAmd;
    s.readFrac = 0.33;
    s.faultRate = 1e-3;
    s.scrubOnCorrection = true;
    return s;
}

TrafficSpec
levelSpec(ProtectionLevel level)
{
    TrafficSpec s = qpcReadSpec();
    s.mech = Mechanisms::forLevel(level);
    return s;
}

std::vector<Pin>
streamFaultPins(bool parPin)
{
    std::vector<Pin> pins;
    for (Pin p : injectablePins(parPin)) {
        if (pinGroup(p) != PinGroup::Ctrl)
            pins.push_back(p);
    }
    return pins;
}

TrafficRunner::TrafficRunner(const TrafficSpec &s, uint64_t seed)
    : spec(s), rng(Rng::forStream(seed, 1)), faultRng(Rng::forStream(seed, 2)),
      faultPins(streamFaultPins(s.mech.parPinPresent()))
{
    StackConfig cfg;
    cfg.mech = spec.mech;
    cfg.seed = seed;
    cfg.scrubOnCorrection = spec.scrubOnCorrection;
    stk = std::make_unique<ProtectionStack>(cfg);
    const Geometry &g = stk->geometry();
    versions.assign(g.numBanks() * kRows * kCols, 0);
    lastRow.assign(g.numBanks(), 0);
    // A clean stream installs no corruptor, so its edges pay nothing.
    if (spec.faultRate > 0.0)
        installCorruptor();
}

void
TrafficRunner::installCorruptor()
{
    stk->setPinCorruptor([this](uint64_t idx, PinWord &pins) {
        if (edgeTap)
            edgeTap(idx, pins);
        if (spec.faultRate > 0.0 && faultRng.chance(spec.faultRate))
            pins.flip(faultPins[faultRng.below(faultPins.size())]);
    });
}

MtbAddress
TrafficRunner::blockAddress(uint32_t block) const
{
    const Geometry &g = stk->geometry();
    const unsigned bank = block / (kRows * kCols);
    MtbAddress a;
    a.bg = bank / g.banksPerGroup();
    a.ba = bank % g.banksPerGroup();
    a.row = (block / kCols) % kRows;
    a.col = block % kCols;
    return a;
}

void
TrafficRunner::prewrite()
{
    for (uint32_t b = 0; b < numBlocks(); ++b) {
        fillPayload(payload, b, versions[b]);
        stk->write(blockAddress(b), payload);
    }
    stk->clearDetections();
}

TrafficRunner::Next
TrafficRunner::draw()
{
    const Geometry &g = stk->geometry();
    Next n;
    n.addr.bg = static_cast<unsigned>(rng.below(g.numBankGroups()));
    n.addr.ba = static_cast<unsigned>(rng.below(g.banksPerGroup()));
    const unsigned bank = n.addr.flatBank(g);
    n.addr.row = rng.chance(spec.rowHitRate)
                     ? lastRow[bank]
                     : static_cast<unsigned>(rng.below(kRows));
    lastRow[bank] = n.addr.row;
    n.addr.col = static_cast<unsigned>(rng.below(kCols));
    n.block = (bank * kRows + n.addr.row) * kCols + n.addr.col;
    n.isRead = rng.chance(spec.readFrac);
    return n;
}

TrafficRunner::Next
TrafficRunner::peekNext()
{
    if (!havePeek) {
        peeked = draw();
        havePeek = true;
    }
    return peeked;
}

void
TrafficRunner::access(SpanRecorder *spans, uint32_t parent, uint64_t op)
{
    const Next n = havePeek ? peeked : draw();
    havePeek = false;
    if (n.isRead) {
        const uint32_t sid =
            spans ? spans->begin("aiecc.read", parent, op) : 0;
        const ReadOutcome got = stk->read(n.addr);
        if (spans)
            spans->end(sid);
        ++tl.reads;
        tl.detectedReads += got.detected ? 1 : 0;
        if (got.due)
            ++tl.dues;
        else if (!payloadMatches(got.data, n.block, versions[n.block]))
            ++tl.mismatches;
    } else {
        fillPayload(payload, n.block, ++versions[n.block]);
        const uint32_t sid =
            spans ? spans->begin("aiecc.write", parent, op) : 0;
        stk->write(n.addr, payload);
        if (spans)
            spans->end(sid);
        ++tl.writes;
    }
    if (!stk->detections().empty()) {
        tl.detections += stk->detections().size();
        stk->clearDetections();
    }
}

} // namespace perfbench
