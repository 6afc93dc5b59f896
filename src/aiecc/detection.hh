/**
 * @file
 * Detection-event taxonomy for coverage attribution (Figures 7 and 8).
 */

#ifndef AIECC_AIECC_DETECTION_HH
#define AIECC_AIECC_DETECTION_HH

#include <optional>
#include <string>
#include <vector>

#include "ddr4/command.hh"
#include "dram/config.hh"

namespace aiecc
{

/** The protection mechanism that raised a detection. */
enum class Mechanism
{
    Cap,    ///< DDR4 CA parity
    ECap,   ///< extended CA parity (incl. WRT mismatches)
    Wcrc,   ///< DDR4 write CRC
    EWcrc,  ///< extended write CRC
    Cstc,   ///< command state and timing checker
    Decc,   ///< data-only ECC (corrected or DUE)
    EDecc,  ///< extended data ECC (address-aware)
};

constexpr unsigned stateLimit(Mechanism) { return 7; }

/** Printable mechanism name. */
std::string mechanismName(Mechanism mech);

/** One detection raised anywhere in the protection stack. */
struct DetectionEvent
{
    Mechanism mech;
    Cycle when = 0;
    /**
     * The detection fired before any storage corruption could occur
     * (command blocked), so a simple retry corrects it (§IV-G).
     */
    bool early = false;
    /** The mechanism attributed the error to the address. */
    bool addressError = false;
    /** The error was corrected in place (data ECC corrections). */
    bool corrected = false;
    /** Precisely diagnosed address (eDECC combined only, §IV-F). */
    std::optional<uint32_t> diagnosedAddress;
    /**
     * Packed MTB address of the access that raised the detection
     * (data-ECC decodes only; device alerts fire before any array
     * address is resolved).  RAS telemetry infers fault topology from
     * this corrected-error address stream.
     */
    std::optional<uint32_t> accessAddress;
    /** Chips whose symbols were corrected (EccResult::correctedChips). */
    uint32_t correctedChips = 0;
    std::string detail;
    /** Lineage fault ID under test when this fired (0 = none). */
    uint64_t faultId = 0;
};

} // namespace aiecc

#endif // AIECC_AIECC_DETECTION_HH
