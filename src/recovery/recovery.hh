/**
 * @file
 * In-band error recovery (Section IV-G) and degraded-mode escalation.
 *
 * A RecoveryEngine consumes detection notifications from the
 * protection stack and drives bounded recovery through the real
 * controller command path, via the RecoveryPort interface the stack
 * implements: WR replay from the controller's bounded write-replay
 * buffer on WCRC/eWCRC alerts, RD reissue on eDECC/parity detections,
 * PRE + row-reopen resynchronization after CSTC protocol alerts, and
 * eCAP write-toggle resync (replaying the lost buffered write) when a
 * WR was lost in flight.  Every attempt is bounded and may honestly
 * fail: a fault that persists across the retry window exhausts the
 * attempt budget and surfaces as a residual DUE.
 *
 * On top of the per-episode policies sits an escalation ladder:
 * leaky-bucket error counters per bank promote repeated retry
 * exhaustion to bank quarantine and, past a configurable number of
 * quarantined banks, to rank-degraded mode.  Both are advisory
 * signals for the layer above (interleaving/paging policy), not
 * functional changes to the command path.
 */

#ifndef AIECC_RECOVERY_RECOVERY_HH
#define AIECC_RECOVERY_RECOVERY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ddr4/address.hh"
#include "ddr4/burst.hh"
#include "ddr4/command.hh"
#include "obs/observer.hh"

namespace aiecc
{

/** Tunable knobs of the in-band recovery policies. */
struct RecoveryConfig
{
    /** Master switch; disabled leaves all detections un-retried. */
    bool enabled = true;

    /** Retry attempts per episode before giving up (§IV-G). */
    unsigned maxAttempts = 3;

    /**
     * Idle cycles inserted before every attempt after the first, so
     * the device can leave transient states (power-down exit, bus
     * settling) before the command is replayed.
     */
    unsigned backoffCycles = 8;

    /** Controller-side write-replay buffer depth (WR replay source). */
    size_t replayBufferDepth = 8;

    /**
     * Leaky-bucket capacity per bank: failed recovery attempts beyond
     * this within the leak window quarantine the bank.
     */
    unsigned bucketCapacity = 8;

    /** Cycles for one bucket token to leak away. */
    Cycle bucketLeakPeriod = 10000;

    /** Quarantined banks that flip the rank into degraded mode. */
    unsigned rankDegradeBanks = 4;

    /**
     * Patrol scrubbing period in *accesses* through the high-level
     * read()/write() interface; every period the stack reads one
     * stored block round-robin and writes back any correction.
     * 0 (default) disables the patrol.
     */
    uint64_t patrolPeriod = 0;
};

/** Why a recovery episode started. */
enum class RecoveryCause
{
    CaParity,   ///< CAP/eCAP alert blocked a command
    Wcrc,       ///< WCRC/eWCRC alert blocked a write
    Cstc,       ///< protocol/timing alert blocked a command
    ReadDecode, ///< data-ECC flagged a read (DUE or address error)
};

/** Printable cause name (also the Retry trace-event label). */
std::string recoveryCauseName(RecoveryCause cause);

/** One write held in the controller's replay buffer. */
struct ReplayEntry
{
    MtbAddress addr;
    Burst burst;
};

/**
 * The stack-side services a recovery episode needs.  All command
 * methods go through the real controller path and report success as
 * "no new detection was raised while doing it".
 */
class RecoveryPort
{
  public:
    virtual ~RecoveryPort() = default;

    /** Current controller cycle. */
    virtual Cycle portNow() const = 0;

    /** eCAP is on, so the write toggle counts WRs. */
    virtual bool wrtTracked() const = 0;

    /** Controller and device disagree on the eCAP write toggle. */
    virtual bool wrtMismatch() const = 0;

    /**
     * Buffered write @p age places before the newest one (0 = the
     * newest), if the replay buffer still holds it.
     */
    virtual std::optional<ReplayEntry> bufferedWrite(size_t age) const = 0;

    /** Adopt the device's write-toggle state (§IV-G alert handling). */
    virtual void resyncWrt() = 0;

    /** Drain the PHY read FIFO, clearing any pointer skew. */
    virtual void drainReadFifo() = 0;

    /** Let @p cycles pass with the bus idle (retry backoff). */
    virtual void backoff(Cycle cycles) = 0;

    /**
     * PRE the bank then re-ACT @p row — the universal
     * resynchronization preamble (PRE to an idle bank is a JEDEC
     * NOP, so this is safe whatever state the device is really in).
     * @return true when no new detection fired.
     */
    virtual bool reopenRow(unsigned bg, unsigned ba, unsigned row) = 0;

    /** Re-send a buffered write. @return true when nothing fired. */
    virtual bool replayWrite(const ReplayEntry &entry) = 0;

    /**
     * Re-send a read and decode it.
     * @return the corrected payload on a clean/corrected decode with
     *         no new device alert; nullopt when the reissue failed.
     */
    virtual std::optional<BitVec> reissueRead(const MtbAddress &addr) = 0;

    /** Re-send a non-data command. @return true when nothing fired. */
    virtual bool reissue(const Command &cmd) = 0;
};

/** What one recovery episode produced. */
struct RecoveryOutcome
{
    bool attempted = false; ///< the engine ran at least one attempt
    bool recovered = false; ///< an attempt succeeded
    bool exhausted = false; ///< the attempt budget ran out
    unsigned attempts = 0;  ///< attempts actually run
    /** Recovered read payload (read episodes only). */
    std::optional<BitVec> data;
};

/** Aggregate engine statistics, queryable without an observer. */
struct RecoveryStats
{
    uint64_t episodes = 0;
    uint64_t attempts = 0;
    uint64_t recovered = 0;
    uint64_t recoveredFirstTry = 0;
    uint64_t recoveredAfterRetries = 0;
    uint64_t exhausted = 0;
    uint64_t wrReplays = 0;
    uint64_t rdReissues = 0;
    uint64_t wrtResyncs = 0;
    uint64_t quarantines = 0;
    uint64_t rankDegrades = 0;
    uint64_t patrolReads = 0;
    uint64_t patrolScrubs = 0;

    /** Shard-merge terms for state::sumInto (common/state.hh). */
    template <class V, class... Self>
    static void
    fields(V &v, Self &...self)
    {
        v("episodes", self.episodes...);
        v("attempts", self.attempts...);
        v("recovered", self.recovered...);
        v("recoveredFirstTry", self.recoveredFirstTry...);
        v("recoveredAfterRetries", self.recoveredAfterRetries...);
        v("exhausted", self.exhausted...);
        v("wrReplays", self.wrReplays...);
        v("rdReissues", self.rdReissues...);
        v("wrtResyncs", self.wrtResyncs...);
        v("quarantines", self.quarantines...);
        v("rankDegrades", self.rankDegrades...);
        v("patrolReads", self.patrolReads...);
        v("patrolScrubs", self.patrolScrubs...);
    }
};

/**
 * Bounded alert-driven retry with a per-bank escalation ladder.
 */
class RecoveryEngine
{
  public:
    /**
     * @param config Policy knobs.
     * @param numBanks Banks in the rank (escalation bucket count).
     * @param observer Measurement hookup (nullptr = stats only).
     */
    RecoveryEngine(const RecoveryConfig &config, unsigned numBanks,
                   obs::Observer *observer);

    /**
     * Run one recovery episode for a device alert that blocked
     * @p intended (the command the controller meant to send).
     *
     * @param cause Alert family that fired.
     * @param intended The blocked command.
     * @param flatBank Bank to charge in the escalation ladder.
     * @param wrEntry The write payload, when @p intended is a WR.
     * @param port Stack services.
     */
    RecoveryOutcome onAlert(RecoveryCause cause, const Command &intended,
                            unsigned flatBank,
                            const std::optional<ReplayEntry> &wrEntry,
                            RecoveryPort &port);

    /**
     * Run one recovery episode for a read whose decode flagged an
     * uncorrectable or address error.
     */
    RecoveryOutcome onReadDetection(const MtbAddress &addr,
                                    unsigned flatBank,
                                    RecoveryPort &port);

    /** Account one patrol read (and whether it scrubbed). */
    void notePatrol(const MtbAddress &addr, bool scrubbed, Cycle now);

    const RecoveryConfig &config() const { return cfg; }
    const RecoveryStats &stats() const { return st; }

    /**
     * Quarantine @p flatBank directly, bypassing the leaky bucket —
     * the predictive-mitigation entry into the escalation ladder.  A
     * RAS health monitor that sees a bank failing quarantines it
     * *before* the retry budget drains; the same Escalation event and
     * rank-degraded bookkeeping fire as for reactive quarantines.
     * Idempotent for an already-quarantined bank.
     */
    void adviseQuarantine(unsigned flatBank, Cycle now);

    /** Bank currently quarantined by the escalation ladder? */
    bool quarantined(unsigned flatBank) const;

    /** Quarantined bank count. */
    unsigned quarantinedBanks() const;

    /** Rank-degraded mode entered? */
    bool rankDegraded() const { return degraded; }

    /** Current leaky-bucket level of one bank (tests/diagnostics). */
    unsigned bucketLevel(unsigned flatBank, Cycle now) const;

  private:
    /** Per-bank leaky bucket for the escalation ladder. */
    struct Bucket
    {
        double level = 0.0;
        Cycle lastLeak = 0;
        bool quarantined = false;
    };

    RecoveryConfig cfg;
    obs::Observer *obsHook = nullptr;
    RecoveryStats st;
    std::vector<Bucket> buckets;
    bool degraded = false;

    /** Counters resolved once at construction (observer only). */
    struct RecCounters
    {
        obs::Counter *episodes = nullptr;
        obs::Counter *attempts = nullptr;
        obs::Counter *recovered = nullptr;
        obs::Counter *recoveredFirstTry = nullptr;
        obs::Counter *recoveredAfterRetries = nullptr;
        obs::Counter *exhausted = nullptr;
        obs::Counter *wrReplays = nullptr;
        obs::Counter *rdReissues = nullptr;
        obs::Counter *wrtResyncs = nullptr;
        obs::Counter *quarantines = nullptr;
        obs::Counter *rankDegrades = nullptr;
        obs::Counter *patrolScrubs = nullptr;
        obs::Histogram *retryDepth = nullptr;
        /** Wall-clock per-episode scope (profile registry only). */
        obs::Histogram *tEpisode = nullptr;
    };
    RecCounters oc;

    /** The WRT-resync pre-step shared by every attempt. */
    bool resyncIfNeeded(RecoveryPort &port);

    /** Adopt the device's write toggle and count the resync. */
    void resyncWrt(RecoveryPort &port);

    /** Re-send @p entry, reopening its row first when @p reopen. */
    bool replay(const ReplayEntry &entry, bool reopen, RecoveryPort &port);

    /**
     * One attempt of the per-cause policy matrix.  @p lostWrite is a
     * buffered WR the write toggle shows was lost before @p intended.
     */
    bool tryOnce(RecoveryCause cause, const Command &intended,
                 const std::optional<ReplayEntry> &wrEntry,
                 const std::optional<ReplayEntry> &lostWrite,
                 unsigned attempt, RecoveryPort &port);

    /** Shared episode driver: bounded attempts + escalation. */
    RecoveryOutcome runEpisode(RecoveryCause cause,
                               const Command &intended,
                               unsigned flatBank,
                               const std::optional<ReplayEntry> &wrEntry,
                               RecoveryPort &port);

    /** Leak, then charge @p tokens into one bank's bucket. */
    void charge(unsigned flatBank, double tokens, Cycle now);

    /** Shared quarantine transition (reactive and advisory paths). */
    void enterQuarantine(unsigned flatBank, Cycle now, const char *why);
};

} // namespace aiecc

#endif // AIECC_RECOVERY_RECOVERY_HH
