/**
 * @file
 * Durable campaign checkpoints, graceful shutdown, and the
 * self-crash test hook (DESIGN.md §12).
 *
 * A multi-day exhaustive campaign must be able to die at any instant
 * — SIGKILL, OOM, power loss — and resume without losing committed
 * work or perturbing a single bit of the final artifact.  Three
 * pieces cooperate:
 *
 *  - CampaignCheckpoint: a named-section store (merge state saved
 *    through the common/state.hh codec: CampaignStats, LineageLedger,
 *    CostAccountant, StatsRegistry, per-unit progress) written
 *    atomically — temp file, fsync, rename — with an FNV-1a content
 *    digest.  A
 *    truncated or tampered file never loads: the reader rejects it
 *    with a diagnostic naming the last progress note that survived,
 *    and the caller restarts from the last good state (for an
 *    atomically-replaced file, that is the file itself or nothing).
 *
 *  - Graceful shutdown: SIGINT/SIGTERM flip a process-wide atomic
 *    stop flag.  runShardsCheckpointed() checks it between shard
 *    batches, drains the in-flight batch, lets the caller commit a
 *    final checkpoint, and returns RunStatus::Interrupted; benches
 *    exit with exitInterrupted (75, EX_TEMPFAIL: try again) so
 *    wrappers can distinguish "resumable" from success or failure.
 *
 *  - Self-crash injection: AIECC_CRASH_AFTER_SHARD=N hard-kills the
 *    process (std::_Exit(137), no atexit, no flush) once N shards
 *    have completed — *before* the batch that crossed the threshold
 *    commits, so the checkpoint on disk is strictly older than the
 *    work done.  Tests and CI use it to prove kill → resume → final
 *    JSON is byte-identical to an uninterrupted run.
 *
 * Determinism contract: the batch size is never output-affecting.
 * Batches are contiguous shard ranges executed with the same
 * runShards() claim loop and merged strictly in shard order, so any
 * (batch size, jobs, kill point) triple yields the same final merged
 * state as one uninterrupted sequential run.
 */

#ifndef AIECC_COMMON_CHECKPOINT_HH
#define AIECC_COMMON_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/state.hh"

namespace aiecc
{

/** How a checkpointed run ended. */
enum class RunStatus
{
    Completed,   ///< every shard ran and was committed
    Interrupted, ///< stop requested; committed prefix is on disk
};

/**
 * Process exit status for "interrupted but resumable" (EX_TEMPFAIL):
 * distinct from success (0), failure (1) and flag errors (2).
 */
constexpr int exitInterrupted = 75;

/**
 * Install SIGINT/SIGTERM handlers that flip the stop flag (idempotent;
 * the second signal falls through to the default disposition so a
 * stuck run can still be killed).  Benches call this before their
 * first checkpointed campaign.
 */
void installStopHandlers();

/** True once a stop signal (or requestStop()) arrived. */
bool stopRequested();

/** Programmatic stop, for tests and embedding harnesses. */
void requestStop();

/** Reset the stop flag (tests only). */
void clearStopRequest();

/**
 * The AIECC_CRASH_AFTER_SHARD threshold (0 = hook disabled), parsed
 * once per process.
 */
uint64_t crashAfterShardThreshold();

/**
 * A durable key→blob store for one campaign's resumable state.
 *
 * Sections hold state::save() forms (common/state.hh) of the merge
 * types (LineageLedger, CostAccountant, ...) and the bench's cursor;
 * the campaign ID pins the file to one (bench, output-affecting
 * options) pair so a checkpoint can never be resumed into a
 * differently-configured run.  serialize() is a
 * length-prefixed text form ending in a digest line; loadFile()
 * verifies the digest before exposing any section.
 */
class CampaignCheckpoint
{
  public:
    /** Set the campaign identity (one line; no '\n'). */
    void setCampaignId(const std::string &id);
    const std::string &campaignId() const { return id; }

    /**
     * Set the human-readable progress note ("unit 7/44 shard 120");
     * carried in the header, quoted by load-failure diagnostics as
     * the last good state.
     */
    void setProgressNote(const std::string &note);
    const std::string &progressNote() const { return progress; }

    bool has(const std::string &name) const;
    /** Section payload; panics when absent (check has() first). */
    const std::string &get(const std::string &name) const;
    void set(const std::string &name, std::string data);
    void erase(const std::string &name);
    size_t sectionCount() const { return sections.size(); }

    /** Canonical text form (header, sections, digest trailer). */
    std::string serialize() const;

    /** Outcome of deserialize()/loadFile(). */
    using Load = state::Status;

    /**
     * Parse @p text, replacing this checkpoint's contents.  Rejects
     * truncated input, malformed framing, and digest mismatches; the
     * error quotes the campaign ID and progress note when the header
     * survived, so the diagnostic names the last good shard.
     */
    Load deserialize(const std::string &text);

    /**
     * Atomically replace @p path: write to a temp file in the same
     * directory, fsync, rename.  Readers (and crashes at any instant)
     * see either the old complete file or the new complete file,
     * never a mix.
     */
    Load saveAtomic(const std::string &path) const;

    /** Read and deserialize @p path. */
    Load loadFile(const std::string &path);

  private:
    std::string id;
    std::string progress;
    std::map<std::string, std::string> sections;
};

/**
 * Run shards [nextShard, totalShards) in contiguous batches of
 * @p batchShards, calling @p fn(globalShardIndex) from the runShards()
 * worker pool and @p commit(batchBegin, batchEnd) on the calling
 * thread after each batch joins.  The caller's commit merges the
 * batch's shard-local state in shard order and persists its
 * checkpoint; on return from commit the batch is durable and
 * @p nextShard has advanced.
 *
 * Between batches the stop flag is checked: a pending stop returns
 * Interrupted with nextShard at the first uncommitted shard.  The
 * AIECC_CRASH_AFTER_SHARD hook fires after a batch joins but before
 * its commit — the simulated kill always loses in-flight work, which
 * resume must redo identically.
 *
 * The optional @p progress(done) fires after each shard completes,
 * with @p done the *global* count of shards finished (committed prefix
 * + this batch's completions) — the number a heartbeat reports as
 * shards_done.  Invoked from worker threads like the runShards()
 * progress overload, and under the same contract: observability only,
 * never output-affecting.
 */
RunStatus
runShardsCheckpointed(uint64_t totalShards, uint64_t batchShards,
                      unsigned jobs, uint64_t &nextShard,
                      const std::function<void(uint64_t)> &fn,
                      const std::function<void(uint64_t, uint64_t)> &commit,
                      const std::function<void(uint64_t)> &progress = {});

/**
 * Batch size for checkpointed campaigns: AIECC_CHECKPOINT_BATCH_SHARDS
 * when set, else max(2 * resolved jobs, 8) — big enough to keep the
 * pool busy, small enough that a kill loses seconds, not hours.
 */
uint64_t checkpointBatchShards(unsigned jobs);

} // namespace aiecc

#endif // AIECC_COMMON_CHECKPOINT_HH
