/**
 * @file
 * Tiny shared helpers for the paper-reproduction benches: flag
 * parsing (--trials N, --allpin N, --quick, --json PATH), banner
 * printing, and the shared JSON artifact shape.
 */

#ifndef AIECC_BENCH_BENCH_UTIL_HH
#define AIECC_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "obs/cost.hh"
#include "obs/heartbeat.hh"
#include "obs/json.hh"
#include "obs/memprof.hh"
#include "obs/profile.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace bench
{

/**
 * Version of the shared `--json` artifact envelope written by
 * writeJsonArtifact().  Bump when the envelope shape changes so
 * offline consumers (tools/compare_bench.py, trend dashboards) can
 * refuse to compare apples to oranges.
 *
 * v1: {bench, options, results} (implicit, unversioned)
 * v2: adds "schema_version" to the envelope
 * v3: adds "jobs" (worker-thread request, 0 = auto) to "options"
 * v4: adds the top-level "cost" section (per-configuration protection
 *     cost attribution, obs/cost.hh) next to "results"
 * v5: adds "checkpoint", "resume" and "exhaustive" to "options"
 *     (crash-tolerant campaigns; none is output-affecting except
 *     "exhaustive", which switches enumerable spaces from sampling to
 *     full enumeration)
 * v6: adds "heartbeat" to "options" (live progress telemetry path;
 *     never output-affecting) and the top-level "alloc" section
 *     (process allocation totals, per-scope attribution and the
 *     allocs_per_access top line — the hot-path allocation baseline
 *     compare_bench.py hard-gates)
 * v7: adds "health", "aging" and "mitigate" to "options" (RAS health
 *     telemetry; all three output-affecting) and the top-level "ras"
 *     section (sliding-window error rates, per-component health
 *     states, inferred fault topologies and the recommended-action
 *     log) whenever a health monitor observed the run
 */
constexpr int artifactSchemaVersion = 7;

/** Common bench options. */
struct Options
{
    uint64_t trials = 0;   ///< Monte-Carlo trials per cell (0 = default)
    unsigned allPin = 0;   ///< all-pin noise samples (0 = default)
    bool quick = false;    ///< cut work for smoke runs
    std::string jsonPath;  ///< write a machine-readable artifact here

    /**
     * Campaign worker threads.  0 = the flag was not given; campaign
     * benches resolve that to the hardware concurrency, while the e2e
     * throughput bench keeps its canonical single-stream mode.  Never
     * output-affecting: for a fixed seed the campaign results are
     * bit-identical for every value.
     */
    unsigned jobs = 0;

    // In-band recovery knobs (benches that model recovery only).
    unsigned recoveryAttempts = 0; ///< retry budget override (0 = default)
    unsigned recoveryPersist = 0;  ///< fault persistence edges (0 = 1)
    uint64_t recoveryPatrol = 0;   ///< patrol period in accesses (0 = off)

    // Access-mix knobs (end-to-end throughput bench only).
    double readFrac = 0.67;  ///< fraction of accesses that read
    double faultRate = 0.0;  ///< per-edge pin-corruption probability
    bool noRecovery = false; ///< disable the in-band recovery engine
    std::string tracePath;   ///< stream a JSONL event trace here

    // Crash-tolerant campaign knobs (checkpointed benches only).
    std::string checkpointPath; ///< durable checkpoint file ("" = off)
    bool resume = false;        ///< resume from --checkpoint if present
    bool exhaustive = false;    ///< enumerate enumerable error spaces

    /** Live progress telemetry JSONL path ("" = off; never
     *  output-affecting — see obs/heartbeat.hh). */
    std::string heartbeatPath;

    // RAS health telemetry knobs (src/ras).
    /**
     * Attach a RAS health monitor and emit the artifact's "ras"
     * section.  The e2e throughput bench always monitors; the
     * campaign benches do so only with this flag (the extra event
     * materialization is measurable at campaign scale).
     */
    bool health = false;
    /**
     * Aging mode (e2e bench only): activate N wearing fault sites —
     * weak rows, dying chips, flaky CA pins — on a front-loaded
     * schedule across the run, so error rates climb and accumulate
     * the way end-of-life DIMMs age.  0 = off.
     */
    uint64_t aging = 0;
    /** Feed recommended actions back into the stack (predictive
     *  mitigation); compare coverage against a run without it. */
    bool mitigate = false;
};

inline void
usage(std::FILE *to, const char *prog)
{
    std::fprintf(to,
                 "usage: %s [--quick] [--trials N] [--allpin N] "
                 "[--jobs N] [--json PATH]\n"
                 "       [--recovery-attempts N] [--recovery-persist N] "
                 "[--recovery-patrol N]\n"
                 "       [--read-frac F] [--fault-rate F] "
                 "[--no-recovery] [--trace PATH] [--help]\n"
                 "  --quick      cut work for smoke runs\n"
                 "  --trials N   Monte-Carlo trials per cell\n"
                 "  --allpin N   all-pin noise samples per cell\n"
                 "  --jobs N     campaign worker threads (0 = hardware "
                 "auto;\n"
                 "               results are identical for every N)\n"
                 "  --json PATH  also write the results as JSON\n"
                 "  --recovery-attempts N  in-band retry budget per "
                 "episode\n"
                 "  --recovery-persist N   injected faults persist N "
                 "command edges\n"
                 "  --recovery-patrol N    patrol-scrub one block every "
                 "N accesses\n"
                 "  --read-frac F   fraction of accesses that read "
                 "(e2e bench)\n"
                 "  --fault-rate F  per-edge pin-corruption probability "
                 "(e2e bench)\n"
                 "  --no-recovery   disable the in-band recovery engine "
                 "(e2e bench)\n"
                 "  --trace PATH    stream a JSONL event trace "
                 "(e2e bench)\n"
                 "  --checkpoint PATH  write a durable campaign "
                 "checkpoint (atomic replace)\n"
                 "  --resume        continue from the --checkpoint "
                 "file's last good state\n"
                 "  --exhaustive    fully enumerate enumerable error "
                 "spaces instead of sampling\n"
                 "  --heartbeat PATH  append live progress telemetry "
                 "records (JSONL;\n"
                 "               SIGUSR1 forces an immediate dump; "
                 "see aiecc-trace progress)\n"
                 "  --health     attach a RAS health monitor and emit "
                 "the \"ras\" section\n"
                 "  --aging N    activate N wearing fault sites over "
                 "the run (e2e bench)\n"
                 "  --mitigate   apply the monitor's recommended "
                 "actions (predictive\n"
                 "               mitigation; implies --health)\n",
                 prog);
}

inline Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            opt.quick = true;
        } else if (!std::strcmp(argv[i], "--trials") && i + 1 < argc) {
            opt.trials = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--allpin") && i + 1 < argc) {
            opt.allPin = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--recovery-attempts") &&
                   i + 1 < argc) {
            opt.recoveryAttempts = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--recovery-persist") &&
                   i + 1 < argc) {
            opt.recoveryPersist = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--recovery-patrol") &&
                   i + 1 < argc) {
            opt.recoveryPatrol = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--read-frac") && i + 1 < argc) {
            opt.readFrac = std::strtod(argv[++i], nullptr);
        } else if (!std::strcmp(argv[i], "--fault-rate") &&
                   i + 1 < argc) {
            opt.faultRate = std::strtod(argv[++i], nullptr);
        } else if (!std::strcmp(argv[i], "--no-recovery")) {
            opt.noRecovery = true;
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            opt.tracePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--checkpoint") &&
                   i + 1 < argc) {
            opt.checkpointPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--resume")) {
            opt.resume = true;
        } else if (!std::strcmp(argv[i], "--exhaustive")) {
            opt.exhaustive = true;
        } else if (!std::strcmp(argv[i], "--heartbeat") &&
                   i + 1 < argc) {
            opt.heartbeatPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--health")) {
            opt.health = true;
        } else if (!std::strcmp(argv[i], "--aging") && i + 1 < argc) {
            opt.aging = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--mitigate")) {
            opt.mitigate = true;
            opt.health = true;
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(stdout, argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                         argv[i]);
            usage(stderr, argv[0]);
            std::exit(2);
        }
    }
    return opt;
}

inline void
banner(const std::string &title)
{
    std::printf("\n==============================================="
                "=====================\n%s\n"
                "==============================================="
                "=====================\n\n",
                title.c_str());
}

/**
 * Emit the shared artifact envelope into @p w: schema version, bench
 * name, and the parsed options.  Leaves the writer positioned at the
 * "results" member; the caller emits exactly one value and closes the
 * envelope with endObject().  Shared by writeJsonArtifact() and any
 * bench that needs to interleave its own members.
 */
inline obs::JsonWriter &
beginJsonArtifact(obs::JsonWriter &w, const Options &opt,
                  const std::string &benchName)
{
    w.beginObject();
    w.kv("schema_version", artifactSchemaVersion);
    w.kv("bench", benchName);
    w.key("options");
    w.beginObject();
    w.kv("trials", opt.trials);
    w.kv("allpin", opt.allPin);
    w.kv("quick", opt.quick);
    w.kv("jobs", opt.jobs);
    w.kv("recovery_attempts", opt.recoveryAttempts);
    w.kv("recovery_persist", opt.recoveryPersist);
    w.kv("recovery_patrol", opt.recoveryPatrol);
    w.kv("read_frac", opt.readFrac);
    w.kv("fault_rate", opt.faultRate);
    w.kv("no_recovery", opt.noRecovery);
    w.kv("checkpoint", opt.checkpointPath);
    w.kv("resume", opt.resume);
    w.kv("exhaustive", opt.exhaustive);
    w.kv("heartbeat", opt.heartbeatPath);
    w.kv("health", opt.health);
    w.kv("aging", opt.aging);
    w.kv("mitigate", opt.mitigate);
    w.endObject();
    w.key("results");
    return w;
}

/**
 * Canonical campaign identity for checkpoint files: the bench name
 * plus every output-affecting option.  Deliberately excludes --jobs
 * (bit-identical by contract), --checkpoint/--json/--trace (paths)
 * and --resume — a checkpoint taken at --jobs 8 must resume cleanly
 * at --jobs 1.
 */
inline std::string
campaignIdFor(const Options &opt, const std::string &benchName)
{
    std::string id = benchName;
    id += " trials=" + std::to_string(opt.trials);
    id += " allpin=" + std::to_string(opt.allPin);
    id += opt.quick ? " quick" : "";
    id += " rattempts=" + std::to_string(opt.recoveryAttempts);
    id += " rpersist=" + std::to_string(opt.recoveryPersist);
    id += " rpatrol=" + std::to_string(opt.recoveryPatrol);
    // Access-mix knobs: output-affecting for the e2e bench, constant
    // defaults everywhere else (so campaign IDs stay stable).
    id += " readfrac=" + std::to_string(opt.readFrac);
    id += " faultrate=" + std::to_string(opt.faultRate);
    id += opt.noRecovery ? " norecovery" : "";
    id += opt.exhaustive ? " exhaustive" : "";
    // RAS knobs: --health changes the event-materialization path (and
    // the artifact), --aging/--mitigate change the modeled run.
    id += opt.health ? " health" : "";
    if (opt.aging)
        id += " aging=" + std::to_string(opt.aging);
    id += opt.mitigate ? " mitigate" : "";
    return id;
}

/**
 * Bench-side driver for durable checkpoint/resume (DESIGN.md §12).
 *
 * Owns the one CampaignCheckpoint a bench persists and its cursor (the
 * unit and next shard to run): the constructor validates --resume
 * state, cursor()/restore() read it back, save() records the cursor
 * and atomically replaces the file after each committed batch, and
 * finish() removes it once the artifact is complete.  Every section is
 * a state::save() form (common/state.hh).  The campaign ID must encode
 * every output-affecting option (trials, allpin, quick, recovery
 * knobs, exhaustive — but never --jobs or paths), so a checkpoint can
 * never be resumed into a differently-configured run.
 *
 * With no --checkpoint the helper is inert: enabled() is false, every
 * state query says "fresh", save() and finish() do nothing — benches
 * write one code path and run unchanged without the flag.
 */
class Checkpointer
{
  public:
    Checkpointer(const Options &opt, const std::string &campaignId)
        : path(opt.checkpointPath)
    {
        ckpt.setCampaignId(campaignId);
        if (path.empty()) {
            if (opt.resume) {
                std::fprintf(stderr,
                             "--resume requires --checkpoint PATH\n");
                std::exit(2);
            }
            return;
        }
        installStopHandlers();
        if (opt.resume) {
            std::FILE *probe = std::fopen(path.c_str(), "rb");
            if (!probe) {
                std::fprintf(stderr,
                             "checkpoint %s not found; starting "
                             "fresh\n",
                             path.c_str());
            } else {
                std::fclose(probe);
                CampaignCheckpoint loaded;
                const CampaignCheckpoint::Load res =
                    loaded.loadFile(path);
                if (!res.ok) {
                    // The file exists but does not verify: an atomic
                    // replace never leaves a torn file, so this is
                    // external damage — refuse to guess.
                    AIECC_FATAL("cannot resume: " << res.error);
                }
                if (loaded.campaignId() != campaignId) {
                    AIECC_FATAL(
                        "checkpoint "
                        << path << " belongs to campaign '"
                        << loaded.campaignId()
                        << "', not this run's '" << campaignId
                        << "' — options differ; delete it or fix "
                           "the flags");
                }
                ckpt = std::move(loaded);
                wasResumed = true;
                std::printf("resuming campaign from %s (%s)\n",
                            path.c_str(),
                            ckpt.progressNote().empty()
                                ? "no progress note"
                                : ckpt.progressNote().c_str());
            }
        }
        // Persist immediately: the file exists (and pins the campaign
        // ID) before the first batch runs, so a kill at any instant
        // leaves a loadable state behind.
        persist(wasResumed ? ckpt.progressNote() : "starting");
    }

    /** Where a resumed run continues: a unit and its next shard. */
    struct Cursor
    {
        uint64_t unit = 0;
        uint64_t shard = 0;

        template <class V, class... Self>
        static void
        fields(V &v, Self &...self)
        {
            v("unit", self.unit...);
            v("shard", self.shard...);
        }
    };

    /** The last committed cursor ({0, 0} on a fresh run). */
    Cursor
    cursor() const
    {
        Cursor c;
        restore("cursor", c);
        return c;
    }

    /**
     * Load @p x from section @p name of the resumed checkpoint.  False,
     * with @p x untouched, on a fresh run or when the section is
     * absent; a section that does not load is fatal — the file's
     * digest verified, so it was written by a different build.
     */
    template <class T>
    bool
    restore(const std::string &name, T &x) const
    {
        if (!wasResumed || !ckpt.has(name))
            return false;
        const state::Status st = state::load(x, ckpt.get(name));
        if (!st.ok)
            AIECC_FATAL("cannot resume " << path << ": section '" << name
                                         << "': " << st.error);
        return true;
    }

    /** True when --checkpoint was given. */
    bool enabled() const { return !path.empty(); }

    /** True when --resume found a verified checkpoint to continue. */
    bool resumed() const { return wasResumed; }

    /** The durable section store (inert but usable when disabled). */
    CampaignCheckpoint &state() { return ckpt; }
    const CampaignCheckpoint &state() const { return ckpt; }

    /**
     * Commit: record that the run continues at shard @p shard of unit
     * @p unit, then atomically persist with @p progressNote.
     */
    void
    save(uint64_t unit, uint64_t shard, const std::string &progressNote)
    {
        if (path.empty())
            return;
        ckpt.set("cursor", state::save(Cursor{unit, shard}));
        persist(progressNote);
    }

    /** The run completed: the checkpoint has served its purpose. */
    void
    finish()
    {
        if (!path.empty())
            std::remove(path.c_str());
    }

    /**
     * The run was interrupted (stop signal): report the resumable
     * state and exit with the distinct EX_TEMPFAIL status.
     */
    [[noreturn]] void
    exitInterrupted() const
    {
        std::fprintf(stderr,
                     "interrupted; resumable state saved to %s — "
                     "rerun with --resume to continue\n",
                     path.empty() ? "(no checkpoint)" : path.c_str());
        std::exit(aiecc::exitInterrupted);
    }

  private:
    std::string path;
    CampaignCheckpoint ckpt;
    bool wasResumed = false;

    /** Atomically persist with @p progressNote; fatal on I/O error. */
    void
    persist(const std::string &progressNote)
    {
        ckpt.setProgressNote(progressNote);
        const CampaignCheckpoint::Load res = ckpt.saveAtomic(path);
        if (!res.ok)
            AIECC_FATAL("cannot save checkpoint: " << res.error);
    }
};

/**
 * The bench's hot-path allocation report: which ProfileRegistry holds
 * the per-scope allocation attribution, and the access count the
 * allocs_per_access top line divides by.  Benches that profile a hot
 * path set this (a process-wide slot, like the options they parsed
 * from one argv) before writeJsonArtifact(); benches without one
 * leave it empty and the artifact's "alloc" section carries process
 * totals only.
 */
struct AllocReport
{
    const obs::ProfileRegistry *profile = nullptr;
    /**
     * Denominator for allocs_per_access: every access the profiled
     * scopes observed, *including* warmup — the scope timers sample
     * warmup traffic too, so excluding it would overstate the rate.
     */
    uint64_t accesses = 0;
};

inline AllocReport &
allocReport()
{
    static AllocReport report;
    return report;
}

/** The report's allocs-per-access top line (< 0 when unavailable). */
inline double
allocsPerAccess()
{
    const AllocReport &report = allocReport();
    if (!report.profile || !report.accesses)
        return -1.0;
    return static_cast<double>(report.profile->totalScopedAllocs()) /
           static_cast<double>(report.accesses);
}

/**
 * Emit the artifact's "alloc" member: process-wide totals (always)
 * plus per-scope attribution and the allocs_per_access top line when
 * the bench registered an AllocReport.  Observability only — process
 * totals vary with --jobs (thread stacks, pool bookkeeping), so
 * byte-identity gates exclude this section, exactly as they exclude
 * wall-clock fields.
 */
inline void
writeAllocSection(obs::JsonWriter &w)
{
    const obs::memprof::ProcessTotals t = obs::memprof::processTotals();
    w.key("alloc");
    w.beginObject();
    w.key("process");
    w.beginObject();
    w.kv("allocs", t.allocs);
    w.kv("frees", t.frees);
    w.kv("alloc_bytes", t.allocBytes);
    w.kv("free_bytes", t.freeBytes);
    w.kv("live_bytes", t.liveBytes);
    w.kv("peak_live_bytes", t.peakLiveBytes);
    w.endObject();
    const AllocReport &report = allocReport();
    if (report.profile) {
        w.key("scopes");
        report.profile->writeAllocJson(w);
        w.kv("accesses", report.accesses);
        const double perAccess = allocsPerAccess();
        if (perAccess >= 0.0)
            w.kv("allocs_per_access", perAccess);
    }
    w.endObject();
}

/**
 * Wire `--heartbeat PATH` (DESIGN.md §13): open @p hb for appending
 * under the campaign's identity, or exit 2 (flag error) when the path
 * cannot be written — a silently-dead heartbeat would defeat its
 * purpose.  Without the flag this is a no-op and @p hb stays inert.
 */
inline void
openHeartbeat(obs::HeartbeatEmitter &hb, const Options &opt,
              const std::string &campaignId)
{
    if (opt.heartbeatPath.empty())
        return;
    if (!hb.open(opt.heartbeatPath, campaignId)) {
        std::fprintf(stderr, "cannot write heartbeat: %s\n",
                     opt.heartbeatPath.c_str());
        std::exit(2);
    }
}

/**
 * Enforce the AIECC_BUDGET_* resource budgets (obs/memprof.hh)
 * against the registered AllocReport: print each violation and exit 1
 * so a bench run can hard-fail on an allocation regression.  Inert
 * when no budget is set.  Called by writeJsonArtifact(), so every
 * bench gets the gate for free.
 */
inline void
enforceAllocBudgetOrDie()
{
    const obs::memprof::ResourceBudget budget =
        obs::memprof::ResourceBudget::fromEnv();
    if (!budget.enabled())
        return;
    const AllocReport &report = allocReport();
    if (!report.profile) {
        std::fprintf(stderr,
                     "alloc budget set (AIECC_BUDGET_*) but this bench "
                     "registered no allocation report\n");
        std::exit(1);
    }
    const std::vector<std::string> violations =
        budget.check(*report.profile, allocsPerAccess());
    if (violations.empty())
        return;
    for (const std::string &violation : violations)
        std::fprintf(stderr, "alloc budget violated: %s\n",
                     violation.c_str());
    std::exit(1);
}

/**
 * Labeled protection-cost accountants a bench accumulated, one per
 * configuration (scheme, protection level, ...) it ran.  Becomes the
 * artifact's "cost" section and the Pareto table's cost axis.
 */
using CostEntries =
    std::vector<std::pair<std::string, obs::CostAccountant>>;

/**
 * Enforce the conservation invariant on every accumulated accountant:
 * per category, total == Σ per-level, all recovery scopes closed.  A
 * violation is an accounting bug, not a measurement — print it and
 * exit nonzero so CI artifacts can never carry silently-broken cost
 * numbers.
 */
inline void
auditCostsOrDie(const CostEntries &costs)
{
    bool ok = true;
    for (const auto &[label, acct] : costs) {
        const obs::CostAccountant::Audit verdict = acct.audit();
        if (verdict.ok)
            continue;
        ok = false;
        for (const std::string &violation : verdict.violations) {
            std::fprintf(stderr,
                         "cost conservation violated [%s]: %s\n",
                         label.c_str(), violation.c_str());
        }
    }
    if (!ok)
        std::exit(1);
}

/** Emit the "cost" member: one attribution object per configuration. */
inline void
writeCostSection(obs::JsonWriter &w, const CostEntries &costs)
{
    w.key("cost");
    w.beginObject();
    for (const auto &[label, acct] : costs) {
        w.key(label);
        acct.writeJson(w);
    }
    w.endObject();
}

/**
 * One reliability×cost Pareto point: a configuration's reliability
 * metric next to its three derived cost-overhead axes.
 */
struct ParetoPoint
{
    std::string config;
    std::string metricName; ///< e.g. "covered_frac", "sdc_frac"
    double metric = 0.0;
    double storagePct = 0.0;
    double busPct = 0.0;
    double latencyNs = 0.0;

    static ParetoPoint
    of(const std::string &config, const std::string &metricName,
       double metric, const obs::CostAccountant &acct)
    {
        return {config,           metricName,
                metric,           acct.storageOverheadPct(),
                acct.busOverheadPct(), acct.latencyNsPerAccess()};
    }
};

/** Print the Pareto table to stdout (the committed-artifact view). */
inline void
printParetoTable(const std::vector<ParetoPoint> &points)
{
    if (points.empty())
        return;
    std::printf("\nReliability x cost Pareto (%s):\n",
                points.front().metricName.c_str());
    std::printf("  %-26s %12s %12s %10s %12s\n", "config",
                points.front().metricName.c_str(), "storage_%",
                "bus_%", "latency_ns");
    for (const ParetoPoint &p : points) {
        std::printf("  %-26s %12.6f %12.3f %10.3f %12.3f\n",
                    p.config.c_str(), p.metric, p.storagePct, p.busPct,
                    p.latencyNs);
    }
}

/**
 * The artifact's RAS health payload: the monitor that observed the
 * run plus, in aging mode, the prediction-accuracy block scoring the
 * monitor's inferred topologies against the lineage ground truth.
 */
struct RasReport
{
    const ras::HealthMonitor *monitor = nullptr;

    /** One injected aging site and whether inference matched it. */
    struct SiteScore
    {
        std::string site;    ///< lineage site label ("row:b3:r17", ...)
        bool matched = false;
        std::string inferred; ///< what the monitor called it
    };
    bool hasPrediction = false; ///< aging mode ran
    std::vector<SiteScore> sites;

    uint64_t
    matchedSites() const
    {
        uint64_t n = 0;
        for (const SiteScore &s : sites)
            n += s.matched ? 1 : 0;
        return n;
    }
    double
    accuracy() const
    {
        return sites.empty() ? 0.0
                             : static_cast<double>(matchedSites()) /
                                   static_cast<double>(sites.size());
    }
};

/** Emit the "ras" member: monitor telemetry (+ prediction scoring). */
inline void
writeRasSection(obs::JsonWriter &w, const RasReport &report)
{
    w.key("ras");
    w.beginObject();
    report.monitor->writeJsonMembers(w);
    if (report.hasPrediction) {
        w.key("prediction");
        w.beginObject();
        w.kv("sites", static_cast<uint64_t>(report.sites.size()));
        w.kv("matched", report.matchedSites());
        w.kv("accuracy", report.accuracy());
        w.key("per_site");
        w.beginArray();
        for (const RasReport::SiteScore &s : report.sites) {
            w.beginObject();
            w.kv("site", s.site);
            w.kv("matched", s.matched);
            w.kv("inferred", s.inferred);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

/** Emit the "pareto" member: the table as a JSON array. */
inline void
writeParetoSection(obs::JsonWriter &w,
                   const std::vector<ParetoPoint> &points)
{
    w.key("pareto");
    w.beginArray();
    for (const ParetoPoint &p : points) {
        w.beginObject();
        w.kv("config", p.config);
        w.kv("metric", p.metricName);
        w.kv("reliability", p.metric);
        w.kv("storage_overhead_pct", p.storagePct);
        w.kv("bus_overhead_pct", p.busPct);
        w.kv("latency_ns_per_access", p.latencyNs);
        w.endObject();
    }
    w.endArray();
}

/**
 * Write the bench's JSON artifact if --json was given.
 *
 * The artifact shape is shared by every bench:
 * @code
 *   { "schema_version": N, "bench": "...", "options": {...},
 *     "results": <fill's output>, "cost": {...}[, "pareto": [...]],
 *     "alloc": {...} }
 * @endcode
 * @p fill receives the writer positioned at the "results" member and
 * must emit exactly one value (object/array/scalar).  @p costs is
 * audited first (exit 1 on a conservation violation) and becomes the
 * "cost" section; @p pareto, when nonempty, the "pareto" table;
 * @p rasReport, when it carries a monitor, the "ras" section (schema
 * v7); the "alloc" section and the AIECC_BUDGET_* gate come from the
 * registered AllocReport (the gate fires even without --json).
 */
template <typename FillFn>
inline void
writeJsonArtifact(const Options &opt, const std::string &benchName,
                  const CostEntries &costs,
                  const std::vector<ParetoPoint> &pareto,
                  const RasReport &rasReport, FillFn &&fill)
{
    auditCostsOrDie(costs);
    enforceAllocBudgetOrDie();
    if (opt.jsonPath.empty())
        return;
    obs::JsonWriter w;
    beginJsonArtifact(w, opt, benchName);
    fill(w);
    writeCostSection(w, costs);
    if (!pareto.empty())
        writeParetoSection(w, pareto);
    if (rasReport.monitor)
        writeRasSection(w, rasReport);
    writeAllocSection(w);
    w.endObject();
    if (!w.writeFile(opt.jsonPath)) {
        std::fprintf(stderr, "cannot write JSON artifact: %s\n",
                     opt.jsonPath.c_str());
        std::exit(1);
    }
    std::printf("JSON artifact written to %s\n", opt.jsonPath.c_str());
}

/** Artifact without a RAS health monitor. */
template <typename FillFn>
inline void
writeJsonArtifact(const Options &opt, const std::string &benchName,
                  const CostEntries &costs,
                  const std::vector<ParetoPoint> &pareto, FillFn &&fill)
{
    writeJsonArtifact(opt, benchName, costs, pareto, RasReport{},
                      std::forward<FillFn>(fill));
}

/** Artifact without cost entries (a bench that models no traffic). */
template <typename FillFn>
inline void
writeJsonArtifact(const Options &opt, const std::string &benchName,
                  FillFn &&fill)
{
    writeJsonArtifact(opt, benchName, CostEntries{}, {},
                      std::forward<FillFn>(fill));
}

} // namespace bench
} // namespace aiecc

#endif // AIECC_BENCH_BENCH_UTIL_HH
