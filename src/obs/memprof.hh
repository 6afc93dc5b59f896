/**
 * @file
 * Hot-path heap-allocation accounting (DESIGN.md §13).
 *
 * The profiler (obs/profile.hh) answers "where does wall time go?";
 * this module answers "where do the allocations go?" — the question
 * the zero-allocation hot-path rewrite (ROADMAP item 1) needs a
 * baseline and a regression gate for.  A global operator new/delete
 * interposition counts every heap event and attributes it to the
 * innermost active profiling scope on the calling thread, so every
 * existing ScopedTimer site gains an allocation dimension without a
 * single call-site change.
 *
 * Design constraints the implementation lives under:
 *  - the interposed operators may never allocate (no recursion),
 *    which is why the scope stack is a fixed-depth thread-local POD
 *    array and AllocStats is a plain aggregate;
 *  - accounting must be exact under ASan/TSan, so byte counts come
 *    from malloc_usable_size() symmetry (counted identically at
 *    allocation and at free) rather than from size headers;
 *  - per-scope counters are plain fields — a scope is only ever
 *    bumped by the thread that pushed it (shard workers own their
 *    shard-local registries) — while process-wide totals are relaxed
 *    atomics, safe from any thread;
 *  - everything here is observability: it is excluded from checkpoint
 *    digests and never output-affecting, so `--jobs` bit-identity and
 *    crash-resume guarantees are untouched.
 */

#ifndef AIECC_OBS_MEMPROF_HH
#define AIECC_OBS_MEMPROF_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aiecc
{
namespace obs
{

class ProfileRegistry;

namespace memprof
{

/**
 * Allocation counters of one profiling scope (or one merged shard).
 *
 * liveBytes is the net allocated-minus-freed balance observed while
 * the scope was active; peakLiveBytes the highest that balance
 * reached.  A free is billed to the scope active when it happens, not
 * the one that allocated — cross-scope frees therefore show up as a
 * negative liveBytes on the freeing scope, which is exactly the
 * churn signal the hot-path rewrite hunts.
 */
struct AllocStats
{
    uint64_t allocs = 0;     ///< operator new calls attributed here
    uint64_t frees = 0;      ///< operator delete calls attributed here
    uint64_t allocBytes = 0; ///< usable bytes allocated
    uint64_t freeBytes = 0;  ///< usable bytes freed
    int64_t liveBytes = 0;   ///< net balance while the scope was active
    int64_t peakLiveBytes = 0; ///< max of liveBytes over the scope

    /**
     * Fold @p other into this as if its activity happened *after*
     * ours: counts add, and the combined peak is the max of our peak
     * and our final balance plus the other's peak.  Sequential
     * composition is associative, which is what shard-order merging
     * requires (and what the merge-associativity test proves).
     */
    void
    merge(const AllocStats &other)
    {
        allocs += other.allocs;
        frees += other.frees;
        allocBytes += other.allocBytes;
        freeBytes += other.freeBytes;
        const int64_t chained = liveBytes + other.peakLiveBytes;
        if (chained > peakLiveBytes)
            peakLiveBytes = chained;
        liveBytes += other.liveBytes;
    }

    void reset() { *this = AllocStats{}; }

    /** Checkpoint state (common/state.hh). */
    template <class V, class... Self>
    static void
    fields(V &v, Self &...self)
    {
        v("allocs", self.allocs...);
        v("frees", self.frees...);
        v("allocBytes", self.allocBytes...);
        v("freeBytes", self.freeBytes...);
        v("liveBytes", self.liveBytes...);
        v("peakLiveBytes", self.peakLiveBytes...);
    }
};

/** Process-wide totals since start (or the last resetProcessTotals). */
struct ProcessTotals
{
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t allocBytes = 0;
    uint64_t freeBytes = 0;
    int64_t liveBytes = 0;
    int64_t peakLiveBytes = 0;
};

/**
 * Deepest scope nesting the thread-local stack records.  Pushes
 * beyond this still balance their pops but attribute to the deepest
 * stored scope — depth 16 is several levels past the deepest real
 * nesting (bench → stack → codec), so overflow means a bug, not data
 * loss worth engineering for.
 */
constexpr int maxScopeDepth = 16;

/**
 * Make @p scope the innermost allocation-attribution target on the
 * calling thread.  Must be balanced by popScope() on the same thread;
 * ScopedTimer does both automatically.  Never allocates.
 */
void pushScope(AllocStats *scope) noexcept;

/** Balance the most recent pushScope() on the calling thread. */
void popScope() noexcept;

/** The calling thread's innermost scope (nullptr outside any). */
AllocStats *currentScope() noexcept;

/** Snapshot the process-wide totals (relaxed reads; advisory). */
ProcessTotals processTotals() noexcept;

/**
 * Zero the process-wide totals (test isolation only — per-scope
 * stats are owned by their registries and unaffected).
 */
void resetProcessTotals() noexcept;

/**
 * Resource-budget gate: hard limits on allocation behaviour, read
 * from the environment so CI can pin the current baseline and fail
 * any bench run that regresses past it.
 *
 *  - AIECC_BUDGET_ALLOCS_PER_ACCESS=F  — the artifact's top-line
 *    allocs-per-access may not exceed F;
 *  - AIECC_BUDGET_SCOPE_ALLOCS=name=F,name=F,...  — the named
 *    profiling scope's allocs-per-call may not exceed F.
 *
 * check() returns human-readable violations (empty = within budget);
 * bench_util's enforceAllocBudgetOrDie() prints them and exits 1.
 */
struct ResourceBudget
{
    double allocsPerAccess = -1.0; ///< top-line limit (<0 = unset)
    /** Per-scope allocs-per-call limits, keyed by dotted scope name. */
    std::map<std::string, double> scopeAllocsPerCall;

    /** Parse the AIECC_BUDGET_* environment variables. */
    static ResourceBudget fromEnv();

    bool
    enabled() const
    {
        return allocsPerAccess >= 0.0 || !scopeAllocsPerCall.empty();
    }

    /**
     * Evaluate the budget against @p profile's per-scope allocation
     * stats and the top-line @p allocsPerAccess (pass a negative
     * value when the bench has no access denominator).  A budget
     * naming a scope the profile never registered is itself a
     * violation — a silently-missing scope must not pass the gate.
     */
    std::vector<std::string> check(const ProfileRegistry &profile,
                                   double allocsPerAccess) const;
};

} // namespace memprof
} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_MEMPROF_HH
