/**
 * @file
 * Tests for the hot-path allocation profiler (obs/memprof.hh): scope
 * attribution through the thread-local stack (innermost wins, frees
 * bill to the freeing scope), merge() as associative sequential
 * composition, the process-wide totals, the AIECC_BUDGET_* resource
 * gate, and the allocation dimension riding ProfileRegistry —
 * ScopedTimer attribution, registry merge, and the checkpoint
 * state::save/state::load round trip.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "obs/memprof.hh"
#include "obs/profile.hh"

namespace aiecc
{
namespace
{

using obs::memprof::AllocStats;

/**
 * One heap round trip that the optimizer cannot elide: direct
 * operator new/delete calls are observable behaviour, unlike a
 * new-expression pair, which C++14 allows to be removed.
 */
void
heapRoundTrip(size_t bytes)
{
    void *p = ::operator new(bytes);
    ::operator delete(p);
}

// ---- scope attribution ----

TEST(MemprofScopes, AttributesAllocAndFreeToActiveScope)
{
    AllocStats scope;
    obs::memprof::pushScope(&scope);
    heapRoundTrip(256);
    obs::memprof::popScope();

    EXPECT_GE(scope.allocs, 1u);
    EXPECT_GE(scope.frees, 1u);
    // malloc_usable_size may round up, never down.
    EXPECT_GE(scope.allocBytes, 256u);
    EXPECT_EQ(scope.allocBytes, scope.freeBytes);
    EXPECT_EQ(scope.liveBytes, 0);
    EXPECT_GE(scope.peakLiveBytes, 256);
}

TEST(MemprofScopes, InnermostScopeWins)
{
    AllocStats outer, inner;
    obs::memprof::pushScope(&outer);
    heapRoundTrip(64);
    obs::memprof::pushScope(&inner);
    EXPECT_EQ(obs::memprof::currentScope(), &inner);
    heapRoundTrip(64);
    obs::memprof::popScope();
    EXPECT_EQ(obs::memprof::currentScope(), &outer);
    obs::memprof::popScope();
    EXPECT_EQ(obs::memprof::currentScope(), nullptr);

    // The inner allocation lands on the inner scope only; nesting
    // partitions, it does not double count.
    const uint64_t innerAllocs = inner.allocs;
    EXPECT_GE(innerAllocs, 1u);
    EXPECT_GE(outer.allocs, 1u);
}

TEST(MemprofScopes, CrossScopeFreeGoesNegative)
{
    // A free is billed where it happens: scope B frees memory scope A
    // allocated, so B's net balance dips below zero — the churn
    // signature the hot-path rewrite hunts.
    AllocStats a, b;
    obs::memprof::pushScope(&a);
    void *p = ::operator new(512);
    obs::memprof::popScope();
    obs::memprof::pushScope(&b);
    ::operator delete(p);
    obs::memprof::popScope();

    EXPECT_GE(a.allocBytes, 512u);
    EXPECT_GE(a.liveBytes, 512);
    EXPECT_GE(b.freeBytes, 512u);
    EXPECT_LE(b.liveBytes, -512);
}

TEST(MemprofScopes, NoScopeMeansNoAttribution)
{
    // Outside any scope the thread must not crash or misattribute.
    ASSERT_EQ(obs::memprof::currentScope(), nullptr);
    heapRoundTrip(128);
}

TEST(MemprofScopes, ThreadLocalStacksAreIndependent)
{
    AllocStats parent, worker;
    obs::memprof::pushScope(&parent);
    std::thread t([&] {
        // The worker starts with an empty stack regardless of the
        // parent's scopes: without its own push, its heap traffic is
        // unattributed, and with one it lands on the worker scope.
        EXPECT_EQ(obs::memprof::currentScope(), nullptr);
        heapRoundTrip(4096);
        obs::memprof::pushScope(&worker);
        heapRoundTrip(1024);
        obs::memprof::popScope();
        EXPECT_EQ(obs::memprof::currentScope(), nullptr);
    });
    t.join();
    EXPECT_EQ(obs::memprof::currentScope(), &parent);
    obs::memprof::popScope();

    EXPECT_GE(worker.allocs, 1u);
    EXPECT_GE(worker.allocBytes, 1024u);
    // The unscoped 4096-byte round trip on the worker thread must not
    // have reached the worker scope (pushed later) — and the worker's
    // balanced round trips leave it at net zero.
    EXPECT_LT(worker.allocBytes, 4096u);
    EXPECT_EQ(worker.liveBytes, 0);
}

// ---- merge: associative sequential composition ----

TEST(MemprofMerge, CountsAddAndPeakChains)
{
    // a ends +100 live with peak 150; b peaks at +80 before settling
    // at -20.  Sequenced, the combined peak is a's final balance plus
    // b's peak: 180.
    AllocStats a;
    a.allocs = 3;
    a.frees = 1;
    a.allocBytes = 200;
    a.freeBytes = 100;
    a.liveBytes = 100;
    a.peakLiveBytes = 150;
    AllocStats b;
    b.allocs = 2;
    b.frees = 3;
    b.allocBytes = 80;
    b.freeBytes = 100;
    b.liveBytes = -20;
    b.peakLiveBytes = 80;

    a.merge(b);
    EXPECT_EQ(a.allocs, 5u);
    EXPECT_EQ(a.frees, 4u);
    EXPECT_EQ(a.allocBytes, 280u);
    EXPECT_EQ(a.freeBytes, 200u);
    EXPECT_EQ(a.liveBytes, 80);
    EXPECT_EQ(a.peakLiveBytes, 180);
}

TEST(MemprofMerge, EarlierPeakSurvivesLaterQuietShards)
{
    AllocStats a;
    a.liveBytes = 0;
    a.peakLiveBytes = 500;
    AllocStats b;
    b.liveBytes = 10;
    b.peakLiveBytes = 10;
    a.merge(b);
    EXPECT_EQ(a.peakLiveBytes, 500);
    EXPECT_EQ(a.liveBytes, 10);
}

TEST(MemprofMerge, SequentialCompositionIsAssociative)
{
    // Shard-order merging folds left, but batch boundaries vary with
    // --jobs: (a+b)+c and a+(b+c) must agree field-for-field for the
    // merged registry to be independent of batching.
    const auto make = [](uint64_t allocs, int64_t live, int64_t peak) {
        AllocStats s;
        s.allocs = allocs;
        s.frees = allocs / 2;
        s.allocBytes = allocs * 10;
        s.freeBytes = allocs * 4;
        s.liveBytes = live;
        s.peakLiveBytes = peak;
        return s;
    };
    const AllocStats samples[] = {
        make(3, 100, 150), make(2, -20, 80), make(5, 60, 60),
        make(1, 0, 0),     make(4, -50, 30),
    };
    for (const AllocStats &a : samples) {
        for (const AllocStats &b : samples) {
            for (const AllocStats &c : samples) {
                AllocStats left = a;
                left.merge(b);
                left.merge(c);
                AllocStats bc = b;
                bc.merge(c);
                AllocStats right = a;
                right.merge(bc);
                EXPECT_EQ(left.allocs, right.allocs);
                EXPECT_EQ(left.frees, right.frees);
                EXPECT_EQ(left.allocBytes, right.allocBytes);
                EXPECT_EQ(left.freeBytes, right.freeBytes);
                EXPECT_EQ(left.liveBytes, right.liveBytes);
                EXPECT_EQ(left.peakLiveBytes, right.peakLiveBytes);
            }
        }
    }
}

// ---- process-wide totals ----

TEST(MemprofProcessTotals, CountEveryHeapEventScopedOrNot)
{
    const obs::memprof::ProcessTotals before =
        obs::memprof::processTotals();
    heapRoundTrip(2048);
    const obs::memprof::ProcessTotals after =
        obs::memprof::processTotals();
    EXPECT_GE(after.allocs, before.allocs + 1);
    EXPECT_GE(after.frees, before.frees + 1);
    EXPECT_GE(after.allocBytes, before.allocBytes + 2048);
    EXPECT_GE(after.peakLiveBytes, before.peakLiveBytes);
}

// ---- resource budget ----

TEST(MemprofBudget, DisabledByDefault)
{
    ::unsetenv("AIECC_BUDGET_ALLOCS_PER_ACCESS");
    ::unsetenv("AIECC_BUDGET_SCOPE_ALLOCS");
    const auto budget = obs::memprof::ResourceBudget::fromEnv();
    EXPECT_FALSE(budget.enabled());
}

TEST(MemprofBudget, ParsesFromEnvironment)
{
    ::setenv("AIECC_BUDGET_ALLOCS_PER_ACCESS", "2.5", 1);
    ::setenv("AIECC_BUDGET_SCOPE_ALLOCS",
             "stack.read=0,controller.issue=12.5", 1);
    const auto budget = obs::memprof::ResourceBudget::fromEnv();
    ::unsetenv("AIECC_BUDGET_ALLOCS_PER_ACCESS");
    ::unsetenv("AIECC_BUDGET_SCOPE_ALLOCS");

    EXPECT_TRUE(budget.enabled());
    EXPECT_DOUBLE_EQ(budget.allocsPerAccess, 2.5);
    ASSERT_EQ(budget.scopeAllocsPerCall.size(), 2u);
    EXPECT_DOUBLE_EQ(budget.scopeAllocsPerCall.at("stack.read"), 0.0);
    EXPECT_DOUBLE_EQ(budget.scopeAllocsPerCall.at("controller.issue"),
                     12.5);
}

TEST(MemprofBudget, TopLineGateTrips)
{
    obs::ProfileRegistry profile;
    obs::memprof::ResourceBudget budget;
    budget.allocsPerAccess = 1.0;

    EXPECT_TRUE(budget.check(profile, 0.5).empty());
    EXPECT_TRUE(budget.check(profile, 1.0).empty());
    const auto violations = budget.check(profile, 1.5);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("exceeds budget"), std::string::npos);
}

TEST(MemprofBudget, TopLineBudgetOnDenominatorlessBenchIsViolation)
{
    // Benches without an access count pass a negative top line; a
    // top-line budget cannot be evaluated there, and silently passing
    // would hide a misconfigured CI gate — so it trips.
    obs::ProfileRegistry profile;
    obs::memprof::ResourceBudget budget;
    budget.allocsPerAccess = 0.0;
    const auto violations = budget.check(profile, -1.0);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("no allocs-per-access top line"),
              std::string::npos);
}

TEST(MemprofBudget, ScopeGateTripsAndMissingScopeIsViolation)
{
    obs::ProfileRegistry profile;
    obs::Histogram &h = profile.timer("unit.scope");
    {
        obs::ScopedTimer t(&h);
        heapRoundTrip(32); // >= 1 alloc in one call
    }
    obs::memprof::ResourceBudget budget;
    budget.scopeAllocsPerCall["unit.scope"] = 0.0;
    const auto tripped = budget.check(profile, -1.0);
    ASSERT_EQ(tripped.size(), 1u);
    EXPECT_NE(tripped[0].find("unit.scope"), std::string::npos);

    budget.scopeAllocsPerCall.clear();
    budget.scopeAllocsPerCall["unit.scope"] = 1e9;
    EXPECT_TRUE(budget.check(profile, -1.0).empty());

    // Naming a scope the profile never registered must itself trip:
    // a silently-missing scope cannot pass the gate.
    budget.scopeAllocsPerCall.clear();
    budget.scopeAllocsPerCall["no.such.scope"] = 1e9;
    const auto missing = budget.check(profile, -1.0);
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_NE(missing[0].find("no.such.scope"), std::string::npos);
}

// ---- the allocation dimension on ProfileRegistry ----

TEST(ProfileAlloc, ScopedTimerAttributesToItsTimer)
{
    obs::ProfileRegistry profile;
    obs::Histogram &h = profile.timer("attr.timer");
    {
        obs::ScopedTimer t(&h);
        heapRoundTrip(4096);
    }
    const obs::memprof::AllocStats *scope =
        profile.findAlloc("attr.timer");
    ASSERT_NE(scope, nullptr);
    EXPECT_GE(scope->allocs, 1u);
    EXPECT_GE(scope->allocBytes, 4096u);
    EXPECT_EQ(profile.findAlloc("never.registered"), nullptr);
    EXPECT_GE(profile.totalScopedAllocs(), scope->allocs);
}

TEST(ProfileAlloc, MergeFoldsAllocScopes)
{
    obs::ProfileRegistry a, b;
    {
        obs::ScopedTimer t(&a.timer("shared"));
        heapRoundTrip(100);
    }
    {
        obs::ScopedTimer t(&b.timer("shared"));
        heapRoundTrip(100);
    }
    {
        obs::ScopedTimer t(&b.timer("only.b"));
        heapRoundTrip(100);
    }
    const uint64_t aShared = a.findAlloc("shared")->allocs;
    const uint64_t bShared = b.findAlloc("shared")->allocs;
    const uint64_t bOnly = b.findAlloc("only.b")->allocs;

    a.merge(b);
    EXPECT_EQ(a.findAlloc("shared")->allocs, aShared + bShared);
    ASSERT_NE(a.findAlloc("only.b"), nullptr);
    EXPECT_EQ(a.findAlloc("only.b")->allocs, bOnly);
}

TEST(ProfileAlloc, SerializeStateRoundTripsAllocCounters)
{
    obs::ProfileRegistry profile;
    {
        obs::ScopedTimer t(&profile.timer("rt.scope"));
        heapRoundTrip(640);
    }
    const obs::memprof::AllocStats before =
        *profile.findAlloc("rt.scope");
    ASSERT_GE(before.allocs, 1u);

    obs::ProfileRegistry restored;
    ASSERT_TRUE(state::load(restored, state::save(profile)).ok);
    const obs::memprof::AllocStats *after =
        restored.findAlloc("rt.scope");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->allocs, before.allocs);
    EXPECT_EQ(after->frees, before.frees);
    EXPECT_EQ(after->allocBytes, before.allocBytes);
    EXPECT_EQ(after->freeBytes, before.freeBytes);
    EXPECT_EQ(after->liveBytes, before.liveBytes);
    EXPECT_EQ(after->peakLiveBytes, before.peakLiveBytes);
    // And a second round trip is byte-stable.
    EXPECT_EQ(state::save(restored), state::save(profile));
}

} // namespace
} // namespace aiecc
