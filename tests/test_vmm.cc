/**
 * @file
 * Unit tests for the VMM: pmap allocation, multi-shadow page tables,
 * reverse-index invalidation, TLB behaviour (including the front
 * cache's coherence and view isolation), the Vcpu's inline access path
 * and register scrubbing.
 */

#include "base/rng.hh"
#include "sim/machine.hh"
#include "vmm/pmap.hh"
#include "vmm/registers.hh"
#include "vmm/shadow.hh"
#include "vmm/tlb.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

namespace osh::vmm
{
namespace
{

sim::MachineConfig
smallMachine()
{
    sim::MachineConfig cfg;
    cfg.numFrames = 64;
    return cfg;
}

TEST(Pmap, BacksFramesLazily)
{
    sim::Machine m(smallMachine());
    Pmap pmap(m, 16);
    EXPECT_FALSE(pmap.isBacked(0));
    Mpa a = pmap.translate(0x1000);
    EXPECT_TRUE(pmap.isBacked(0x1000));
    EXPECT_FALSE(pmap.isBacked(0x3000));
    // Stable mapping.
    EXPECT_EQ(pmap.translate(0x1000), a);
    // Offset preserved.
    EXPECT_EQ(pmap.translate(0x1234), pageBase(a) + 0x234);
}

TEST(Pmap, DistinctGuestFramesGetDistinctMachineFrames)
{
    sim::Machine m(smallMachine());
    Pmap pmap(m, 16);
    Mpa a = pmap.translate(0);
    Mpa b = pmap.translate(pageSize);
    EXPECT_NE(pageBase(a), pageBase(b));
}

TEST(PmapDeath, OutOfRangeGpaPanics)
{
    sim::Machine m(smallMachine());
    Pmap pmap(m, 4);
    EXPECT_DEATH(pmap.translate(64 * pageSize), "outside guest");
}

TEST(Shadow, PerContextIsolation)
{
    ShadowManager sm;
    Context app{1, 7, false};
    Context kernel{1, systemDomain, true};

    sm.install(app, 0x1000, {0x5000, true, true});
    EXPECT_TRUE(sm.lookup(app, 0x1000).has_value());
    EXPECT_FALSE(sm.lookup(kernel, 0x1000).has_value());

    // The same VA in a different view resolves independently — the
    // essence of multi-shadowing.
    sm.install(kernel, 0x1000, {0x6000, true, false});
    EXPECT_EQ(sm.lookup(app, 0x1000)->mpa, 0x5000u);
    EXPECT_EQ(sm.lookup(kernel, 0x1000)->mpa, 0x6000u);
}

TEST(Shadow, InvalidateVaDropsAllViewsOfAsid)
{
    ShadowManager sm;
    Context app{1, 7, false};
    Context sys{1, systemDomain, true};
    Context other{2, systemDomain, false};
    sm.install(app, 0x1000, {0x5000, true, true});
    sm.install(sys, 0x1000, {0x5000, true, true});
    sm.install(other, 0x1000, {0x7000, true, true});

    sm.invalidateVa(1, 0x1000);
    EXPECT_FALSE(sm.lookup(app, 0x1000).has_value());
    EXPECT_FALSE(sm.lookup(sys, 0x1000).has_value());
    EXPECT_TRUE(sm.lookup(other, 0x1000).has_value());
}

TEST(Shadow, InvalidateMpaDropsEveryMapping)
{
    ShadowManager sm;
    Context a{1, 1, false};
    Context b{2, systemDomain, true};
    Context c{3, 2, false};
    sm.install(a, 0x1000, {0x9000, true, true});
    sm.install(b, 0x2000, {0x9000, true, false});
    sm.install(c, 0x3000, {0xa000, true, true});

    sm.invalidateMpa(0x9000);
    EXPECT_FALSE(sm.lookup(a, 0x1000).has_value());
    EXPECT_FALSE(sm.lookup(b, 0x2000).has_value());
    EXPECT_TRUE(sm.lookup(c, 0x3000).has_value());
    EXPECT_EQ(sm.entryCount(), 1u);
}

TEST(Shadow, ReinstallUpdatesReverseIndex)
{
    ShadowManager sm;
    Context a{1, 1, false};
    sm.install(a, 0x1000, {0x9000, true, true});
    // Re-install the same VA pointing at a different frame.
    sm.install(a, 0x1000, {0xb000, true, true});
    // Invalidating the old frame must not disturb the new mapping.
    sm.invalidateMpa(0x9000);
    ASSERT_TRUE(sm.lookup(a, 0x1000).has_value());
    EXPECT_EQ(sm.lookup(a, 0x1000)->mpa, 0xb000u);
    sm.invalidateMpa(0xb000);
    EXPECT_FALSE(sm.lookup(a, 0x1000).has_value());
}

TEST(Shadow, InvalidateAsidKeepsOthers)
{
    ShadowManager sm;
    Context a{1, 1, false};
    Context b{2, 2, false};
    sm.install(a, 0x1000, {0x9000, true, true});
    sm.install(a, 0x2000, {0xa000, true, true});
    sm.install(b, 0x1000, {0xb000, true, true});
    sm.invalidateAsid(1);
    EXPECT_EQ(sm.entryCount(), 1u);
    EXPECT_TRUE(sm.lookup(b, 0x1000).has_value());
}

TEST(Tlb, HitAndMissCounting)
{
    Tlb tlb(8);
    Context ctx{1, 0, false};
    EXPECT_FALSE(tlb.lookup(ctx, 0x1000).has_value());
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    ASSERT_TRUE(tlb.lookup(ctx, 0x1000).has_value());
    EXPECT_EQ(tlb.stats().value("hits"), 1u);
    EXPECT_EQ(tlb.stats().value("misses"), 1u);
}

TEST(Tlb, CapacityEviction)
{
    Tlb tlb(4);
    Context ctx{1, 0, false};
    for (GuestVA va = 0; va < 8 * pageSize; va += pageSize)
        tlb.insert(ctx, va, {va + 0x100000, true, true});
    EXPECT_LE(tlb.size(), 4u);
    // The newest entries survive FIFO replacement.
    EXPECT_TRUE(tlb.lookup(ctx, 7 * pageSize).has_value());
}

TEST(Tlb, ReinsertAfterInvalidateDoesNotEvictLiveEntry)
{
    // Regression: invalidateVa used to leave the key's fifo occurrence
    // behind, so a re-inserted key was queued twice and the stale front
    // duplicate evicted the *live* re-inserted entry instead of the
    // oldest survivor.
    Tlb tlb(4);
    Context ctx{1, 0, false};
    tlb.insert(ctx, 0x1000, {0xa000, true, true}); // A
    tlb.insert(ctx, 0x2000, {0xb000, true, true}); // B
    tlb.invalidateVa(1, 0x1000);
    tlb.insert(ctx, 0x1000, {0xa000, true, true}); // A again
    tlb.insert(ctx, 0x3000, {0xc000, true, true}); // C
    tlb.insert(ctx, 0x4000, {0xd000, true, true}); // D -> full

    // The next insert must evict B (the oldest live entry), not the
    // freshly re-inserted A via its stale queue duplicate.
    tlb.insert(ctx, 0x5000, {0xe000, true, true}); // E
    EXPECT_TRUE(tlb.lookup(ctx, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(ctx, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(ctx, 0x5000).has_value());
    EXPECT_LE(tlb.size(), 4u);
}

TEST(Tlb, InvalidationChurnStaysWithinCapacity)
{
    // Regression: the replacement queue grew by one stale key per
    // invalidate/re-insert cycle, unboundedly. Every entry now owns one
    // of `capacity` slots, so churn can never hold more than that.
    Tlb tlb(4);
    Context ctx{1, 0, false};
    for (int i = 0; i < 1000; ++i) {
        GuestVA va = static_cast<GuestVA>(0x1000 + (i % 4) * pageSize);
        tlb.insert(ctx, va, {0x100000 + va, true, true});
        ASSERT_LE(tlb.size(), 4u) << "step " << i;
        tlb.invalidateVa(1, va);
    }
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, EvictionAfterInvalidationChurnIsFifo)
{
    // Regression: re-inserting an invalidated key left a stale queue
    // occurrence behind, and once the queue passed 2 * capacity a
    // compaction ran *before* the new key was entered, dropped it as
    // dead and left it live but unqueued: never evicted, while the
    // entries behind it were evicted in its place.
    Tlb tlb(2);
    Context ctx{1, 0, false};
    const GuestVA a = 0x1000, b = 0x2000, c = 0x3000, d = 0x4000;
    for (int i = 0; i < 4; ++i) {
        tlb.insert(ctx, a, {0xa000, true, true});
        tlb.invalidateVa(1, a);
    }
    tlb.insert(ctx, b, {0xb000, true, true});
    tlb.insert(ctx, c, {0xc000, true, true});
    tlb.insert(ctx, d, {0xd000, true, true}); // Evicts B, the oldest.
    EXPECT_FALSE(tlb.lookup(ctx, b).has_value());
    EXPECT_TRUE(tlb.lookup(ctx, c).has_value());
    EXPECT_TRUE(tlb.lookup(ctx, d).has_value());
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, OverwriteMovesEntryToNewFrame)
{
    Tlb tlb(8);
    Context ctx{1, 0, false};
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    tlb.insert(ctx, 0x1000, {0x6000, true, false}); // New frame.
    tlb.invalidateMpa(0x5000);
    auto hit = tlb.lookup(ctx, 0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->mpa, 0x6000u);
    tlb.invalidateMpa(0x6000);
    EXPECT_FALSE(tlb.lookup(ctx, 0x1000).has_value());
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, InvalidationScopes)
{
    // asid 1 maps one page in two views and in kernel mode, all to one
    // frame (the multi-shadowing case), next to other pages, asids and
    // frames.
    Tlb tlb(16);
    Context a{1, 0, false};
    Context a_view{1, 5, false};
    Context a_kernel{1, 0, true};
    Context b{2, 0, false};
    tlb.insert(a, 0x1000, {0x5000, true, true});
    tlb.insert(a_view, 0x1000, {0x5000, true, true});
    tlb.insert(a_kernel, 0x1000, {0x5000, true, true});
    tlb.insert(a, 0x2000, {0x6000, true, true});
    tlb.insert(b, 0x1000, {0x7000, true, true});
    tlb.insert(b, 0x3000, {0x5000, true, true});

    tlb.invalidateVa(1, 0x1000); // Every view of the page.
    EXPECT_FALSE(tlb.lookup(a, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(a_view, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(a_kernel, 0x1000).has_value());
    EXPECT_TRUE(tlb.lookup(a, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(b, 0x1000).has_value());
    EXPECT_EQ(tlb.size(), 3u);

    tlb.invalidateMpa(0x5010); // Any address within the frame.
    EXPECT_FALSE(tlb.lookup(b, 0x3000).has_value());
    EXPECT_EQ(tlb.size(), 2u);

    // Shootdowns that match nothing remove nothing.
    tlb.invalidateVa(3, 0x2000);
    tlb.invalidateMpa(0x9000);
    tlb.invalidateAsid(4);
    EXPECT_EQ(tlb.size(), 2u);

    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(a, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(b, 0x1000).has_value());

    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
}

// --- Front cache -----------------------------------------------------
// Every case warms the front slot, applies one epoch-bump path and
// checks the next lookup sees the table's new state.

/** Two hits: the first fills the front slot, the second is served by it. */
void
warmFront(Tlb& tlb, const Context& ctx, GuestVA va)
{
    ASSERT_TRUE(tlb.lookup(ctx, va).has_value());
    ASSERT_TRUE(tlb.lookup(ctx, va).has_value());
}

TEST(TlbFront, OverwriteInsertReturnsNewEntry)
{
    Tlb tlb(8);
    Context ctx{1, 0, false};
    tlb.insert(ctx, 0x1000, {0x5000, true, false});
    warmFront(tlb, ctx, 0x1000);
    tlb.insert(ctx, 0x1000, {0x9000, true, true});
    auto hit = tlb.lookup(ctx, 0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->mpa, 0x9000u);
    EXPECT_TRUE(hit->canWrite);
}

TEST(TlbFront, FifoEvictionOfCachedKeyMisses)
{
    Tlb tlb(2);
    Context ctx{1, 0, false};
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    warmFront(tlb, ctx, 0x1000);
    tlb.insert(ctx, 0x2000, {0x6000, true, true});
    tlb.insert(ctx, 0x3000, {0x7000, true, true}); // Evicts 0x1000.
    EXPECT_FALSE(tlb.lookup(ctx, 0x1000).has_value());
}

TEST(TlbFront, InvalidateVaMisses)
{
    Tlb tlb(8);
    Context ctx{1, 3, false};
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    warmFront(tlb, ctx, 0x1000);
    tlb.invalidateVa(1, 0x1000);
    EXPECT_FALSE(tlb.lookup(ctx, 0x1000).has_value());
}

TEST(TlbFront, InvalidateAsidMisses)
{
    Tlb tlb(8);
    Context ctx{1, 3, true};
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    warmFront(tlb, ctx, 0x1000);
    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(ctx, 0x1000).has_value());
}

TEST(TlbFront, InvalidateMpaMisses)
{
    Tlb tlb(8);
    Context a{1, 0, false};
    Context b{2, 4, false};
    tlb.insert(a, 0x1000, {0x5000, true, true});
    tlb.insert(b, 0x7000, {0x5000, true, false}); // Same frame.
    tlb.insert(a, 0x2000, {0x6000, true, true});
    warmFront(tlb, a, 0x1000);
    warmFront(tlb, b, 0x7000);
    warmFront(tlb, a, 0x2000);
    tlb.invalidateMpa(0x5000);
    EXPECT_FALSE(tlb.lookup(a, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(b, 0x7000).has_value());
    EXPECT_TRUE(tlb.lookup(a, 0x2000).has_value()); // Other frame stays.
}

TEST(TlbFront, FlushAllMisses)
{
    Tlb tlb(8);
    Context ctx{1, 0, false};
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    warmFront(tlb, ctx, 0x1000);
    tlb.flushAll();
    EXPECT_FALSE(tlb.lookup(ctx, 0x1000).has_value());
}

TEST(TlbFront, ViewsNeverShareASlot)
{
    // Multi-shadowing through the cache: one asid and VA, three
    // contexts (cloaked view, system view, kernel mode of the system
    // view), three frames. All map to the same front slot; alternating
    // lookups must each get their own context's frame and permissions.
    Tlb tlb(8);
    const GuestVA va = 0x40000;
    const Context cloaked{7, 5, false};
    const Context system{7, systemDomain, false};
    const Context kernel{7, systemDomain, true};
    const ShadowEntry frame_a{0xa000, true, true};
    const ShadowEntry frame_b{0xb000, true, false};
    const ShadowEntry frame_k{0xc000, false, false};
    tlb.insert(cloaked, va, frame_a);
    tlb.insert(system, va, frame_b);
    tlb.insert(kernel, va, frame_k);

    const std::pair<Context, ShadowEntry> order[] = {
        {cloaked, frame_a}, {system, frame_b}, {cloaked, frame_a},
        {kernel, frame_k},  {system, frame_b}, {kernel, frame_k}};
    for (int round = 0; round < 50; ++round) {
        for (const auto& [ctx, want] : order) {
            auto hit = tlb.lookup(ctx, va);
            ASSERT_TRUE(hit.has_value());
            EXPECT_EQ(hit->mpa, want.mpa);
            EXPECT_EQ(hit->canRead, want.canRead);
            EXPECT_EQ(hit->canWrite, want.canWrite);
            // Repeat: the second lookup is served by the front slot.
            hit = tlb.lookup(ctx, va);
            ASSERT_TRUE(hit.has_value());
            EXPECT_EQ(hit->mpa, want.mpa);
            EXPECT_EQ(hit->canWrite, want.canWrite);
        }
    }
    EXPECT_EQ(tlb.stats().value("hits"), 50u * 12u);
    EXPECT_EQ(tlb.stats().value("misses"), 0u);
}

/**
 * Reference TLB: a map plus the insertion order of live keys, evicting
 * the oldest live key when a new key arrives at capacity.
 */
class RefTlb
{
  public:
    using Key = std::tuple<Asid, DomainId, bool, GuestVA>;

    explicit RefTlb(std::size_t capacity) : capacity_(capacity) {}

    std::optional<ShadowEntry>
    lookup(const Context& ctx, GuestVA va)
    {
        auto it = entries_.find(key(ctx, va));
        if (it == entries_.end()) {
            ++misses;
            return std::nullopt;
        }
        ++hits;
        return it->second;
    }

    void
    insert(const Context& ctx, GuestVA va, const ShadowEntry& e)
    {
        Key k = key(ctx, va);
        if (entries_.find(k) == entries_.end()) {
            if (entries_.size() >= capacity_) {
                entries_.erase(order_.front());
                order_.erase(order_.begin());
            }
            order_.push_back(k);
        }
        entries_[k] = e;
    }

    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (pred(it->first, it->second)) {
                order_.erase(std::find(order_.begin(), order_.end(),
                                       it->first));
                it = entries_.erase(it);
            } else {
                ++it;
            }
        }
    }

    std::size_t size() const { return entries_.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    static Key
    key(const Context& c, GuestVA va)
    {
        return {c.asid, c.view, c.kernelMode, va};
    }

    std::size_t capacity_;
    std::map<Key, ShadowEntry> entries_;
    std::vector<Key> order_;
};

/** Per-mille share of each operation; flushAll takes the rest. */
struct OpMix
{
    int lookup;
    int insert;
    int invalidateVa;
    int invalidateMpa;
    int invalidateAsid;
};

/**
 * Drive a Tlb and a RefTlb through the same random operations and
 * require every lookup to agree; returns the reference's hit count and
 * miss count through @p hits / @p misses.
 */
void
runDifferential(std::uint64_t seed, const OpMix& mix, int ops,
                std::uint64_t& hits, std::uint64_t& misses)
{
    constexpr std::size_t capacity = 24;
    constexpr std::uint64_t pages = 192; // 3 VAs per front slot.
    Tlb tlb(capacity);
    RefTlb ref(capacity);
    Rng rng(seed);

    // Mostly a hot set (2 contexts x 8 pages, within capacity) so most
    // lookups hit, with cold contexts and pages mixed in.
    auto randCtx = [&] {
        if (rng.nextBounded(4) != 0)
            return Context{1, static_cast<DomainId>(rng.nextBounded(2)),
                           false};
        return Context{static_cast<Asid>(1 + rng.nextBounded(2)),
                       static_cast<DomainId>(rng.nextBounded(3)),
                       rng.nextBounded(2) == 1};
    };
    auto randVa = [&] {
        std::uint64_t bound = rng.nextBounded(4) == 0 ? pages : 8;
        return rng.nextBounded(bound) * pageSize;
    };
    auto randFrame = [&] {
        return 0x100000 + rng.nextBounded(32) * pageSize;
    };

    const int insert_end = mix.lookup + mix.insert;
    const int va_end = insert_end + mix.invalidateVa;
    const int mpa_end = va_end + mix.invalidateMpa;
    const int asid_end = mpa_end + mix.invalidateAsid;
    for (int op = 0; op < ops; ++op) {
        int r = static_cast<int>(rng.nextBounded(1000));
        if (r < mix.lookup) {
            Context ctx = randCtx();
            GuestVA va = randVa();
            auto got = tlb.lookup(ctx, va);
            auto want = ref.lookup(ctx, va);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "seed " << seed << " op " << op;
            if (got) {
                ASSERT_EQ(got->mpa, want->mpa) << "op " << op;
                ASSERT_EQ(got->canRead, want->canRead) << "op " << op;
                ASSERT_EQ(got->canWrite, want->canWrite) << "op " << op;
            }
        } else if (r < insert_end) {
            Context ctx = randCtx();
            GuestVA va = randVa();
            ShadowEntry e{randFrame(), true, rng.nextBounded(2) == 1};
            tlb.insert(ctx, va, e);
            ref.insert(ctx, va, e);
        } else if (r < va_end) {
            Asid asid = static_cast<Asid>(1 + rng.nextBounded(2));
            GuestVA va = randVa();
            tlb.invalidateVa(asid, va);
            ref.eraseIf([&](const RefTlb::Key& k, const ShadowEntry&) {
                return std::get<0>(k) == asid && std::get<3>(k) == va;
            });
        } else if (r < mpa_end) {
            Mpa frame = randFrame();
            tlb.invalidateMpa(frame);
            ref.eraseIf([&](const RefTlb::Key&, const ShadowEntry& e) {
                return e.mpa == frame;
            });
        } else if (r < asid_end) {
            Asid asid = static_cast<Asid>(1 + rng.nextBounded(2));
            tlb.invalidateAsid(asid);
            ref.eraseIf([&](const RefTlb::Key& k, const ShadowEntry&) {
                return std::get<0>(k) == asid;
            });
        } else {
            tlb.flushAll();
            ref.eraseIf([](const RefTlb::Key&, const ShadowEntry&) {
                return true;
            });
        }
        ASSERT_EQ(tlb.size(), ref.size()) << "seed " << seed << " op "
                                          << op;
    }
    EXPECT_EQ(tlb.stats().value("hits"), ref.hits) << "seed " << seed;
    EXPECT_EQ(tlb.stats().value("misses"), ref.misses) << "seed " << seed;
    hits = ref.hits;
    misses = ref.misses;
}

TEST(TlbFront, RandomizedDifferentialAgainstReference)
{
    // 80% lookups, 12% inserts, 8% invalidations: every insert retires
    // the front cache, so lookups must dominate for slots to stay live
    // long enough that a missed epoch bump would be observed.
    std::uint64_t hits = 0, misses = 0;
    runDifferential(0x7F1B, OpMix{800, 120, 30, 30, 15}, 20000, hits,
                    misses);
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(misses, 1000u);
}

TEST(Tlb, ShootdownHeavyDifferentialAgainstReference)
{
    // 40% lookups, 35% inserts, 25% shootdowns (mostly by VA): keys are
    // invalidated and re-inserted far more often than they age out, the
    // churn that once broke FIFO order (see
    // EvictionAfterInvalidationChurnIsFifo).
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        std::uint64_t hits = 0, misses = 0;
        runDifferential(seed, OpMix{400, 350, 200, 50, 0}, 4000, hits,
                        misses);
        if (HasFatalFailure())
            return;
        EXPECT_GT(hits, 100u) << "seed " << seed;
    }
}

/**
 * Guest OS stub for the Vcpu tests: a flat table of PTEs. A write fault
 * on a present, write-protected page lifts the protection and drops the
 * stale translation, as a COW break does (without the copy); any other
 * fault is a test bug.
 */
class StubOs : public GuestOsHooks
{
  public:
    explicit StubOs(Vmm& vmm) : vmm_(vmm) { vmm_.setGuestOs(this); }

    void
    map(Asid asid, GuestVA va, Gpa gpa)
    {
        ptes_[{asid, pageBase(va)}] =
            GuestPte{pageBase(gpa), true, true, true, false};
    }

    /** Write-protect a page, as the kernel does before a fork. */
    void
    protect(Asid asid, GuestVA va)
    {
        ptes_.at({asid, pageBase(va)}).writable = false;
        vmm_.invalidateVa(asid, va);
    }

    GuestPte
    translateGuest(Asid asid, GuestVA va) override
    {
        auto it = ptes_.find({asid, pageBase(va)});
        return it == ptes_.end() ? GuestPte{} : it->second;
    }

    void
    handleGuestPageFault(Vcpu& vcpu, GuestVA va, AccessType access) override
    {
        Asid asid = vcpu.context().asid;
        auto it = ptes_.find({asid, pageBase(va)});
        if (it == ptes_.end() || access != AccessType::Write ||
            it->second.writable)
            throw ProcessKilled{0, "unexpected guest fault"};
        it->second.writable = true;
        vmm_.invalidateVa(asid, va);
        ++writeFaults;
    }

    std::uint64_t writeFaults = 0;

  private:
    Vmm& vmm_;
    std::map<std::pair<Asid, GuestVA>, GuestPte> ptes_;
};

/** A VMM over the stub OS with `pages` user pages mapped at `base`. */
class VcpuFastPath : public ::testing::Test
{
  protected:
    static constexpr Asid asid = 3;
    static constexpr GuestVA base = 0x40000;
    static constexpr std::uint64_t pages = 40;

    VcpuFastPath() : machine_(smallMachine()), vmm_(machine_, 64), os_(vmm_)
    {
        // Neighbouring VA pages get scattered guest frames, so a
        // page-crossing access that reused one page's frame for both
        // halves would land in the wrong place.
        for (std::uint64_t p = 0; p < pages; ++p)
            os_.map(asid, base + p * pageSize, gpaOf(p));
    }

    static Gpa
    gpaOf(std::uint64_t page)
    {
        return (page * 7 % pages + 1) * pageSize;
    }

    Vcpu userCpu() { return Vcpu(vmm_, Context{asid, systemDomain, false}); }

    /** The machine byte behind a mapped VA, read past every TLB. */
    std::uint8_t
    machineByte(GuestVA va)
    {
        Gpa g = gpaOf(pageNumber(va - base)) + pageOffset(va);
        return machine_.memory().read8(vmm_.pmap().translate(g));
    }

    std::uint64_t
    tlbCount(std::uint32_t cpu, const char* name)
    {
        return vmm_.tlb(cpu).stats().value(name);
    }

    sim::Machine machine_;
    Vmm vmm_;
    StubOs os_;
};

std::uint64_t
loadWidth(Vcpu& cpu, unsigned width, GuestVA va)
{
    switch (width) {
      case 1: return cpu.load8(va);
      case 2: return cpu.load16(va);
      case 4: return cpu.load32(va);
      default: return cpu.load64(va);
    }
}

void
storeWidth(Vcpu& cpu, unsigned width, GuestVA va, std::uint64_t v)
{
    switch (width) {
      case 1: cpu.store8(va, static_cast<std::uint8_t>(v)); break;
      case 2: cpu.store16(va, static_cast<std::uint16_t>(v)); break;
      case 4: cpu.store32(va, static_cast<std::uint32_t>(v)); break;
      default: cpu.store64(va, v); break;
    }
}

TEST_F(VcpuFastPath, PageCrossingAccessesComposeBytes)
{
    Vcpu cpu = userCpu();
    Rng rng(0x5eed);
    const GuestVA edge = base + pageSize; // pages 0 and 1 meet here
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        // Every start from wholly below the edge to wholly above it.
        for (GuestVA va = edge - width; va <= edge; ++va) {
            SCOPED_TRACE(testing::Message() << "width " << width
                                            << " offset "
                                            << pageOffset(va));
            std::uint64_t v = rng.next64() >> (64 - 8 * width);
            storeWidth(cpu, width, va, v);
            std::uint64_t composed = 0;
            for (unsigned i = 0; i < width; ++i) {
                composed |= std::uint64_t{cpu.load8(va + i)} << (8 * i);
                EXPECT_EQ(machineByte(va + i),
                          static_cast<std::uint8_t>(v >> (8 * i)));
            }
            EXPECT_EQ(composed, v);

            std::uint64_t w = rng.next64() >> (64 - 8 * width);
            for (unsigned i = 0; i < width; ++i)
                cpu.store8(va + i, static_cast<std::uint8_t>(w >> (8 * i)));
            EXPECT_EQ(loadWidth(cpu, width, va), w);
        }
    }
}

TEST_F(VcpuFastPath, PreemptHookFiresEveryNUserOps)
{
    Vcpu cpu = userCpu();
    int fired = 0;
    cpu.setPreemptHook(
        [&] {
            ++fired;
            cpu.load64(base); // An access inside the hook never re-fires.
        },
        5);
    for (int i = 0; i < 23; ++i)
        cpu.load64(base + 8 * i);
    EXPECT_EQ(fired, 4);

    cpu.context().kernelMode = true;
    for (int i = 0; i < 50; ++i)
        cpu.store32(base, static_cast<std::uint32_t>(i));
    EXPECT_EQ(fired, 4);

    // Three user ops were left over from before kernel mode.
    cpu.context().kernelMode = false;
    cpu.load8(base);
    EXPECT_EQ(fired, 4);
    cpu.load8(base);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(cpu.opCount(), 23u + 4u + 50u + 2u + 1u);
}

TEST_F(VcpuFastPath, SeededMixAcrossTwoSlotsMatchesMirror)
{
    vmm_.setVcpuCount(2);
    Vcpu slot0 = userCpu();
    Vcpu slot1 = userCpu();
    slot1.setCpu(1);
    std::vector<std::uint8_t> mirror(pages * pageSize, 0);
    Rng rng(0xfa57);

    // Mostly a hot set of six pages, so most accesses hit the front
    // cache; one start in eight sits at a page's end to cross it.
    auto randVa = [&](unsigned width) {
        std::uint64_t page =
            rng.nextBounded(4) == 0 ? rng.nextBounded(pages)
                                    : rng.nextBounded(6);
        std::uint64_t off = rng.nextBounded(8) == 0
                                ? pageSize - 1 - rng.nextBounded(8)
                                : rng.nextBounded(pageSize);
        GuestVA va = base + page * pageSize + off;
        return std::min<GuestVA>(va, base + pages * pageSize - width);
    };

    for (int op = 0; op < 20000; ++op) {
        Vcpu& cpu = rng.nextBounded(2) == 0 ? slot0 : slot1;
        unsigned width = 1u << rng.nextBounded(4);
        int r = static_cast<int>(rng.nextBounded(1000));
        if (r < 450) {
            GuestVA va = randVa(width);
            std::uint64_t want = 0;
            for (unsigned i = 0; i < width; ++i)
                want |= std::uint64_t{mirror[va - base + i]} << (8 * i);
            ASSERT_EQ(loadWidth(cpu, width, va), want) << "op " << op;
        } else if (r < 850) {
            GuestVA va = randVa(width);
            std::uint64_t v = rng.next64();
            storeWidth(cpu, width, va, v);
            for (unsigned i = 0; i < width; ++i)
                mirror[va - base + i] =
                    static_cast<std::uint8_t>(v >> (8 * i));
        } else if (r < 900) {
            os_.protect(asid, randVa(1));
        } else if (r < 940) {
            vmm_.invalidateVa(asid, randVa(1));
        } else if (r < 980) {
            GuestVA va = randVa(1);
            vmm_.invalidateMpa(vmm_.pmap().translate(
                gpaOf(pageNumber(va - base))));
        } else {
            vmm_.invalidateAsid(asid);
        }
    }

    // Recorded before the hit path moved inline; any drift in charges,
    // probes or counters moves one of these.
    EXPECT_EQ(machine_.cost().cycles(), 10103482u);
    EXPECT_EQ(tlbCount(0, "hits"), 5754u);
    EXPECT_EQ(tlbCount(0, "misses"), 4412u);
    EXPECT_EQ(tlbCount(1, "hits"), 5933u);
    EXPECT_EQ(tlbCount(1, "misses"), 4548u);
    EXPECT_GT(os_.writeFaults, 100u);

    for (GuestVA va = base; va < base + pages * pageSize; ++va)
        ASSERT_EQ(machineByte(va), mirror[va - base]) << "va " << va;
}

TEST(Registers, ScrubKeepsSyscallArgs)
{
    RegisterFile regs;
    for (std::size_t i = 0; i < numGprs; ++i)
        regs.gpr[i] = 0x1000 + i;
    regs.pc = 0xdead;
    regs.sp = 0xbeef;
    regs.flags = 0xff;

    regs.scrub(numSyscallRegs, 0x100, 0x200);
    for (std::size_t i = 0; i < numSyscallRegs; ++i)
        EXPECT_EQ(regs.gpr[i], 0x1000 + i);
    for (std::size_t i = numSyscallRegs; i < numGprs; ++i)
        EXPECT_EQ(regs.gpr[i], 0u);
    EXPECT_EQ(regs.pc, 0x100u);
    EXPECT_EQ(regs.sp, 0x200u);
    EXPECT_EQ(regs.flags, 0u);
}

TEST(Registers, FullScrubForInterrupts)
{
    RegisterFile regs;
    regs.gpr[0] = 42;
    regs.gpr[15] = 99;
    regs.scrub(0, 0, 0);
    for (std::size_t i = 0; i < numGprs; ++i)
        EXPECT_EQ(regs.gpr[i], 0u);
}

TEST(Context, HashDistinguishesFields)
{
    std::hash<Context> h;
    Context a{1, 1, false};
    Context b{1, 1, true};
    Context c{1, 2, false};
    Context d{2, 1, false};
    EXPECT_NE(h(a), h(b));
    EXPECT_NE(h(a), h(c));
    EXPECT_NE(h(a), h(d));
    EXPECT_EQ(a, (Context{1, 1, false}));
}

} // namespace
} // namespace osh::vmm
