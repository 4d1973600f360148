/**
 * @file
 * Batched page-crypto API equivalence tests.
 *
 * The contract of CloakEngine::encryptPages / decryptPages /
 * sealPlaintextFrames is that batching is purely an amortization: the
 * bytes written, the metadata transitions (versions, IVs, hashes,
 * states), the victim-cache contents and the simulated cycles charged
 * are all identical to the equivalent per-page sequence. These tests
 * pin that down by running two identically-constructed harnesses side
 * by side — one batched, one sequential — and comparing everything
 * observable, including what happens when integrity verification
 * fails mid-batch. The batch is the per-page loop run under one
 * cipher lookup, so every cost mode (constant-cost responses, chunked
 * integrity) must hold the same contract. The crypto kernel is no
 * part of the contract either: a page sealed on one kernel unseals on
 * any other (crypto/kernel.hh).
 */

#include "cloak/engine.hh"
#include "crypto/kernel.hh"
#include "sim/machine.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace osh::cloak
{
namespace
{

constexpr std::uint64_t numPages = 4;

/** Guest OS stub: fixed page tables, no fault handling. */
class FakeOs : public vmm::GuestOsHooks
{
  public:
    void
    map(Asid asid, GuestVA va, Gpa gpa)
    {
        ptes_[{asid, pageBase(va)}] =
            vmm::GuestPte{pageBase(gpa), true, true, true, false};
    }

    vmm::GuestPte
    translateGuest(Asid asid, GuestVA va) override
    {
        auto it = ptes_.find({asid, pageBase(va)});
        return it == ptes_.end() ? vmm::GuestPte{} : it->second;
    }

    void
    handleGuestPageFault(vmm::Vcpu&, GuestVA va, vmm::AccessType) override
    {
        throw vmm::ProcessKilled{
            0, formatString("unexpected guest fault at 0x%llx",
                            static_cast<unsigned long long>(va))};
    }

  private:
    std::map<std::pair<Asid, GuestVA>, vmm::GuestPte> ptes_;
};

/**
 * Machine + VMM + engine + one domain with a `numPages`-page cloaked
 * region. Two instances built with the same knobs share every seed, so
 * any divergence between them is caused by the operations applied, not
 * the environment.
 */
struct Harness
{
    explicit Harness(std::size_t victim_entries = 0)
        : machine(sim::MachineConfig{256, 7, {}, {}}),
          vmm(machine, 256), engine(vmm, 99, 64)
    {
        vmm.setGuestOs(&os);
        engine.setVictimCacheCapacity(victim_entries);
        domain = engine.createDomain(appAsid, 5,
                                     programIdentity("victim"));
        for (std::uint64_t i = 0; i < numPages; ++i) {
            os.map(appAsid, appVa + i * pageSize, gpa0 + i * pageSize);
            os.map(0, kernelVaOf(gpa0 + i * pageSize),
                   gpa0 + i * pageSize);
        }
        resource = engine.registerRegion(domain, appVa, numPages);
    }

    static GuestVA kernelVaOf(Gpa g) { return 0x800000000000ull + g; }

    vmm::Vcpu
    appCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{appAsid, domain, false});
    }

    vmm::Vcpu
    kernelCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{0, systemDomain, true});
    }

    /** Write one marker word into each page through the app's view. */
    void
    dirtyAll(std::uint64_t salt = 0)
    {
        auto app = appCpu();
        for (std::uint64_t i = 0; i < numPages; ++i)
            app.store64(appVa + i * pageSize, 0xfeed0000 + salt + i);
    }

    Resource&
    res()
    {
        Resource* r = engine.metadata().lookup(resource).valueOr(nullptr);
        EXPECT_NE(r, nullptr);
        return *r;
    }

    /** Work items covering all pages, metadata freshly looked up. */
    std::vector<PageCryptoItem>
    allItems()
    {
        Resource& r = res();
        std::vector<PageCryptoItem> items;
        for (std::uint64_t i = 0; i < numPages; ++i)
            items.push_back({i, &engine.metadata().page(r, i),
                             gpa0 + i * pageSize});
        return items;
    }

    std::vector<std::uint8_t>
    rawFrame(std::uint64_t page)
    {
        auto span = machine.memory().framePlain(
            vmm.pmap().translate(gpa0 + page * pageSize));
        return {span.begin(), span.end()};
    }

    static constexpr Asid appAsid = 5;
    static constexpr GuestVA appVa = 0x10000;
    static constexpr Gpa gpa0 = 0x3000;

    sim::Machine machine;
    vmm::Vmm vmm;
    CloakEngine engine;
    FakeOs os;
    DomainId domain = 0;
    ResourceId resource = 0;
};

/** Everything observable about one page after an operation. */
struct PageObservation
{
    std::vector<std::uint8_t> frame;
    PageState state;
    crypto::Iv iv;
    crypto::Digest hash;
    std::uint64_t version;

    bool
    operator==(const PageObservation& o) const
    {
        return frame == o.frame && state == o.state && iv == o.iv &&
               hash == o.hash && version == o.version;
    }
};

PageObservation
observe(Harness& h, std::uint64_t page)
{
    Resource& r = h.res();
    // Peek at the metadata map directly: no cache charge, so observing
    // never perturbs the cycle comparison.
    const PageMeta& meta = r.pages.at(page);
    return {h.rawFrame(page), meta.state, meta.iv, meta.hash,
            meta.version};
}

TEST(CryptoBatch, EncryptMatchesSequential)
{
    struct Mode
    {
        const char* name;
        bool constantCost;
        bool chunked;
    };
    for (const Mode& mode : {Mode{"default", false, false},
                             Mode{"constant-cost", true, false},
                             Mode{"chunked", false, true}}) {
        SCOPED_TRACE(mode.name);
        Harness batched, sequential;
        for (Harness* h : {&batched, &sequential}) {
            h->engine.setConstantCostMode(mode.constantCost);
            h->engine.setChunkedIntegrity(mode.chunked);
            h->dirtyAll();
        }

        auto bi = batched.allItems();
        batched.engine.encryptPages(batched.res(), bi);

        auto si = sequential.allItems();
        for (std::uint64_t i = 0; i < numPages; ++i)
            sequential.engine.encryptPages(
                sequential.res(),
                std::span<const PageCryptoItem>(&si[i], 1));

        for (std::uint64_t i = 0; i < numPages; ++i) {
            PageObservation b = observe(batched, i);
            EXPECT_EQ(b, observe(sequential, i)) << "page " << i;
            EXPECT_EQ(b.state, PageState::Encrypted);
            EXPECT_EQ(b.version, 1u);
        }
        EXPECT_EQ(batched.machine.cost().cycles(),
                  sequential.machine.cost().cycles());
        EXPECT_EQ(
            batched.engine.stats().counter("batch_encrypt_pages").value(),
            numPages);
    }
}

TEST(CryptoBatch, ConstantCostBatchesChargeWorstCasePerPage)
{
    // Under constant-cost mode a victim-hit decrypt and a victim-hit
    // re-seal of a batch cost exactly what the dirty seal of the same
    // pages did: no cheap path may show through the batch API.
    Harness h(8);
    h.engine.setConstantCostMode(true);
    h.dirtyAll();
    auto charged = [&h](auto op) {
        auto items = h.allItems();
        Resource& r = h.res();
        Cycles before = h.machine.cost().cycles();
        op(r, items);
        return h.machine.cost().cycles() - before;
    };
    auto seal = [&h](Resource& r, auto& items) {
        h.engine.encryptPages(r, items);
    };
    auto unseal = [&h](Resource& r, auto& items) {
        h.engine.decryptPages(r, items);
    };

    const Cycles dirty = charged(seal);
    EXPECT_GE(dirty, numPages * h.engine.worstCaseSealCycles());
    EXPECT_EQ(charged(unseal), dirty);
    EXPECT_EQ(charged(seal), dirty);
    EXPECT_EQ(h.engine.stats().counter("victim_decrypt_hits").value(),
              numPages);
    EXPECT_EQ(h.engine.stats().counter("victim_reencrypt_hits").value(),
              numPages);
}

TEST(CryptoBatch, DecryptMatchesSequential)
{
    Harness batched, sequential;
    for (Harness* h : {&batched, &sequential}) {
        h->dirtyAll();
        auto items = h->allItems();
        h->engine.encryptPages(h->res(), items);
    }

    auto bi = batched.allItems();
    batched.engine.decryptPages(batched.res(), bi);

    auto si = sequential.allItems();
    for (std::uint64_t i = 0; i < numPages; ++i)
        sequential.engine.decryptPages(
            sequential.res(),
            std::span<const PageCryptoItem>(&si[i], 1));

    for (std::uint64_t i = 0; i < numPages; ++i) {
        PageObservation b = observe(batched, i);
        EXPECT_EQ(b, observe(sequential, i)) << "page " << i;
        EXPECT_EQ(b.state, PageState::PlaintextClean);
        // The marker the app wrote is back in plaintext.
        std::uint64_t word;
        std::memcpy(&word, b.frame.data(), sizeof(word));
        EXPECT_EQ(word, 0xfeed0000 + i);
    }
    EXPECT_EQ(batched.machine.cost().cycles(),
              sequential.machine.cost().cycles());
    // Decrypted pages are readable again through the app's view
    // without re-verification trouble.
    auto app = batched.appCpu();
    EXPECT_EQ(app.load64(Harness::appVa), 0xfeed0000u);
}

TEST(CryptoBatch, DirtyReencryptionBumpsVersionsAndIvs)
{
    Harness h;
    h.dirtyAll(0);
    auto items = h.allItems();
    h.engine.encryptPages(h.res(), items);
    std::vector<PageObservation> first;
    for (std::uint64_t i = 0; i < numPages; ++i)
        first.push_back(observe(h, i));

    // Fault the pages back in as writable and re-dirty them.
    h.dirtyAll(0x100);
    auto again = h.allItems();
    h.engine.encryptPages(h.res(), again);

    for (std::uint64_t i = 0; i < numPages; ++i) {
        PageObservation second = observe(h, i);
        EXPECT_EQ(second.version, 2u) << "page " << i;
        EXPECT_NE(second.iv, first[i].iv) << "page " << i;
        EXPECT_NE(second.hash, first[i].hash) << "page " << i;
        EXPECT_NE(second.frame, first[i].frame) << "page " << i;
    }
}

TEST(CryptoBatch, VictimCacheServesBatchedRoundTrips)
{
    Harness h(8);
    h.dirtyAll();
    auto items = h.allItems();
    h.engine.encryptPages(h.res(), items); // fills the victim cache

    auto back = h.allItems();
    h.engine.decryptPages(h.res(), back);
    EXPECT_EQ(h.engine.stats().counter("victim_decrypt_hits").value(),
              numPages);

    // Clean pages going back out: deterministic re-encryption served
    // from the cache, bytes identical to the first seal.
    std::vector<PageObservation> sealed;
    for (std::uint64_t i = 0; i < numPages; ++i)
        sealed.push_back(observe(h, i));
    auto out = h.allItems();
    h.engine.encryptPages(h.res(), out);
    EXPECT_EQ(h.engine.stats().counter("victim_reencrypt_hits").value(),
              numPages);
    for (std::uint64_t i = 0; i < numPages; ++i) {
        PageObservation o = observe(h, i);
        EXPECT_EQ(o.version, 1u);
        EXPECT_EQ(o.iv, sealed[i].iv);
        EXPECT_EQ(o.hash, sealed[i].hash);
    }
}

TEST(CryptoBatch, MidBatchTamperKillsProcess)
{
    Harness h;
    h.dirtyAll();
    auto items = h.allItems();
    h.engine.encryptPages(h.res(), items);

    // The kernel flips a byte in page 2's ciphertext.
    Mpa mpa = h.vmm.pmap().translate(Harness::gpa0 + 2 * pageSize);
    auto frame = h.machine.memory().framePlain(mpa);
    std::uint8_t tampered[8];
    std::memcpy(tampered, frame.data(), sizeof(tampered));
    tampered[0] ^= 0x01;
    h.machine.memory().write64(
        mpa, [&] {
            std::uint64_t w;
            std::memcpy(&w, tampered, sizeof(w));
            return w;
        }());

    auto batch = h.allItems();
    EXPECT_THROW(h.engine.decryptPages(h.res(), batch),
                 vmm::ProcessKilled);

    // Pages before the violation are plaintext, exactly as the
    // sequential loop would have left them; pages after it untouched.
    EXPECT_EQ(h.res().pages.at(0).state, PageState::PlaintextClean);
    EXPECT_EQ(h.res().pages.at(1).state, PageState::PlaintextClean);
    EXPECT_EQ(h.res().pages.at(2).state, PageState::Encrypted);
    EXPECT_EQ(h.res().pages.at(3).state, PageState::Encrypted);
    ASSERT_FALSE(h.engine.auditLog().empty());
    EXPECT_EQ(h.engine.auditLog().back().code,
              CloakError::IntegrityViolation);
    EXPECT_EQ(h.engine.auditLog().back().pageIndex, 2u);
}

TEST(CryptoBatch, SealPlaintextFramesMatchesFaultDrivenSeals)
{
    // The pre-seal hint and the fault-driven foreign-access seal must
    // produce identical ciphertext, metadata and total cycles.
    Harness hinted, faulted;
    hinted.dirtyAll();
    faulted.dirtyAll();

    std::vector<Gpa> gpas;
    for (std::uint64_t i = 0; i < numPages; ++i)
        gpas.push_back(Harness::gpa0 + i * pageSize);
    EXPECT_EQ(hinted.vmm.prepareFramesForKernel(gpas), numPages);
    auto hk = hinted.kernelCpu();
    for (std::uint64_t i = 0; i < numPages; ++i)
        hk.load64(Harness::kernelVaOf(Harness::gpa0 + i * pageSize));

    auto fk = faulted.kernelCpu();
    for (std::uint64_t i = 0; i < numPages; ++i)
        fk.load64(Harness::kernelVaOf(Harness::gpa0 + i * pageSize));

    for (std::uint64_t i = 0; i < numPages; ++i)
        EXPECT_EQ(observe(hinted, i), observe(faulted, i))
            << "page " << i;
    EXPECT_EQ(hinted.machine.cost().cycles(),
              faulted.machine.cost().cycles());
    EXPECT_EQ(hinted.engine.stats().counter("preseal_frames").value(),
              numPages);
    EXPECT_EQ(
        faulted.engine.stats().counter("foreign_plaintext_seals").value(),
        numPages);
}

TEST(CryptoBatch, SealPlaintextFramesIgnoresIrrelevantFrames)
{
    Harness h;
    h.dirtyAll();
    std::vector<Gpa> gpas;
    for (std::uint64_t i = 0; i < numPages; ++i)
        gpas.push_back(Harness::gpa0 + i * pageSize);
    // Uncloaked and out-of-range frames are silently skipped.
    gpas.push_back(0x8000);
    gpas.push_back(0x9000);
    EXPECT_EQ(h.vmm.prepareFramesForKernel(gpas), numPages);
    // A second hint finds everything already sealed: a no-op.
    Cycles before = h.machine.cost().cycles();
    EXPECT_EQ(h.vmm.prepareFramesForKernel(gpas), 0u);
    EXPECT_EQ(h.machine.cost().cycles(), before);
}

/** Both page-crypto primitives on one kernel for the enclosing scope. */
struct KernelScope
{
    explicit KernelScope(crypto::Kernel kernel)
    {
        crypto::Aes128::setKernel(kernel);
        crypto::Sha256::setCompression(kernel);
    }

    ~KernelScope()
    {
        crypto::Aes128::setKernel(crypto::Aes128::defaultKernel());
        crypto::Sha256::setCompression(
            crypto::Sha256::defaultCompression());
    }
};

TEST(CryptoBatch, SealedUnderOneKernelUnsealsUnderAnother)
{
    // Every kernel writes the same ciphertext, IV and MAC and charges
    // the same cycles, and a page sealed on one kernel decrypts and
    // verifies on every other. The hardware kernel joins when the CPU
    // has both extensions; reference and portable run everywhere.
    std::vector<crypto::Kernel> kernels = {crypto::Kernel::Reference,
                                           crypto::Kernel::Portable};
    if (crypto::aesHardwareAvailable() && crypto::shaHardwareAvailable())
        kernels.push_back(crypto::Kernel::Hardware);

    auto seal = [](Harness& h) {
        h.dirtyAll();
        auto items = h.allItems();
        h.engine.encryptPages(h.res(), items);
    };
    Harness anchor;
    {
        KernelScope scope(kernels.front());
        seal(anchor);
    }

    std::optional<Cycles> unsealed_cycles;
    for (crypto::Kernel sealer : kernels) {
        for (crypto::Kernel unsealer : kernels) {
            if (sealer == unsealer)
                continue;
            SCOPED_TRACE(std::string("sealed on ") +
                         crypto::kernelName(sealer) + ", unsealed on " +
                         crypto::kernelName(unsealer));
            Harness h;
            {
                KernelScope scope(sealer);
                seal(h);
            }
            for (std::uint64_t i = 0; i < numPages; ++i) {
                PageObservation sealed = observe(h, i);
                EXPECT_EQ(sealed, observe(anchor, i)) << "page " << i;
                EXPECT_EQ(sealed.state, PageState::Encrypted);
            }
            EXPECT_EQ(h.machine.cost().cycles(),
                      anchor.machine.cost().cycles());

            {
                KernelScope scope(unsealer);
                auto items = h.allItems();
                h.engine.decryptPages(h.res(), items);
            }
            for (std::uint64_t i = 0; i < numPages; ++i) {
                PageObservation plain = observe(h, i);
                EXPECT_EQ(plain.state, PageState::PlaintextClean);
                std::uint64_t word;
                std::memcpy(&word, plain.frame.data(), sizeof(word));
                EXPECT_EQ(word, 0xfeed0000 + i) << "page " << i;
            }
            if (!unsealed_cycles)
                unsealed_cycles = h.machine.cost().cycles();
            EXPECT_EQ(h.machine.cost().cycles(), *unsealed_cycles);
        }
    }
}

} // namespace
} // namespace osh::cloak
