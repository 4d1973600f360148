/**
 * @file
 * Crypto pipeline microbenchmarks — host throughput and batch cost.
 *
 * The first output line, `# crypto kernels: aes=<k> sha=<k>`, names the
 * kernels this process runs by default (crypto/kernel.hh): hardware
 * when the CPU has AES-NI / SHA-NI, portable otherwise. Everything
 * below except the per-kernel table runs on those.
 *
 * Three independent sections:
 *
 *  1. Host wall-time: the real cost of page crypto on this machine,
 *     measured for the default pipeline (multi-block CTR, HMAC key
 *     midstates, default kernels) and for the reference pipeline
 *     (both primitives on Kernel::Reference, per-call HMAC pad
 *     hashing).
 *
 *  2. Host throughput per kernel: AES-CTR over a 4 KiB page and
 *     SHA-256 of a 4 KiB page on each kernel the CPU supports
 *     (`host_kernel.<kernel>.{ctr_page,sha256_page}.mb_s`); the
 *     hardware rows are skipped on a CPU without the extension.
 *
 *     Each host number is the median of five timed repeats after a
 *     warm-up. Host numbers vary by machine and are recorded under
 *     `host_` keys, which bench/compare.py reports but never gates.
 *
 *  3. Simulated cycles: the engine-level batched page-crypto API
 *     (encryptPages / decryptPages / sealPlaintextFrames) measured
 *     against the equivalent per-page sequence. The batch API is
 *     documented to charge byte-identical simulated cost; this bench
 *     asserts that and writes both totals to BENCH_crypto.json so the
 *     perf harness (bench/compare.py) pins them.
 *
 * `--quick` shrinks the host-time iteration counts for sanitizer CI;
 * the simulated-cycle metrics are iteration-count-fixed and identical
 * either way.
 */

#include "bench_common.hh"

#include "cloak/engine.hh"
#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "crypto/kernel.hh"
#include "crypto/sha256.hh"
#include "sim/machine.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace
{

using namespace osh;

// ---------------------------------------------------------------------------
// Section 1: host wall-time, reference vs default crypto pipeline
// ---------------------------------------------------------------------------

/** Run @p f with both primitives on @p aes / @p sha, then restore. */
template <typename F>
auto
onKernels(crypto::Kernel aes, crypto::Kernel sha, F&& f)
{
    crypto::Kernel prev_aes = crypto::Aes128::kernel();
    crypto::Kernel prev_sha = crypto::Sha256::compression();
    crypto::Aes128::setKernel(aes);
    crypto::Sha256::setCompression(sha);
    auto result = f();
    crypto::Aes128::setKernel(prev_aes);
    crypto::Sha256::setCompression(prev_sha);
    return result;
}

/** One measured host-side operation over `bytes` bytes per call. */
struct HostResult
{
    std::uint64_t nsPerOp = 0;
    std::uint64_t mbPerSec = 0;
};

/** Timed repeats per host measurement; the median is reported. */
constexpr int hostRepeats = 5;

/**
 * Warm up, then time @p iters calls of @p op hostRepeats times and
 * report the median repeat. A single loop lasts a few milliseconds, so
 * one preemption or clock change lands whole in the result; the median
 * drops such a repeat.
 */
template <typename F>
HostResult
measureHost(std::size_t bytes_per_op, int iters, F&& op)
{
    for (int i = 0; i < iters / 8 + 1; ++i)
        op(i);
    std::array<std::uint64_t, hostRepeats> times{};
    for (std::uint64_t& t : times) {
        std::uint64_t t0 = bench::hostNowNs();
        for (int i = 0; i < iters; ++i)
            op(i);
        t = bench::hostNowNs() - t0;
    }
    std::nth_element(times.begin(), times.begin() + hostRepeats / 2,
                     times.end());
    std::uint64_t elapsed = times[hostRepeats / 2];
    HostResult r;
    r.nsPerOp = elapsed / static_cast<std::uint64_t>(iters);
    r.mbPerSec = bench::mbPerSec(
        bytes_per_op * static_cast<std::uint64_t>(iters), elapsed);
    return r;
}

/**
 * Page encrypt + MAC exactly as the cloak engine does it: AES-CTR over
 * the 4 KiB page under a fresh-ish IV, then SHA-256 over the 40-byte
 * identity header plus the ciphertext.
 */
HostResult
measurePageEncryptMac(const crypto::Aes128& aes, int iters)
{
    std::array<std::uint8_t, pageSize> page{};
    std::array<std::uint8_t, 40> header{};
    crypto::Iv iv{};
    return measureHost(pageSize, iters, [&](int i) {
        iv[0] = static_cast<std::uint8_t>(i);
        page[0] = static_cast<std::uint8_t>(i);
        crypto::aesCtrXcryptInPlace(aes, iv, page);
        header[0] = static_cast<std::uint8_t>(i);
        crypto::Sha256 h;
        h.update(header);
        h.update(page);
        auto d = h.final();
        page[1] = d[0]; // keep the digest live
    });
}

/** Page decrypt + verify: hash the ciphertext, then CTR-decrypt. */
HostResult
measurePageDecryptVerify(const crypto::Aes128& aes, int iters)
{
    std::array<std::uint8_t, pageSize> page{};
    std::array<std::uint8_t, 40> header{};
    crypto::Iv iv{};
    return measureHost(pageSize, iters, [&](int i) {
        iv[0] = static_cast<std::uint8_t>(i);
        crypto::Sha256 h;
        h.update(header);
        h.update(page);
        auto d = h.final();
        page[1] = d[0];
        crypto::aesCtrXcryptInPlace(aes, iv, page);
    });
}

/**
 * Metadata-bundle MAC. The reference path constructs the HMAC key per
 * call (the pre-optimization interface re-hashed the ipad/opad blocks
 * every time); the optimized path reuses a prepared HmacKey midstate.
 */
HostResult
measureHmacSeal(std::span<const std::uint8_t> bundle, bool midstate,
                int iters)
{
    std::array<std::uint8_t, 32> key_bytes{};
    key_bytes[0] = 0x5e;
    crypto::HmacKey prepared{std::span<const std::uint8_t>(key_bytes)};
    return measureHost(bundle.size(), iters, [&](int i) {
        crypto::Digest d =
            midstate ? crypto::hmacSha256(prepared, bundle)
                     : crypto::hmacSha256(key_bytes, bundle);
        key_bytes[1] = static_cast<std::uint8_t>(d[0] + i);
    });
}

void
reportHostPair(bench::BenchReport& report, const char* name,
               const HostResult& ref, const HostResult& opt)
{
    std::uint64_t speedup_x100 =
        opt.nsPerOp == 0 ? 0 : ref.nsPerOp * 100 / opt.nsPerOp;
    std::printf("  %-24s %8llu ns  %6llu MB/s   -> %8llu ns  %6llu "
                "MB/s   (%llu.%02llux)\n",
                name,
                static_cast<unsigned long long>(ref.nsPerOp),
                static_cast<unsigned long long>(ref.mbPerSec),
                static_cast<unsigned long long>(opt.nsPerOp),
                static_cast<unsigned long long>(opt.mbPerSec),
                static_cast<unsigned long long>(speedup_x100 / 100),
                static_cast<unsigned long long>(speedup_x100 % 100));
    std::string key(name);
    report.setHost("ref." + key + ".ns", ref.nsPerOp);
    report.setHost("ref." + key + ".mb_s", ref.mbPerSec);
    report.setHost("opt." + key + ".ns", opt.nsPerOp);
    report.setHost("opt." + key + ".mb_s", opt.mbPerSec);
    report.setHost("speedup." + key + "_x100", speedup_x100);
}

void
runHostSection(bench::BenchReport& report, bool quick)
{
    const int page_iters = quick ? 64 : 2048;
    const int mac_iters = quick ? 256 : 8192;

    crypto::AesKey key{};
    key[0] = 1;
    crypto::Aes128 aes(key);

    // A metadata bundle the size sealFileResource produces for a
    // 16-page file resource (16 + 32 + 16 * 65 bytes).
    std::vector<std::uint8_t> bundle(16 + 32 + 16 * 65, 0x3c);

    bench::header("Host wall-time: reference vs default pipeline");
    std::printf("  %-24s %-25s -> %-25s\n", "operation",
                "reference", "default kernels");

    struct Pipeline
    {
        HostResult encrypt, decrypt, mac;
    };
    const Pipeline ref = onKernels(
        crypto::Kernel::Reference, crypto::Kernel::Reference, [&] {
            return Pipeline{measurePageEncryptMac(aes, page_iters),
                            measurePageDecryptVerify(aes, page_iters),
                            measureHmacSeal(bundle, false, mac_iters)};
        });
    reportHostPair(report, "page_encrypt_mac", ref.encrypt,
                   measurePageEncryptMac(aes, page_iters));
    reportHostPair(report, "page_decrypt_verify", ref.decrypt,
                   measurePageDecryptVerify(aes, page_iters));
    reportHostPair(report, "hmac_seal_1k", ref.mac,
                   measureHmacSeal(bundle, true, mac_iters));
}

// ---------------------------------------------------------------------------
// Section 2: host throughput of each kernel
// ---------------------------------------------------------------------------

void
runKernelSection(bench::BenchReport& report, bool quick)
{
    const int page_iters = quick ? 64 : 2048;

    crypto::AesKey key{};
    key[0] = 2;
    crypto::Aes128 aes(key);
    std::array<std::uint8_t, pageSize> page{};

    bench::header("Host throughput per kernel (4 KiB page)");
    std::printf("  %-10s %14s %14s\n", "kernel", "aes-ctr MB/s",
                "sha-256 MB/s");
    for (crypto::Kernel k :
         {crypto::Kernel::Reference, crypto::Kernel::Portable,
          crypto::Kernel::Hardware}) {
        bool hw = k == crypto::Kernel::Hardware;
        bool has_aes = !hw || crypto::aesHardwareAvailable();
        bool has_sha = !hw || crypto::shaHardwareAvailable();
        std::string base = std::string("kernel.") + crypto::kernelName(k);
        std::string aes_col = "n/a (no AES-NI)";
        std::string sha_col = "n/a (no SHA-NI)";
        if (has_aes) {
            // Only the AES kernel moves; SHA stays on its default.
            HostResult r = onKernels(
                k, crypto::Sha256::compression(), [&] {
                    return measureHost(pageSize, page_iters, [&](int i) {
                        crypto::Iv iv{};
                        iv[0] = static_cast<std::uint8_t>(i);
                        crypto::aesCtrXcryptInPlace(aes, iv, page);
                    });
                });
            report.setHost(base + ".ctr_page.mb_s", r.mbPerSec);
            aes_col = std::to_string(r.mbPerSec);
        }
        if (has_sha) {
            HostResult r = onKernels(crypto::Aes128::kernel(), k, [&] {
                return measureHost(pageSize, page_iters, [&](int) {
                    crypto::Digest d = crypto::Sha256::hash(page);
                    page[0] = d[0]; // keep the digest live
                });
            });
            report.setHost(base + ".sha256_page.mb_s", r.mbPerSec);
            sha_col = std::to_string(r.mbPerSec);
        }
        std::printf("  %-10s %14s %14s\n", crypto::kernelName(k),
                    aes_col.c_str(), sha_col.c_str());
    }
}

// ---------------------------------------------------------------------------
// Section 3: simulated cycles, batched vs per-page engine API
// ---------------------------------------------------------------------------

/** Minimal guest OS for driving the engine directly. */
class BenchOs : public vmm::GuestOsHooks
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
    handleGuestPageFault(vmm::Vcpu&, GuestVA, vmm::AccessType) override
    {
        osh_panic("unexpected guest fault in bench harness");
    }

  private:
    std::map<std::pair<Asid, GuestVA>, vmm::GuestPte> ptes_;
};

constexpr std::uint64_t benchPages = 32;

/**
 * Engine harness with a `benchPages`-page cloaked region. Fast paths
 * are off (no shadow retention, no victim cache) so every seal and
 * decrypt pays the full AES + SHA cost — the quantity the batch API is
 * supposed to leave untouched.
 */
struct Harness
{
    Harness()
        : machine(sim::MachineConfig{512, 1, {}, {}}), vmm(machine, 512),
          engine(vmm, 7, 4096)
    {
        vmm.setGuestOs(&os);
        vmm.setShadowRetention(false);
        engine.setVictimCacheCapacity(0);
        domain = engine.createDomain(appAsid, 1,
                                     cloak::programIdentity("bench"));
        for (std::uint64_t i = 0; i < benchPages; ++i) {
            os.map(appAsid, appVa + i * pageSize, gpa0 + i * pageSize);
            os.map(0, kernelVa + i * pageSize, gpa0 + i * pageSize);
        }
        resource = engine.registerRegion(domain, appVa, benchPages);
    }

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

    static constexpr Asid appAsid = 3;
    static constexpr GuestVA appVa = 0x10000;
    static constexpr Gpa gpa0 = 0x4000;
    static constexpr GuestVA kernelVa = 0x0000'8000'0000'0000ull + gpa0;

    sim::Machine machine;
    vmm::Vmm vmm;
    cloak::CloakEngine engine;
    BenchOs os;
    DomainId domain = 0;
    ResourceId resource = 0;
};

struct Ctx
{
    Ctx() : app(h.appCpu()), kernel(h.kernelCpu()) {}

    /** Touch every page for writing: all plaintext-dirty afterwards. */
    void
    dirtyAll()
    {
        for (std::uint64_t i = 0; i < benchPages; ++i)
            app.store64(Harness::appVa + i * pageSize, ++scratch);
    }

    std::array<Gpa, benchPages>
    gpas() const
    {
        std::array<Gpa, benchPages> v{};
        for (std::uint64_t i = 0; i < benchPages; ++i)
            v[i] = Harness::gpa0 + i * pageSize;
        return v;
    }

    Harness h;
    vmm::Vcpu app;
    vmm::Vcpu kernel;
    std::uint64_t scratch = 0;
};

/**
 * Fixed warmup + fixed iterations, like bench_t1: deterministic
 * averages, independent of host speed.
 */
std::uint64_t
fixedCycles(const std::function<void(Ctx&)>& prep,
            const std::function<void(Ctx&)>& op)
{
    constexpr int warmup = 2;
    constexpr int iters = 4;
    Ctx ctx;
    for (int i = 0; i < warmup; ++i) {
        prep(ctx);
        op(ctx);
    }
    Cycles total = 0;
    for (int i = 0; i < iters; ++i) {
        prep(ctx);
        Cycles before = ctx.h.machine.cost().cycles();
        op(ctx);
        total += ctx.h.machine.cost().cycles() - before;
    }
    return total / iters;
}

void
runSimSection(bench::BenchReport& report)
{
    bench::header("Simulated cycles: batched vs per-page engine API");

    // Seal 32 dirty pages for the kernel: per-page faults vs one
    // prepareFramesForKernel hint. Contract: identical cycles.
    std::uint64_t seal_single = fixedCycles(
        [](Ctx& c) { c.dirtyAll(); },
        [](Ctx& c) {
            for (std::uint64_t i = 0; i < benchPages; ++i)
                c.kernel.load64(Harness::kernelVa + i * pageSize);
        });
    std::uint64_t seal_batch = fixedCycles(
        [](Ctx& c) { c.dirtyAll(); },
        [](Ctx& c) {
            auto gpas = c.gpas();
            c.h.vmm.prepareFramesForKernel(gpas);
            for (std::uint64_t i = 0; i < benchPages; ++i)
                c.kernel.load64(Harness::kernelVa + i * pageSize);
        });

    // Decrypt 32 sealed pages back into the app's view: one
    // decryptPages batch vs 32 single-item calls. Contract: identical.
    auto seal_all = [](Ctx& c) {
        c.dirtyAll();
        auto gpas = c.gpas();
        c.h.vmm.prepareFramesForKernel(gpas);
    };
    auto build_items = [](Ctx& c, cloak::Resource*& res) {
        res = c.h.engine.metadata().lookup(c.h.resource).valueOr(nullptr);
        osh_assert(res != nullptr, "bench resource exists");
        std::array<cloak::PageCryptoItem, benchPages> items{};
        for (std::uint64_t i = 0; i < benchPages; ++i) {
            items[i].pageIndex = i;
            items[i].meta = &c.h.engine.metadata().page(*res, i);
            items[i].gpa = Harness::gpa0 + i * pageSize;
        }
        return items;
    };
    std::uint64_t decrypt_single = fixedCycles(seal_all, [&](Ctx& c) {
        cloak::Resource* res = nullptr;
        auto items = build_items(c, res);
        for (std::uint64_t i = 0; i < benchPages; ++i)
            c.h.engine.decryptPages(
                *res, std::span<const cloak::PageCryptoItem>(
                          &items[i], 1));
    });
    std::uint64_t decrypt_batch = fixedCycles(seal_all, [&](Ctx& c) {
        cloak::Resource* res = nullptr;
        auto items = build_items(c, res);
        c.h.engine.decryptPages(*res, items);
    });

    std::printf("  seal %llu dirty pages:    per-page faults %llu "
                "cycles, batched hint %llu cycles\n",
                static_cast<unsigned long long>(benchPages),
                static_cast<unsigned long long>(seal_single),
                static_cast<unsigned long long>(seal_batch));
    std::printf("  decrypt %llu pages:       single-item calls %llu "
                "cycles, one batch %llu cycles\n",
                static_cast<unsigned long long>(benchPages),
                static_cast<unsigned long long>(decrypt_single),
                static_cast<unsigned long long>(decrypt_batch));

    // The batch API's documented contract. A divergence here is a bug,
    // not a tuning choice — fail loudly before the JSON is compared.
    osh_assert(seal_single == seal_batch,
               "batched seal must charge identical simulated cycles");
    osh_assert(decrypt_single == decrypt_batch,
               "batched decrypt must charge identical simulated cycles");

    report.set("seal_single_32.sim_cycles", seal_single);
    report.set("seal_batch_32.sim_cycles", seal_batch);
    report.set("decrypt_single_32.sim_cycles", decrypt_single);
    report.set("decrypt_batch_32.sim_cycles", decrypt_batch);
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 1;
        }
    }

    std::printf("# crypto kernels: aes=%s sha=%s\n",
                osh::crypto::kernelName(osh::crypto::Aes128::kernel()),
                osh::crypto::kernelName(
                    osh::crypto::Sha256::compression()));

    osh::bench::BenchReport report("crypto");
    runHostSection(report, quick);
    runKernelSection(report, quick);
    runSimSection(report);
    report.write();
    return 0;
}
