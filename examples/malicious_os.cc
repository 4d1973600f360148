/**
 * @file
 * Demo: a hostile operating system versus Overshadow.
 *
 * Runs the same secret-holding application twice — once native, once
 * cloaked — under a kernel whose attack hooks (a) snoop application
 * memory on every trap, (b) record register files at syscall entry,
 * and (c) tamper with pages it swaps out. The output shows the paper's
 * claims side by side: natively everything leaks and corruption is
 * silent; cloaked, the kernel sees only ciphertext and tampering is
 * detected. The exit status is non-zero unless that contrast holds.
 */

#include "os/attack_hooks.hh"
#include "os/env.hh"
#include "system/system.hh"
#include "workloads/workloads.hh"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace osh;
using os::Env;

namespace
{

constexpr std::uint64_t secret = 0x5ec2e7c0de5ec2e7ull;
constexpr GuestVA secretVa = os::stackTop - 512;

/** The hostile kernel: every attack is wired through os::AttackHooks. */
class HostileKernel : public os::AttackHooks
{
  public:
    /** Snoop secretVa and record the trap frame on every syscall. */
    bool snoop = false;
    /** Flip the first byte of every page written to swap. */
    bool tamperSwap = false;

    std::vector<std::vector<std::uint8_t>> snoopedData;
    std::vector<vmm::RegisterFile> trapFrames;

    void
    onSyscallEntry(os::Kernel& kernel, os::Thread& t) override
    {
        if (!snoop)
            return;
        trapFrames.push_back(t.vcpu.regs());
        if (kernel.validUserRange(kernel.currentProcess(), secretVa, 64,
                                  false)) {
            std::vector<std::uint8_t> peek(64);
            t.vcpu.readBytes(secretVa, peek);
            snoopedData.push_back(std::move(peek));
        }
    }

    void
    onSwapOut(os::Kernel& kernel, os::SwapSlot slot,
              std::uint64_t) override
    {
        if (tamperSwap)
            kernel.swap().rawSlot(slot)[0] ^= 0xff;
    }
};

int
victimMain(Env& env)
{
    env.store64(secretVa, secret);
    env.regs().gpr[9] = secret; // secret also lives in a register
    for (int i = 0; i < 8; ++i)
        env.getpid(); // each trap lets the kernel snoop
    if (env.load64(secretVa) != secret)
        return 1;
    if (env.regs().gpr[9] != secret)
        return 2;
    return 0;
}

/** Did the kernel's snooping and trap-frame probes see the secret? */
struct SnoopOutcome
{
    bool snooped = false;
    bool memLeak = false;
    bool regLeak = false;
};

SnoopOutcome
runScenario(bool cloaked)
{
    std::printf("\n--- %s run ---\n",
                cloaked ? "OVERSHADOW (cloaked)" : "NATIVE");
    HostileKernel hostile;
    hostile.snoop = true;
    system::System sys(
        system::SystemConfig::Builder{}.cloaking(cloaked).build());
    sys.kernel().setAttackHooks(&hostile);

    sys.addProgram("victim", os::Program{victimMain, true, 64});
    auto r = sys.runProgram("victim");
    std::printf("victim exited: status=%d%s\n", r.status,
                r.killed ? " (killed)" : "");

    SnoopOutcome out;
    out.snooped = !hostile.snoopedData.empty() && !hostile.trapFrames.empty();
    for (const auto& bytes : hostile.snoopedData) {
        std::uint64_t v;
        std::memcpy(&v, bytes.data(), 8);
        out.memLeak |= v == secret;
    }
    for (const auto& f : hostile.trapFrames) {
        for (std::size_t i = 0; i < vmm::numGprs; ++i)
            out.regLeak |= f.gpr[i] == secret;
    }
    std::printf("kernel snooped %zu memory samples: %s\n",
                hostile.snoopedData.size(),
                out.memLeak ? "SECRET LEAKED" : "ciphertext only");
    std::printf("kernel recorded %zu trap frames:   %s\n",
                hostile.trapFrames.size(),
                out.regLeak ? "SECRET LEAKED" : "registers scrubbed");
    return out;
}

/** Run the paging workload with the swap-tampering kernel on or off. */
system::ExitResult
runMemstress(bool cloaked, bool tamper, std::string* checksum)
{
    HostileKernel hostile;
    hostile.tamperSwap = tamper;
    auto cfg = system::SystemConfig::Builder{}
                   .cloaking(cloaked)
                   .guestFrames(96) // force paging of the 200-page set
                   .build();
    system::System sys(cfg);
    workloads::registerAll(sys);
    sys.kernel().setAttackHooks(&hostile);
    auto r = sys.runProgram("wl.memstress", {"200", "2"});
    *checksum = workloads::resultOf(sys, "wl.memstress");
    return r;
}

/**
 * Returns true when the outcome is the one Overshadow promises for
 * this mode: detection when cloaked, silent corruption (a completed
 * run whose checksum differs from an untampered one) when native.
 */
bool
runTamperScenario(bool cloaked)
{
    std::printf("\n--- swap tampering, %s ---\n",
                cloaked ? "OVERSHADOW (cloaked)" : "NATIVE");
    std::string checksum;
    auto r = runMemstress(cloaked, true, &checksum);
    if (r.killed) {
        std::printf("application terminated: %s\n",
                    r.killReason.c_str());
        std::printf("=> tampering DETECTED before any corrupt data "
                    "was consumed\n");
        return cloaked &&
               r.killReason.rfind("cloak violation", 0) == 0;
    }
    std::printf("application completed \"successfully\" "
                "(status %d)\n", r.status);
    std::printf("=> it silently computed with CORRUPTED data "
                "(checksum %s)\n", checksum.c_str());
    std::string clean;
    runMemstress(cloaked, false, &clean);
    return !cloaked && r.status == 0 && checksum != clean;
}

} // namespace

int
main()
{
    std::printf("Overshadow demo: running a secret-holding app under "
                "an actively hostile OS\n");
    SnoopOutcome native = runScenario(false);
    SnoopOutcome cloaked = runScenario(true);
    bool native_silent = runTamperScenario(false);
    bool cloaked_detected = runTamperScenario(true);
    std::printf("\ndone.\n");

    bool contrast = native.snooped && native.memLeak && native.regLeak &&
                    cloaked.snooped && !cloaked.memLeak &&
                    !cloaked.regLeak && native_silent && cloaked_detected;
    if (!contrast) {
        std::fprintf(stderr, "malicious_os: the native/cloaked contrast "
                             "did not hold\n");
        return 1;
    }
    return 0;
}
