/**
 * @file
 * Figure F1 — compute-bound workload suite, normalized runtime.
 *
 * Reproduces the paper's SPEC-like figure: each kernel runs on the
 * native baseline and under Overshadow; the bar is cloaked/native
 * runtime. Compute-bound code interacts with the kernel rarely, so the
 * expected shape is overhead within a few percent to ~15% (small
 * workloads pay proportionally more fixed launch cost than the paper's
 * minutes-long runs).
 *
 * Writes BENCH_f1.json (`<kernel>.{native,cloaked}.cycles`) for the
 * perf-regression gate, plus the host wall time of each run (system
 * set-up included) as ungated `host_<kernel>.{native,cloaked}.ns`.
 */

#include "bench_common.hh"

namespace
{

using namespace osh;

struct Case
{
    const char* name;
    std::vector<std::string> argv;
};

} // namespace

int
main()
{
    bench::header("Figure F1: compute suite, normalized runtime "
                  "(cloaked / native)");

    bench::BenchReport report("f1");

    const Case cases[] = {
        {"wl.matmul", {"108"}},
        {"wl.sort", {"65536"}},
        {"wl.stream", {"256", "160"}},
        {"wl.chase", {"8192", "786432"}},
        {"wl.histogram", {"1048576"}},
        {"wl.stencil", {"96", "32"}},
    };

    std::printf("%-14s %14s %14s %10s\n", "kernel", "native(cyc)",
                "cloaked(cyc)", "overhead");
    double worst = 0;
    for (const Case& c : cases) {
        std::uint64_t t0 = bench::hostNowNs();
        Cycles n = bench::runCycles(false, c.name, c.argv);
        std::uint64_t t1 = bench::hostNowNs();
        Cycles k = bench::runCycles(true, c.name, c.argv);
        std::uint64_t t2 = bench::hostNowNs();
        std::string key = c.name;
        report.set(key + ".native.cycles", n);
        report.set(key + ".cloaked.cycles", k);
        report.setHost(key + ".native.ns", t1 - t0);
        report.setHost(key + ".cloaked.ns", t2 - t1);
        double ratio = static_cast<double>(k) / static_cast<double>(n);
        worst = std::max(worst, ratio);
        std::printf("%-14s %14llu %14llu %9.1f%%\n", c.name,
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(k),
                    (ratio - 1.0) * 100.0);
    }
    std::printf("\nworst-case overhead: %.1f%% (paper: compute-bound "
                "workloads stay in the single digits)\n",
                (worst - 1.0) * 100.0);

    report.write();
    return 0;
}
