/**
 * @file
 * Figure F3 — process-creation-heavy "build" workload.
 *
 * Reproduces the paper's worst case: a parallel-compilation-style
 * driver that spawns one process per task. Under Overshadow every
 * spawn pays domain setup, shim initialization and eager encryption of
 * the parent's cloaked pages, so the slowdown here is the largest of
 * any workload — a several-fold factor, matching the paper's
 * fork/exec-heavy results.
 *
 * Writes BENCH_f3.json (`f3.tasksN.{native,cloaked}.cycles`) for the
 * perf-regression gate.
 */

#include "bench_common.hh"

int
main()
{
    using namespace osh;
    bench::header("Figure F3: build workload (spawn-per-task)");

    bench::BenchReport report("f3");

    std::printf("%-8s %14s %14s %10s\n", "tasks", "native(cyc)",
                "cloaked(cyc)", "slowdown");
    for (std::uint64_t tasks : {1, 2, 4, 8, 16}) {
        std::vector<std::string> argv = {std::to_string(tasks), "16"};
        Cycles n = bench::runCycles(false, "wl.build", argv, 8192);
        Cycles c = bench::runCycles(true, "wl.build", argv, 8192);
        std::string key = "f3.tasks" + std::to_string(tasks);
        report.set(key + ".native.cycles", n);
        report.set(key + ".cloaked.cycles", c);
        std::printf("%-8llu %14llu %14llu %9.2fx\n",
                    static_cast<unsigned long long>(tasks),
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(c),
                    static_cast<double>(c) / static_cast<double>(n));
    }
    std::printf("\n(paper shape: the process-creation path is "
                "Overshadow's most expensive)\n");

    report.write();
    return 0;
}
