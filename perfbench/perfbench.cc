/**
 * @file
 * Repository benchmark: cloaking overhead and simulator speed, end to
 * end and layer by layer.
 *
 *   perfbench --workload <compute|fileserver|paging|tenants>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * A run repeats *rounds* until --seconds have passed (at least
 * minRounds). A round builds a fresh System, sets it up (construction,
 * program registration, data files, warm-up pass) and then runs one
 * measured phase. The native twin runs the same inputs once with
 * cloaking off; its simulated cycles are the denominator of
 * `slowdown`. Inputs depend only on --seed, so every simulated number
 * repeats bit for bit from round to round and from run to run; host
 * times are reported as medians over rounds, each round's scaled to a
 * reference core by the host speed probes taken around it.
 *
 * Every layer is observed from outside: perfbench reads the stat
 * groups the simulator already exposes, and reads System::cycles() on
 * the host side (never through Sys::Clock, which would charge guest
 * work). Traced runs additionally time perfbench's own calls into
 * os::Env and System in host ns and enable the existing OSH_TRACE
 * spans. Nothing here changes code under src/.
 *
 * Correctness is part of every run: cloaked outputs must equal the
 * native twin's (transparency), server responses and paging loads are
 * checked against host-side mirrors, tenant exit statuses against a
 * host replay, and every round must reproduce round 0's simulated
 * numbers. Each mismatch, kill or syscall error counts as a failed
 * operation; the process exits 1 when any operation failed.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * With --trace 0 it carries the end-to-end metrics, with --trace 1 the
 * per-layer ones (see perfbench/README.md for the metric map).
 */

#include "os/env.hh"
#include "system/system.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace
{

using namespace osh;
using os::Env;

constexpr std::size_t minRounds = 3;
constexpr std::size_t maxRounds = 400;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
splitmix(std::uint64_t& s)
{
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

void
fnvMix(std::uint64_t& h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
}

std::uint64_t
fnvBytes(const std::uint8_t* p, std::size_t n)
{
    std::uint64_t h = fnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

/** Seeded Fisher-Yates shuffle (deterministic for a given stream). */
template <class T>
void
shuffle(std::vector<T>& v, std::uint64_t& s)
{
    using std::swap; // vector<bool> proxies swap through ADL
    for (std::size_t i = v.size(); i > 1; --i)
        swap(v[i - 1], v[splitmix(s) % i]);
}

/** Nearest-rank percentile; 0 for an empty sample. */
std::uint64_t
percentile(std::vector<std::uint64_t> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/**
 * Seconds probeHostSpeed() takes on the reference core: about its
 * median on a 4-vCPU Xeon VM at 2.1 GHz (g++ 12, Release).
 */
constexpr double refProbeS = 0.05;

/**
 * Host speed probe: a fixed loop that runs no simulator code, a
 * splitmix chain (core-bound) and then random read-modify-writes over
 * an 8 MiB table (cache- and memory-bound). Returns its wall seconds.
 * Of the loops tried (each part alone, the second over 512 KiB, and
 * sums of these), this pair tracked the drift of the rounds best.
 *
 * On a shared host the speed of a core drifts by tens of percent over
 * seconds to minutes as other users of the host load the cores, the
 * shared cache and memory. perfbench probes between rounds and scales
 * a round's host times by refProbeS over the mean of the probes just
 * before and after it, so the drift cancels and a faster simulator
 * still reads faster. The table is mapped per call, so it adds nothing
 * to the peak RSS of a round.
 */
double
probeHostSpeed()
{
    constexpr std::size_t words = std::size_t{1} << 20;
    constexpr std::size_t bytes = words * sizeof(std::uint64_t);
    void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        std::perror("perfbench: mmap");
        std::exit(2);
    }
    auto* table = static_cast<std::uint64_t*>(mem);
    std::memset(table, 0, bytes); // fault the table in before timing
    std::uint64_t s = 1;
    std::uint64_t acc = 0;
    std::uint64_t t0 = hostNs();
    for (int i = 0; i < 10'000'000; ++i)
        acc += splitmix(s) >> 3;
    for (int i = 0; i < 5'000'000; ++i) {
        std::uint64_t v = splitmix(s);
        table[v & (words - 1)] += v;
    }
    std::uint64_t t1 = hostNs();
    // Keep both loops' results live so neither is optimized away.
    volatile std::uint64_t sink = acc + table[s & (words - 1)];
    (void)sink;
    munmap(mem, bytes);
    return static_cast<double>(t1 - t0) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

std::uint64_t
argU64(Env& env, std::size_t i)
{
    return std::strtoull(env.args().at(i).c_str(), nullptr, 10);
}

// ---------------------------------------------------------------------------
// Observation from outside the simulator
// ---------------------------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

/** Every public stat group, flattened as "<layer>.<counter>". */
Counters
snapshot(system::System& sys)
{
    Counters c;
    auto add = [&c](const char* layer, const StatGroup& g) {
        for (const auto& [name, value] : g.snapshot())
            c[std::string(layer) + "." + name] += value;
    };
    add("vmm", sys.vmm().stats());
    add("shadow", sys.vmm().shadows().stats());
    // Per-vCPU TLBs fold into one "tlb" group.
    for (std::uint32_t cpu = 0; cpu < sys.vmm().vcpuCount(); ++cpu)
        add("tlb", sys.vmm().tlb(cpu).stats());
    add("kernel", sys.kernel().stats());
    add("sched", sys.sched().stats());
    add("cost", sys.machine().cost().stats());
    if (cloak::CloakEngine* e = sys.cloak()) {
        add("cloak", e->stats());
        add("metadata", e->metadata().stats());
        c["keys.derived"] = e->keys().derivedKeyCount();
    }
    return c;
}

/** Host-ns and sim-cycle samples of one class of timed benchmark calls. */
struct CallSamples
{
    std::vector<std::uint64_t> hostNs;
    std::vector<std::uint64_t> cycles;
};

/** The result of one round (one fresh System, one measured phase). */
struct Round
{
    /** Host seconds, scaled to the reference core (probeHostSpeed). */
    double setupS = 0;
    double wallS = 0;
    Cycles simCycles = 0;
    /** Simulated cycles of each request, issue to completion. */
    std::vector<std::uint64_t> reqCycles;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /** Digest of every guest-visible output (transparency check). */
    std::uint64_t outputs = fnvOffset;
    /** Stat-group deltas over the measured phase. */
    Counters counters;
    std::uint64_t shadowPeakSlots = 0;
    std::uint64_t metaPeakBytes = 0;
    // Traced rounds only.
    std::map<std::string, CallSamples> calls;
    std::uint64_t spansOpened = 0;
    /** Sim cycles inside leaf timed calls. */
    Cycles timedCycles = 0;
    std::map<std::string, std::uint64_t> spanSums;

    /** Count one operation; returns @p ok. */
    bool
    check(bool ok)
    {
        ++ops;
        if (!ok)
            ++failed;
        return ok;
    }
};

/**
 * The measured phase of a round. begin() ends set-up; end() closes the
 * phase. Snapshots are taken outside the host-timed window. Both may
 * run on a guest thread (the paging workload marks its phases from
 * inside the guest program), where the simulation lock is held.
 */
class Phase
{
  public:
    Phase(system::System& sys, Round& round, std::uint64_t setup_start)
        : sys_(sys), round_(round), setupStart_(setup_start)
    {
    }

    void
    begin()
    {
        if (sys_.tracer().enabled())
            sys_.tracer().clear();
        before_ = snapshot(sys_);
        cycles0_ = sys_.cycles();
        host0_ = hostNs();
        round_.setupS = static_cast<double>(host0_ - setupStart_) * 1e-9;
    }

    void
    end()
    {
        std::uint64_t host1 = hostNs();
        round_.wallS = static_cast<double>(host1 - host0_) * 1e-9;
        round_.simCycles = sys_.cycles() - cycles0_;
        Counters after = snapshot(sys_);
        for (const auto& [k, v] : after) {
            auto it = before_.find(k);
            round_.counters[k] = v - (it == before_.end() ? 0 : it->second);
        }
        round_.shadowPeakSlots = sys_.vmm().shadows().peakSlotCount();
        if (cloak::CloakEngine* e = sys_.cloak())
            round_.metaPeakBytes = e->metadata().peakFootprintBytes();
        for (const auto& [key, hist] : sys_.tracer().metrics().histograms())
            round_.spanSums[key.second] += hist.sum();
    }

  private:
    system::System& sys_;
    Round& round_;
    std::uint64_t setupStart_;
    Counters before_;
    Cycles cycles0_ = 0;
    std::uint64_t host0_ = 0;
};

/**
 * RAII timer for one benchmark call into the simulator. A no-op unless
 * the round is traced; then it records host ns and the simulated
 * cycles the call consumed (read host-side, so timing charges nothing).
 */
class Timed
{
  public:
    Timed(system::System& sys, Round& round, bool traced, const char* cls)
        : sys_(traced ? &sys : nullptr), round_(round), cls_(cls)
    {
        if (sys_ != nullptr) {
            serial_ = ++round_.spansOpened;
            cycles0_ = sys_->cycles();
            host0_ = hostNs();
        }
    }

    ~Timed()
    {
        if (sys_ == nullptr)
            return;
        std::uint64_t ns = hostNs() - host0_;
        Cycles dc = sys_->cycles() - cycles0_;
        CallSamples& s = round_.calls[cls_];
        s.hostNs.push_back(ns);
        s.cycles.push_back(dc);
        // Only leaf calls count toward the timed share, so nested
        // calls (a syscall inside System::run) are not counted twice.
        if (round_.spansOpened == serial_)
            round_.timedCycles += dc;
    }

    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

  private:
    system::System* sys_;
    Round& round_;
    const char* cls_;
    std::uint64_t serial_ = 0;
    Cycles cycles0_ = 0;
    std::uint64_t host0_ = 0;
};

struct RoundSpec
{
    std::uint64_t seed = 1;
    bool cloaked = true;
    bool traced = false;
};

system::SystemConfig::Builder
configFor(const RoundSpec& rs)
{
    trace::TraceConfig tc;
    tc.enabled = rs.traced;
    return system::SystemConfig::Builder{}
        .seed(rs.seed)
        .cloaking(rs.cloaked)
        .trace(tc);
}

/** Account every exited process: a kill is a failed operation. */
void
checkNoKills(system::System& sys, Round& r)
{
    for (const auto& [pid, res] : sys.results()) {
        if (res.killed) {
            r.check(false);
            std::fprintf(stderr, "perfbench: pid %d (%s) killed: %s\n",
                         static_cast<int>(pid), res.programName.c_str(),
                         res.killReason.c_str());
        }
    }
}

/** Launch + run one program, timed as benchmark calls when traced. */
const system::ExitResult*
launchAndRun(system::System& sys, Round& r, bool traced,
             const std::string& prog, std::vector<std::string> argv)
{
    Pid pid;
    {
        Timed t(sys, r, traced, "system.launch");
        pid = sys.launch(prog, std::move(argv));
    }
    {
        Timed t(sys, r, traced, "system.run");
        sys.run();
    }
    return sys.resultOf(pid);
}

// ---------------------------------------------------------------------------
// compute: the F1 kernels, cloaked, after a warm-up pass
// ---------------------------------------------------------------------------

struct KernelCase
{
    const char* name;
    std::vector<std::string> warm;
    std::vector<std::string> measured;
};

const std::vector<KernelCase>&
kernelCases()
{
    // Measured sizes are bench_f1_compute's; warm-up sizes are small
    // versions that touch the same code paths.
    static const std::vector<KernelCase> cases = {
        {"wl.matmul", {"24"}, {"108"}},
        {"wl.sort", {"4096"}, {"65536"}},
        {"wl.stream", {"64", "4"}, {"256", "160"}},
        {"wl.chase", {"1024", "8192"}, {"8192", "786432"}},
        {"wl.histogram", {"65536"}, {"1048576"}},
        {"wl.stencil", {"24", "4"}, {"96", "32"}},
    };
    return cases;
}

Round
computeRound(const RoundSpec& rs)
{
    Round r;
    std::uint64_t t0 = hostNs();
    system::System sys(configFor(rs).build());
    workloads::registerAll(sys);
    auto runKernel = [&](const KernelCase& k, bool measured) {
        Cycles c0 = sys.cycles();
        const auto* res = launchAndRun(sys, r, rs.traced && measured,
                                       k.name,
                                       measured ? k.measured : k.warm);
        if (measured)
            r.reqCycles.push_back(sys.cycles() - c0);
        if (!r.check(res != nullptr && !res->killed && res->status == 0))
            return;
        std::string sum = workloads::resultOf(sys, k.name);
        r.check(sum.size() == 16);
        for (char ch : sum)
            fnvMix(r.outputs, static_cast<std::uint8_t>(ch));
    };
    for (const KernelCase& k : kernelCases())
        runKernel(k, false);
    Phase phase(sys, r, t0);
    phase.begin();
    for (const KernelCase& k : kernelCases())
        runKernel(k, true);
    phase.end();
    checkNoKills(sys, r);
    return r;
}

// ---------------------------------------------------------------------------
// fileserver: one closed-loop client, per-call and ring-batched requests
// ---------------------------------------------------------------------------

constexpr std::uint64_t fileBytes = 256 * 1024;
constexpr std::uint64_t maxReqBytes = 64 * 1024;
constexpr std::uint64_t maxDepth = 16;
const char* const filePaths[2] = {"/www/data.bin", "/cloaked/data.bin"};

struct Request
{
    bool write = false;
    bool prot = false;       ///< Protected (shim-emulated) file.
    bool positional = false; ///< pread/pwrite rather than lseek+read/write.
    std::uint32_t size = 0;
    std::uint32_t offset = 0;
    std::uint64_t payloadSeed = 0;
};

struct RequestGroup
{
    std::uint32_t depth = 0; ///< 0 = one per-call request.
    std::vector<Request> reqs;
};

/** @p n seeded pseudo-random bytes (file contents, write payloads). */
std::vector<std::uint8_t>
seededBytes(std::uint64_t seed, std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; i += 8) {
        std::uint64_t v = splitmix(seed);
        std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, n - i));
    }
    return out;
}

/** The bytes a write request carries (the mirror regenerates them). */
std::vector<std::uint8_t>
payloadOf(const Request& q)
{
    return seededBytes(q.payloadSeed, q.size);
}

/** Initial contents of data file @p which (0 = plain, 1 = protected). */
std::vector<std::uint8_t>
initialFile(std::uint64_t seed, int which)
{
    return seededBytes(seed ^ (0xf11e0000ull + static_cast<unsigned>(which)),
                       fileBytes);
}

/**
 * A seeded request mix over a fixed multiset. A request kind is one
 * (size, file, direction) triple: 8 sizes (512 B..64 KiB in powers of
 * two) x 2 files x 5 directions (4 reads : 1 write) = 80 kinds. Each
 * kind appears @p per_call times as a per-call request (alternating
 * lseek+read/write and pread/pwrite) and once as a ring batch of each
 * of @p depths, whose entries share the kind. The seed picks offsets,
 * payloads and the order of all groups, so every seed is a different
 * input while totals and latency percentiles stay put.
 */
std::vector<RequestGroup>
makeServePlan(std::uint64_t& s, std::size_t per_call,
              std::initializer_list<std::uint32_t> depths)
{
    std::vector<RequestGroup> groups;
    for (std::uint32_t kind = 0; kind < 80; ++kind) {
        Request q;
        q.size = 512u << (kind % 8);
        q.prot = (kind / 8) % 2 == 1;
        q.write = kind / 16 == 0;
        auto next = [&s, q](bool positional) {
            Request out = q;
            out.positional = positional;
            out.offset = static_cast<std::uint32_t>(
                splitmix(s) % (fileBytes - q.size + 1));
            out.payloadSeed = splitmix(s);
            return out;
        };
        for (std::size_t i = 0; i < per_call; ++i)
            groups.push_back({0, {next(i % 2 == 0)}});
        for (std::uint32_t depth : depths) {
            RequestGroup g{depth, {}};
            for (std::uint32_t i = 0; i < depth; ++i)
                g.reqs.push_back(next(true));
            groups.push_back(std::move(g));
        }
    }
    shuffle(groups, s);
    return groups;
}

/** What the server hands back per request, in plan order. */
struct ServeLog
{
    /** Read: FNV of the bytes served. Write: bytes written. */
    std::vector<std::uint64_t> responses;
    std::vector<std::uint64_t> latencies;
};

/**
 * Serve @p plan from guest program context through the open data files
 * @p fds, staging in @p bufs (one 64 KiB slot per batch entry).
 * Responses are hashed from guest memory (charged like any guest
 * read); a request's latency is the simulated cycles from issuing its
 * syscall(s) to their return.
 */
void
serve(Env& env, system::System& sys, Round& r, bool traced,
      const std::vector<RequestGroup>& plan, ServeLog& log,
      const std::int64_t (&fds)[2], GuestVA bufs)
{
    std::vector<std::uint8_t> host(maxReqBytes);

    auto stage = [&](const Request& q, GuestVA buf) {
        if (q.write) {
            std::vector<std::uint8_t> p = payloadOf(q);
            env.writeBytes(buf, p);
        }
    };
    auto respond = [&](const Request& q, GuestVA buf, std::int64_t got) {
        if (q.write || got != static_cast<std::int64_t>(q.size)) {
            log.responses.push_back(static_cast<std::uint64_t>(got));
            return;
        }
        std::span<std::uint8_t> out(host.data(), q.size);
        env.readBytes(buf, out);
        log.responses.push_back(fnvBytes(host.data(), q.size));
    };

    for (const RequestGroup& g : plan) {
        if (g.depth == 0) {
            const Request& q = g.reqs[0];
            auto fd = static_cast<std::uint64_t>(fds[q.prot ? 1 : 0]);
            stage(q, bufs);
            Cycles c0 = sys.cycles();
            std::int64_t got;
            if (q.positional) {
                Timed t(sys, r, traced, q.write ? "pwrite" : "pread");
                got = q.write ? env.pwrite(fd, bufs, q.size, q.offset)
                              : env.pread(fd, bufs, q.size, q.offset);
            } else {
                env.lseek(fd, q.offset, os::seekSet);
                Timed t(sys, r, traced, q.write ? "write" : "read");
                got = q.write ? env.write(fd, bufs, q.size)
                              : env.read(fd, bufs, q.size);
            }
            log.latencies.push_back(sys.cycles() - c0);
            respond(q, bufs, got);
            continue;
        }
        std::vector<os::BatchEntry> entries;
        for (std::size_t i = 0; i < g.reqs.size(); ++i) {
            const Request& q = g.reqs[i];
            GuestVA buf = bufs + i * maxReqBytes;
            stage(q, buf);
            entries.push_back(
                {q.write ? os::Sys::Pwrite : os::Sys::Pread,
                 {static_cast<std::uint64_t>(fds[q.prot ? 1 : 0]), buf,
                  q.size, q.offset}});
        }
        std::vector<std::int64_t> results;
        Cycles c0 = sys.cycles();
        std::int64_t done;
        {
            Timed t(sys, r, traced, "submit_batch");
            done = env.submitBatch(entries, results);
        }
        Cycles lat = sys.cycles() - c0;
        for (std::size_t i = 0; i < g.reqs.size(); ++i) {
            log.latencies.push_back(lat);
            std::int64_t got =
                done == static_cast<std::int64_t>(g.reqs.size()) &&
                        i < results.size()
                    ? results[i]
                    : -1;
            respond(g.reqs[i], bufs + i * maxReqBytes, got);
        }
    }
}

/** Replay @p plan against host mirrors of both files. */
void
verifyServe(const std::vector<RequestGroup>& plan, const ServeLog& log,
            std::vector<std::uint8_t> (&files)[2], Round& r)
{
    std::size_t i = 0;
    for (const RequestGroup& g : plan) {
        for (const Request& q : g.reqs) {
            std::vector<std::uint8_t>& f = files[q.prot ? 1 : 0];
            std::uint64_t expect;
            if (q.write) {
                std::vector<std::uint8_t> p = payloadOf(q);
                std::copy(p.begin(), p.end(), f.begin() + q.offset);
                expect = q.size;
            } else {
                expect = fnvBytes(f.data() + q.offset, q.size);
            }
            bool ok = i < log.responses.size() && log.responses[i] == expect;
            r.check(ok);
            if (ok)
                fnvMix(r.outputs, expect);
            ++i;
        }
    }
}

Round
fileserverRound(const RoundSpec& rs)
{
    Round r;
    std::uint64_t t0 = hostNs();
    system::System sys(configFor(rs).build());

    std::uint64_t s = rs.seed ^ 0x5e7e5e7eull;
    const std::vector<RequestGroup> warm = makeServePlan(s, 1, {4});
    const std::vector<RequestGroup> measured =
        makeServePlan(s, 8, {1, 4, 8, 16});
    std::vector<std::uint8_t> mirror[2] = {initialFile(rs.seed, 0),
                                           initialFile(rs.seed, 1)};
    ServeLog warm_log, log;
    std::uint64_t file_sums[2] = {0, 0};
    bool opened = false;
    Phase phase(sys, r, t0);

    // Protected files are sealed to the program identity, so one
    // program does every step; argv[0] selects which.
    auto populate = [&](Env& env) {
        env.mkdir("/www");
        env.mkdir("/cloaked");
        GuestVA page = env.allocPages(1);
        for (int f = 0; f < 2; ++f) {
            std::int64_t fd = env.open(
                filePaths[f], os::openCreate | os::openWrite | os::openTrunc);
            if (fd < 0)
                return 1;
            for (std::uint64_t off = 0; off < fileBytes; off += pageSize) {
                env.writeBytes(page, std::span<const std::uint8_t>(
                                         mirror[f].data() + off, pageSize));
                if (env.write(static_cast<std::uint64_t>(fd), page,
                              pageSize) != static_cast<std::int64_t>(pageSize))
                    return 2;
            }
            env.close(static_cast<std::uint64_t>(fd));
        }
        return 0;
    };
    auto checkFiles = [&](Env& env) {
        GuestVA buf = env.allocPages(maxReqBytes / pageSize);
        std::vector<std::uint8_t> all(fileBytes);
        for (int f = 0; f < 2; ++f) {
            std::int64_t fd = env.open(filePaths[f], os::openRead);
            if (fd < 0)
                return 1;
            for (std::uint64_t off = 0; off < fileBytes; off += maxReqBytes) {
                if (env.pread(static_cast<std::uint64_t>(fd), buf,
                              maxReqBytes, off) !=
                    static_cast<std::int64_t>(maxReqBytes))
                    return 2;
                env.readBytes(buf, std::span<std::uint8_t>(all.data() + off,
                                                           maxReqBytes));
            }
            env.close(static_cast<std::uint64_t>(fd));
            file_sums[f] = fnvBytes(all.data(), all.size());
        }
        return 0;
    };
    // The server warms up in the process that then serves the measured
    // plan, so the protected file's pages are already decrypted and the
    // staging slots faulted in when the phase starts (a closed file is
    // sealed again).
    auto serveStep = [&](Env& env) {
        std::int64_t fds[2];
        for (int f = 0; f < 2; ++f)
            fds[f] = env.open(filePaths[f], os::openRead | os::openWrite);
        opened = fds[0] >= 0 && fds[1] >= 0;
        if (!opened)
            return 1;
        GuestVA bufs = env.allocPages(maxDepth * maxReqBytes / pageSize);
        for (std::uint64_t off = 0; off < maxDepth * maxReqBytes;
             off += pageSize)
            env.store64(bufs + off, 0);
        for (std::int64_t fd : fds)
            for (std::uint64_t off = 0; off < fileBytes; off += maxReqBytes)
                env.pread(static_cast<std::uint64_t>(fd), bufs, maxReqBytes,
                          off);
        serve(env, sys, r, false, warm, warm_log, fds, bufs);
        phase.begin();
        serve(env, sys, r, rs.traced, measured, log, fds, bufs);
        phase.end();
        for (std::int64_t fd : fds)
            env.close(static_cast<std::uint64_t>(fd));
        return 0;
    };
    sys.addProgram("pb.fileserver", {[&](Env& env) {
                       const std::string& step = env.args().at(0);
                       if (step == "populate")
                           return populate(env);
                       if (step == "check")
                           return checkFiles(env);
                       return serveStep(env);
                   },
                                     true});

    auto exitedOk = [&](const system::ExitResult* res) {
        return r.check(res != nullptr && !res->killed && res->status == 0);
    };
    exitedOk(launchAndRun(sys, r, false, "pb.fileserver", {"populate"}));
    exitedOk(launchAndRun(sys, r, false, "pb.fileserver", {"serve"}));
    r.check(opened);
    r.reqCycles = log.latencies;
    verifyServe(warm, warm_log, mirror, r);
    verifyServe(measured, log, mirror, r);

    exitedOk(launchAndRun(sys, r, false, "pb.fileserver", {"check"}));
    for (int f = 0; f < 2; ++f) {
        std::uint64_t expect = fnvBytes(mirror[f].data(), mirror[f].size());
        r.check(file_sums[f] == expect);
        fnvMix(r.outputs, expect);
    }
    checkNoKills(sys, r);
    return r;
}

// ---------------------------------------------------------------------------
// paging: random-order touches over 1.25x guest frames, swap warm
// ---------------------------------------------------------------------------

constexpr std::uint64_t pagingWords = 8; ///< Words touched per page.
constexpr std::uint64_t pagingMeasuredPasses = 3;

struct Touch
{
    std::uint32_t page = 0;
    std::uint8_t word = 0;
    bool rmw = false;
};

/** One pass: every page once in seeded order, exactly half RMW. */
std::vector<Touch>
makePass(std::uint64_t pages, std::uint64_t& s)
{
    std::vector<Touch> pass(pages);
    std::vector<bool> rmw(pages);
    for (std::uint64_t p = 0; p < pages; ++p) {
        pass[p].page = static_cast<std::uint32_t>(p);
        rmw[p] = p % 2 == 0;
    }
    shuffle(pass, s);
    shuffle(rmw, s);
    for (std::uint64_t p = 0; p < pages; ++p) {
        pass[p].rmw = rmw[p];
        pass[p].word = static_cast<std::uint8_t>(splitmix(s) % pagingWords);
    }
    return pass;
}

std::uint64_t
rmwValue(std::uint64_t v)
{
    return v * fnvPrime + 1;
}

Round
pagingRound(const RoundSpec& rs)
{
    Round r;
    std::uint64_t t0 = hostNs();
    system::System sys(configFor(rs).build());
    const std::uint64_t pages = sys.config().guestFrames * 5 / 4;

    std::uint64_t s = rs.seed ^ 0x9a9e9a9eull;
    std::vector<std::uint64_t> init(pages * pagingWords);
    for (std::uint64_t& w : init)
        w = splitmix(s);
    std::vector<Touch> warm = makePass(pages, s);
    std::vector<Touch> measured;
    for (std::uint64_t i = 0; i < pagingMeasuredPasses; ++i) {
        std::vector<Touch> pass = makePass(pages, s);
        measured.insert(measured.end(), pass.begin(), pass.end());
    }

    std::vector<std::uint64_t> loads;
    loads.reserve(warm.size() + measured.size());
    Phase phase(sys, r, t0);
    const bool traced = rs.traced;

    sys.addProgram("pb.paging", {[&](Env& env) {
                       GuestVA buf = env.allocPages(pages);
                       for (std::uint64_t p = 0; p < pages; ++p)
                           for (std::uint64_t w = 0; w < pagingWords; ++w)
                               env.store64(buf + p * pageSize + w * 8,
                                           init[p * pagingWords + w]);
                       auto touch = [&](const Touch& t) {
                           GuestVA va = buf + t.page * pageSize + t.word * 8;
                           std::uint64_t v = env.load64(va);
                           if (t.rmw)
                               env.store64(va, rmwValue(v));
                           loads.push_back(v);
                       };
                       for (const Touch& t : warm)
                           touch(t);
                       phase.begin();
                       for (const Touch& t : measured) {
                           Cycles c0 = sys.cycles();
                           {
                               Timed tm(sys, r, traced, "touch");
                               touch(t);
                           }
                           r.reqCycles.push_back(sys.cycles() - c0);
                       }
                       phase.end();
                       return 0;
                   },
                                 true});

    const auto* res = launchAndRun(sys, r, false, "pb.paging", {});
    r.check(res != nullptr && !res->killed && res->status == 0);

    // Host mirror: every load must return what the replay predicts.
    std::size_t i = 0;
    for (const auto* list : {&warm, &measured}) {
        for (const Touch& t : *list) {
            std::uint64_t& w = init[t.page * pagingWords + t.word];
            bool ok = i < loads.size() && loads[i] == w;
            r.check(ok);
            fnvMix(r.outputs, w);
            if (t.rmw)
                w = rmwValue(w);
            ++i;
        }
    }
    checkNoKills(sys, r);
    return r;
}

// ---------------------------------------------------------------------------
// tenants: waves of 24 short-lived cloaked processes on 4 vCPUs
// ---------------------------------------------------------------------------

constexpr std::uint64_t waveWidth = 24;
constexpr std::uint64_t measuredWaves = 40;
constexpr std::uint64_t tenantPages = 2;

/** The work a tenant does on its private pages (guest and mirror). */
std::uint64_t
tenantStream(std::uint64_t seed, std::uint64_t idx)
{
    return seed ^ (idx * 0x9e3779b97f4a7c15ull) ^ 0x7e4a47ull;
}

/** Host-side mirror of pb.tenant's exit status. */
int
tenantExpected(std::uint64_t seed, std::uint64_t idx, bool forks)
{
    std::uint64_t s = tenantStream(seed, idx);
    std::uint64_t words = tenantPages * pageSize / 8;
    std::uint64_t h = fnvOffset;
    std::uint64_t first = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
        std::uint64_t v = splitmix(s);
        if (i == 0)
            first = v;
        if (i % 7 == 0)
            fnvMix(h, v);
    }
    if (!forks)
        return static_cast<int>(h & 0x3f);
    std::uint64_t reply = first ^ h;
    int child = static_cast<int>((reply >> 8) & 0x3f);
    return static_cast<int>((h ^ reply ^ static_cast<std::uint64_t>(child)) &
                            0x3f);
}

Round
tenantsRound(const RoundSpec& rs)
{
    Round r;
    std::uint64_t t0 = hostNs();
    // A short tick (as in bench_scale) makes the tenants of a wave
    // genuinely interleave across the vCPUs.
    system::System sys(
        configFor(rs).vcpus(4).preemptOpsPerTick(500).build());

    const std::uint64_t total = (measuredWaves + 1) * waveWidth;
    std::uint64_t s = rs.seed ^ 0x7e7a7e7aull;
    // Exactly a quarter of every wave forks; the seed picks which.
    std::vector<bool> forks;
    for (std::uint64_t w = 0; w * waveWidth < total; ++w) {
        std::vector<bool> wave(waveWidth);
        for (std::uint64_t i = 0; i < waveWidth; ++i)
            wave[i] = i % 4 == 0;
        shuffle(wave, s);
        forks.insert(forks.end(), wave.begin(), wave.end());
    }

    sys.addProgram("pb.tenant", {[&](Env& env) {
                       std::uint64_t idx = argU64(env, 0);
                       GuestVA buf = env.allocPages(tenantPages);
                       std::uint64_t st = tenantStream(rs.seed, idx);
                       std::uint64_t words = tenantPages * pageSize / 8;
                       for (std::uint64_t i = 0; i < words; ++i)
                           env.store64(buf + i * 8, splitmix(st));
                       std::uint64_t h = fnvOffset;
                       for (std::uint64_t i = 0; i < words; i += 7)
                           fnvMix(h, env.load64(buf + i * 8));
                       int status = static_cast<int>(h & 0x3f);
                       if (forks[idx]) {
                           int rfd = -1, wfd = -1;
                           if (env.pipe(rfd, wfd) != 0)
                               return 100;
                           Pid child = env.fork([buf, h, wfd](Env& c) {
                               // Reply from the COW-shared page: the
                               // store breaks COW, the write marshals.
                               std::uint64_t v = c.load64(buf) ^ h;
                               c.store64(buf + 8, v);
                               if (c.write(static_cast<std::uint64_t>(wfd),
                                           buf + 8, 8) != 8)
                                   return 99;
                               return static_cast<int>((v >> 8) & 0x3f);
                           });
                           if (child < 0)
                               return 101;
                           if (env.read(static_cast<std::uint64_t>(rfd),
                                        buf + 16, 8) != 8)
                               return 102;
                           std::uint64_t reply = env.load64(buf + 16);
                           int cst = -1;
                           if (env.waitpid(child, &cst) != child)
                               return 103;
                           status = static_cast<int>(
                               (h ^ reply ^ static_cast<std::uint64_t>(cst)) &
                               0x3f);
                       }
                       return status;
                   },
                                 true});

    // A request is one wave: 24 launches until the last exit. (A single
    // tenant's launch-to-exit time mostly measures its place in the
    // wave's dispatch order, which the seed reshuffles.)
    auto runWave = [&](std::uint64_t first, bool measured) {
        const bool traced = rs.traced && measured;
        Cycles c0 = sys.cycles();
        std::vector<std::pair<Pid, std::uint64_t>> wave;
        for (std::uint64_t i = first; i < first + waveWidth; ++i) {
            Timed t(sys, r, traced, "system.launch");
            wave.emplace_back(
                sys.launch("pb.tenant", {std::to_string(i)}), i);
        }
        {
            Timed t(sys, r, traced, "system.run_wave");
            sys.run();
        }
        if (measured)
            r.reqCycles.push_back(sys.cycles() - c0);
        for (const auto& [pid, idx] : wave) {
            const system::ExitResult* res = sys.resultOf(pid);
            int expect = tenantExpected(rs.seed, idx, forks[idx]);
            bool ok = r.check(res != nullptr && !res->killed &&
                              res->status == expect);
            fnvMix(r.outputs, ok ? static_cast<std::uint64_t>(expect)
                                 : ~0ull);
        }
        // Release finished host threads so host memory stays bounded.
        Timed t(sys, r, traced, "system.reap");
        sys.sched().reapFinished();
    };

    runWave(measuredWaves * waveWidth, false); // warm-up wave
    Phase phase(sys, r, t0);
    phase.begin();
    for (std::uint64_t w = 0; w < measuredWaves; ++w)
        runWave(w * waveWidth, true);
    phase.end();
    checkNoKills(sys, r);
    return r;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Workload
{
    const char* name;
    Round (*round)(const RoundSpec&);
};

const Workload workloadTable[] = {
    {"compute", computeRound},
    {"fileserver", fileserverRound},
    {"paging", pagingRound},
    {"tenants", tenantsRound},
};

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

std::uint64_t
counter(const Round& r, const std::string& key)
{
    auto it = r.counters.find(key);
    return it == r.counters.end() ? 0 : it->second;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::vector<Metric>
endToEnd(const std::vector<Round>& plain, const Round& native,
         double peak_rss_mb)
{
    std::vector<double> setup, wall;
    for (const Round& r : plain) {
        setup.push_back(r.setupS);
        wall.push_back(r.wallS);
    }
    const Round& r0 = plain.front();
    return {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(wall), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_cycles", static_cast<double>(r0.simCycles), "cycles"},
        {"slowdown",
         ratio(static_cast<double>(r0.simCycles),
               static_cast<double>(native.simCycles)),
         "x"},
        {"req_p50_cycles",
         static_cast<double>(percentile(r0.reqCycles, 50)), "cycles"},
        {"req_p99_cycles",
         static_cast<double>(percentile(r0.reqCycles, 99)), "cycles"},
    };
}

std::vector<Metric>
perLayer(const std::vector<Round>& plain, const std::vector<Round>& traced,
         const Round& native)
{
    std::vector<double> wall, traced_wall;
    for (const Round& r : plain)
        wall.push_back(r.wallS);
    for (const Round& r : traced)
        traced_wall.push_back(r.wallS);
    const double wall_s = median(wall);
    const Round& t = traced.front();
    auto c = [&t](const char* key) {
        return static_cast<double>(counter(t, key));
    };
    // Host-ns samples pool over every traced round; simulated cycles
    // repeat exactly, so round 0's are all of them.
    auto samples = [&traced](const std::string& cls, bool host) {
        std::vector<std::uint64_t> out;
        for (const Round& r : traced) {
            auto it = r.calls.find(cls);
            if (it == r.calls.end())
                continue;
            const auto& v = host ? it->second.hostNs : it->second.cycles;
            out.insert(out.end(), v.begin(), v.end());
            if (!host)
                break;
        }
        return out;
    };
    auto pct = [&samples](const std::string& cls, bool host, double p) {
        return static_cast<double>(percentile(samples(cls, host), p));
    };

    const double lookups = c("tlb.hits") + c("tlb.misses");
    const double fills = c("shadow.installs");
    const double reactivations = c("shadow.reactivations");
    const double encrypts = c("cloak.page_encrypts");
    const double decrypts = c("cloak.page_decrypts");
    const double clean = c("cloak.clean_reencrypts");
    const double victim_seal = c("cloak.victim_reencrypt_hits");
    const double victim_unseal = c("cloak.victim_decrypt_hits");
    const double seals = encrypts + clean + victim_seal;
    const double meta_hit = c("cost.metadata_hit");
    const double meta_miss = c("cost.metadata_miss");
    const double page = static_cast<double>(pageSize);

    std::vector<Metric> m = {
        {"vmm.tlb.lookups", lookups, "count"},
        {"vmm.tlb.hit_ratio", ratio(c("tlb.hits"), lookups), "ratio"},
        {"sim.mem_ops_per_host_s", ratio(lookups, wall_s), "1/s"},
        {"vmm.shadow.fills", fills, "count"},
        {"vmm.shadow.retention_ratio",
         ratio(reactivations, reactivations + fills), "ratio"},
        {"vmm.world_switches", c("vmm.world_switches"), "count"},
        {"vmm.shadow.peak_slots", static_cast<double>(t.shadowPeakSlots),
         "count"},
        {"cloak.metadata.peak_bytes", static_cast<double>(t.metaPeakBytes),
         "bytes"},
        {"cloak.page_encrypts", encrypts, "count"},
        {"cloak.page_decrypts", decrypts, "count"},
        {"crypto.bytes_sealed", (encrypts + clean) * page, "bytes"},
        {"crypto.bytes_unsealed", decrypts * page, "bytes"},
        {"cloak.clean_skip_ratio", ratio(clean, seals), "ratio"},
        {"cloak.victim_hit_ratio",
         ratio(victim_seal + victim_unseal, seals + decrypts + victim_unseal),
         "ratio"},
        {"cloak.metadata.miss_ratio",
         ratio(meta_miss, meta_hit + meta_miss), "ratio"},
    };
    for (const char* cls : {"read", "pread", "write", "pwrite",
                            "submit_batch"}) {
        std::string base = std::string("cloak.syscall.") + cls;
        m.push_back({base + ".host_ns.p50", pct(cls, true, 50), "ns"});
        m.push_back({base + ".host_ns.p99", pct(cls, true, 99), "ns"});
        m.push_back({base + ".cycles.p50", pct(cls, false, 50), "cycles"});
        m.push_back({base + ".cycles.p99", pct(cls, false, 99), "cycles"});
    }
    const double batches = c("kernel.batches");
    std::vector<Metric> rest = {
        {"os.batch.entries_per_submit",
         ratio(c("kernel.batched_syscalls"), batches), "count"},
        {"os.syscalls", c("cost.syscall"), "count"},
        {"os.pagecache_fills", c("kernel.pagecache_fills"), "count"},
        {"os.swap_ins", c("kernel.swap_ins"), "count"},
        {"os.swap_outs", c("cost.swap_out"), "count"},
        {"os.page_faults", c("kernel.page_faults"), "count"},
        {"crypto.keys.derived", c("keys.derived"), "count"},
        {"cloak.domains_created", c("cloak.domains_created"), "count"},
        {"os.forks", c("kernel.forks"), "count"},
        {"os.cow_breaks", c("kernel.cow_breaks"), "count"},
        {"os.sched.dispatches", c("sched.dispatches"), "count"},
        {"os.sched.cpu_migrations", c("sched.cpu_migrations"), "count"},
        {"os.context_switches", c("cost.context_switch"), "count"},
        {"system.launch.host_ns.p50", pct("system.launch", true, 50), "ns"},
        {"system.launch.host_ns.p99", pct("system.launch", true, 99), "ns"},
        {"system.run_wave.host_ns.p50", pct("system.run_wave", true, 50),
         "ns"},
        {"system.run_wave.host_ns.p99", pct("system.run_wave", true, 99),
         "ns"},
        {"system.reap.host_ns", pct("system.reap", true, 50), "ns"},
        {"native.wall_s", native.wallS, "s"},
        {"trace.overhead", ratio(median(traced_wall), wall_s), "x"},
        {"trace.timed_share",
         ratio(static_cast<double>(t.timedCycles),
               static_cast<double>(t.simCycles)),
         "ratio"},
        {"req.count", static_cast<double>(t.reqCycles.size()), "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    // Cycle totals the existing OSH_TRACE spans record (no new spans).
    for (const char* span : {"secure_syscall", "hidden_fault",
                             "page_encrypt", "page_decrypt"}) {
        auto it = t.spanSums.find(span);
        m.push_back({std::string("trace.") + span + ".cycles_sum",
                     it == t.spanSums.end()
                         ? 0.0
                         : static_cast<double>(it->second),
                     "cycles"});
    }
    return m;
}

/** Deterministic fingerprint of a round's simulated results. */
bool
sameSimulation(const Round& a, const Round& b)
{
    return a.simCycles == b.simCycles && a.reqCycles == b.reqCycles &&
           a.counters == b.counters && a.outputs == b.outputs &&
           a.shadowPeakSlots == b.shadowPeakSlots &&
           a.metaPeakBytes == b.metaPeakBytes;
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<compute|fileserver|paging|tenants> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || args.size() != 4 || !args.count("--workload") ||
        !args.count("--seed") || !args.count("--seconds") ||
        !args.count("--trace"))
        return usage();
    const Workload* wl = nullptr;
    for (const Workload& w : workloadTable)
        if (args["--workload"] == w.name)
            wl = &w;
    char* end = nullptr;
    std::uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
    if (wl == nullptr || *end != '\0')
        return usage();
    double seconds = std::strtod(args["--seconds"].c_str(), &end);
    if (*end != '\0' || !(seconds > 0))
        return usage();
    const std::string& trace_arg = args["--trace"];
    if (trace_arg != "0" && trace_arg != "1")
        return usage();
    const bool trace = trace_arg == "1";

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u build=%s compiler=%s\n",
                wl->name, static_cast<unsigned long long>(seed), seconds,
                trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
    std::fflush(stdout);

    // System seeds are 1-based offsets of --seed, so seed 0 is valid.
    const std::uint64_t sys_seed = seed + 1;
    const std::uint64_t deadline =
        hostNs() + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<Round> plain, traced;
    // One core for the whole process: the probe then times the core the
    // rounds run on, and guest-thread handoffs never cross cores.
    cpu_set_t one_cpu;
    CPU_ZERO(&one_cpu);
    CPU_SET(std::max(sched_getcpu(), 0), &one_cpu);
    sched_setaffinity(0, sizeof one_cpu, &one_cpu);
    probeHostSpeed(); // warm-up: the first call also pays for cold code
    double probe = probeHostSpeed();
    std::vector<double> probes{probe};
    auto scaledRound = [&](const RoundSpec& spec) {
        Round r = wl->round(spec);
        double next = probeHostSpeed();
        double scale = refProbeS / ((probe + next) / 2);
        probe = next;
        probes.push_back(next);
        r.setupS *= scale;
        r.wallS *= scale;
        return r;
    };
    auto cloakedRounds = [&] {
        plain.push_back(scaledRound({sys_seed, true, false}));
        if (trace)
            traced.push_back(scaledRound({sys_seed, true, true}));
    };
    cloakedRounds();
    // Peak RSS is read after the first cloaked round: later rounds reuse
    // heap that earlier ones freed, which would only add allocator noise.
    const double peak_rss_mb = peakRssMb();
    Round native = scaledRound({sys_seed, false, false});
    // Start another round only if it is expected to finish in time, so
    // a run lasts about --seconds whatever the round length.
    const std::uint64_t loop_start = hostNs();
    for (std::uint64_t n = 1; plain.size() < maxRounds; ++n) {
        cloakedRounds();
        std::uint64_t now = hostNs();
        if (plain.size() >= minRounds &&
            now + (now - loop_start) / n > deadline)
            break;
    }

    std::uint64_t attempted = native.ops;
    std::uint64_t failed = native.failed;
    for (const auto* list : {&plain, &traced}) {
        for (const Round& r : *list) {
            attempted += r.ops;
            failed += r.failed;
            // Every round, traced or not, must reproduce round 0.
            ++attempted;
            if (!sameSimulation(r, plain.front())) {
                ++failed;
                std::fprintf(stderr, "perfbench: round diverged from "
                                     "round 0 (nondeterminism)\n");
            }
        }
    }
    ++attempted;
    if (native.outputs != plain.front().outputs) {
        ++failed;
        std::fprintf(stderr, "perfbench: cloaked outputs differ from the "
                             "native twin\n");
    }

    std::printf("# rounds=%zu traced_rounds=%zu requests_per_round=%zu "
                "sim_cycles=%llu native_sim_cycles=%llu probe_s=%.4f "
                "ref_probe_s=%.4f\n",
                plain.size(), traced.size(), plain.front().reqCycles.size(),
                static_cast<unsigned long long>(plain.front().simCycles),
                static_cast<unsigned long long>(native.simCycles),
                median(probes), refProbeS);
    printJson(failed == 0, attempted, failed,
              trace ? perLayer(plain, traced, native)
                    : endToEnd(plain, native, peak_rss_mb));
    return failed == 0 ? 0 : 1;
}
