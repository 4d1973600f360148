/**
 * @file
 * Shim-focused integration tests: the three syscall adaptation classes
 * (pass-through, marshalled, emulated), protected-file edge cases, and
 * at-rest ciphertext tampering.
 */

#include "cloak/engine.hh"
#include "os/env.hh"
#include "system/system.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

namespace osh
{
namespace
{

using os::Env;
using system::System;
using system::SystemConfig;

SystemConfig
cloakedConfig(bool cloaked = true)
{
    SystemConfig cfg;
    cfg.cloakingEnabled = cloaked;
    cfg.guestFrames = 1024;
    cfg.preemptOpsPerTick = 0;
    return cfg;
}

system::ExitResult
runCloaked(System& sys, std::function<int(Env&)> body)
{
    sys.addProgram("shimtest", os::Program{std::move(body), true, 64});
    return sys.runProgram("shimtest");
}

TEST(ShimMarshal, DirectoryOperations)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        if (env.mkdir("/dir") != 0)
            return 1;
        std::int64_t f =
            env.open("/dir/one", os::openCreate | os::openWrite);
        if (f < 0)
            return 2;
        env.close(f);
        if (env.rename("/dir/one", "/dir/two") != 0)
            return 3;
        std::int64_t d = env.open("/dir", os::openRead);
        std::string name;
        if (env.readdir(d, 0, name) < 0 || name != "two")
            return 4;
        env.close(d);
        if (env.unlink("/dir/two") != 0)
            return 5;
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimMarshal, FstatThroughBounce)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        std::int64_t f = env.open("/f", os::openCreate | os::openWrite);
        env.writeAll(f, "12345");
        os::StatBuf sb{};
        if (env.fstat(f, sb) != 0)
            return 1;
        env.close(f);
        return sb.size == 5 && sb.isDir == 0 ? 0 : 2;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimMarshal, PipesBetweenCloakedProcesses)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        int rfd = -1, wfd = -1;
        if (env.pipe(rfd, wfd) != 0)
            return 1;
        Pid child = env.fork([rfd, wfd](Env& c) {
            c.close(static_cast<std::uint64_t>(wfd));
            std::string got = c.readSome(
                static_cast<std::uint64_t>(rfd), 64);
            return got == "marshalled hello" ? 17 : 1;
        });
        env.close(static_cast<std::uint64_t>(rfd));
        env.yield();
        env.writeAll(static_cast<std::uint64_t>(wfd),
                     "marshalled hello");
        env.close(static_cast<std::uint64_t>(wfd));
        int status = -1;
        env.waitpid(child, &status);
        return status == 17 ? 0 : 2;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimMarshal, LargeReadsChunkThroughBounce)
{
    // Reads far larger than the bounce area must still round-trip.
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        const std::uint64_t bytes = 48 * pageSize; // > bounce size
        std::int64_t f = env.open("/big", os::openCreate |
                                              os::openRead |
                                              os::openWrite);
        GuestVA buf = env.allocPages(bytes / pageSize);
        for (GuestVA off = 0; off < bytes; off += 8)
            env.store64(buf + off, off * 31 + 7);
        if (env.write(f, buf, bytes) !=
            static_cast<std::int64_t>(bytes))
            return 1;
        env.lseek(f, 0, os::seekSet);
        GuestVA back = env.allocPages(bytes / pageSize);
        if (env.read(f, back, bytes) !=
            static_cast<std::int64_t>(bytes))
            return 2;
        for (GuestVA off = 0; off < bytes; off += 4096) {
            if (env.load64(back + off) != off * 31 + 7)
                return 3;
        }
        env.close(f);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, SeekModesAndEof)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/s", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "abcdefgh");
        if (env.lseek(f, -3, os::seekEnd) != 5)
            return 1;
        if (env.readSome(f, 8) != "fgh")
            return 2;
        if (env.lseek(f, 2, os::seekSet) != 2)
            return 3;
        if (env.lseek(f, 1, os::seekCur) != 3)
            return 4;
        if (env.readSome(f, 2) != "de")
            return 5;
        // Read at EOF.
        env.lseek(f, 0, os::seekEnd);
        GuestVA b = env.allocPages(1);
        if (env.read(f, b, 8) != 0)
            return 6;
        // Negative seek rejected.
        if (env.lseek(f, -100, os::seekSet) != -os::errInval)
            return 7;
        env.close(f);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, FtruncateGrowsButNeverShrinks)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/t", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "data");
        if (env.ftruncate(f, 2) != -os::errInval)
            return 1; // shrink unsupported on protected files
        if (env.ftruncate(f, 3 * pageSize) != 0)
            return 2;
        os::StatBuf sb{};
        env.fstat(f, sb);
        if (sb.size != 3 * pageSize)
            return 3;
        // The grown region reads back as zeroes.
        env.lseek(f, 2 * pageSize, os::seekSet);
        GuestVA b = env.allocPages(1);
        if (env.read(f, b, 8) != 8)
            return 4;
        if (env.load64(b) != 0)
            return 5;
        env.close(f);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, UnlinkDiscardsMetadataAndRecreateWorks)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/u", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "first life");
        env.close(f);
        if (env.unlink("/cloaked/u") != 0)
            return 1;
        // Recreate at the same path: must start fresh, not trip over
        // stale sealed metadata.
        f = env.open("/cloaked/u", os::openCreate | os::openRead |
                                       os::openWrite);
        if (f < 0)
            return 2;
        env.writeAll(f, "second life");
        env.lseek(f, 0, os::seekSet);
        std::string s = env.readSome(f, 32);
        env.close(f);
        return s == "second life" ? 0 : 3;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, AtRestCiphertextTamperDetected)
{
    // Tamper with the *disk image* of a protected file between two
    // processes: the next reader must be killed, not fed junk.
    System sys(cloakedConfig());
    // One program (one identity), two phases.
    sys.addProgram("atrest", os::Program{[](Env& env) {
        if (!env.args().empty() && env.args()[0] == "write") {
            env.mkdir("/cloaked");
            std::int64_t f = env.open("/cloaked/at-rest",
                                      os::openCreate | os::openWrite);
            if (f < 0)
                return 1;
            env.writeAll(f, "valuable data at rest");
            env.close(f);
            return 0;
        }
        std::int64_t f = env.open("/cloaked/at-rest", os::openRead);
        if (f < 0)
            return 2;
        env.readSome(f, 32); // must die here
        return 3;
    }, true, 64});

    ASSERT_EQ(sys.runProgram("atrest", {"write"}).status, 0);
    // Flip one ciphertext byte on "disk" and drop the page cache
    // (models a reboot / eviction between the two processes — with the
    // cache warm the tamper would be shadowed by the cached pages).
    auto& vfs = sys.kernel().vfs();
    std::int64_t ino_id = vfs.lookup("/cloaked/at-rest");
    ASSERT_GT(ino_id, 0);
    os::Inode& ino = vfs.inode(static_cast<os::InodeId>(ino_id));
    ASSERT_FALSE(ino.diskData.empty());
    ino.diskData[5] ^= 0x01;
    for (auto& [idx, entry] : ino.cache) {
        ASSERT_EQ(entry.mapCount, 0u);
        sys.kernel().frames().unref(entry.gpa);
    }
    ino.cache.clear();

    auto r = sys.runProgram("atrest", {"read"});
    EXPECT_TRUE(r.killed) << "status " << r.status;
    EXPECT_NE(r.killReason.find("cloak violation"), std::string::npos);
}

TEST(ShimEmulated, SparseWriteAfterSeekPastEof)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/sparse",
                                  os::openCreate | os::openRead |
                                      os::openWrite);
        env.lseek(f, 2 * pageSize + 100, os::seekSet);
        env.writeAll(f, "tail");
        os::StatBuf sb{};
        env.fstat(f, sb);
        if (sb.size != 2 * pageSize + 104)
            return 1;
        // The hole reads back as zero.
        env.lseek(f, pageSize, os::seekSet);
        GuestVA b = env.allocPages(1);
        env.read(f, b, 8);
        if (env.load64(b) != 0)
            return 2;
        env.lseek(f, 2 * pageSize + 100, os::seekSet);
        std::string s = env.readSome(f, 8);
        env.close(f);
        return s == "tail" ? 0 : 3;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, OpenMissingProtectedFileFails)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        return env.open("/cloaked/nothing", os::openRead) ==
                       -os::errNoEnt
                   ? 0
                   : 1;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, TwoProtectedFilesIndependent)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t a = env.open("/cloaked/a", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        std::int64_t b = env.open("/cloaked/b", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(a, "AAAA");
        env.writeAll(b, "BBBBBBBB");
        env.lseek(a, 0, os::seekSet);
        env.lseek(b, 0, os::seekSet);
        std::string sa = env.readSome(a, 16);
        std::string sb = env.readSome(b, 16);
        env.close(a);
        env.close(b);
        return sa == "AAAA" && sb == "BBBBBBBB" ? 0 : 1;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, DupOfProtectedFdSharesShimState)
{
    // dup() of a protected fd is pass-through; the duplicate is served
    // by the kernel as a regular descriptor while the original stays
    // emulated. Both must close cleanly.
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/d", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "x");
        std::int64_t d = env.dup(static_cast<std::uint64_t>(f));
        if (d < 0)
            return 1;
        if (env.close(static_cast<std::uint64_t>(d)) != 0)
            return 2;
        env.lseek(f, 0, os::seekSet);
        std::string s = env.readSome(f, 4);
        if (env.close(static_cast<std::uint64_t>(f)) != 0)
            return 3;
        return s == "x" ? 0 : 4;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimPassthrough, ClockAndSleepAndYield)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        Cycles c0 = env.clock();
        env.sleep(5000);
        Cycles c1 = env.clock();
        if (c1 - c0 < 5000)
            return 1;
        env.yield();
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

// ---------------------------------------------------------------------------
// Cursor vs positional I/O: read/pread and write/pwrite are one data path
// ---------------------------------------------------------------------------

/** The three ways a file call is served. */
enum class IoPath
{
    Native,     ///< Uncloaked process: the guest kernel serves it.
    Marshalled, ///< Cloaked process, plain file: bounce-buffer copies.
    Emulated,   ///< Cloaked process, protected file: mapping copies.
};

const char*
ioPathName(IoPath path)
{
    switch (path) {
      case IoPath::Native: return "native";
      case IoPath::Marshalled: return "marshalled";
      case IoPath::Emulated: return "emulated";
    }
    return "?";
}

/** The file the cases run against: longer than one 64 KiB bounce area
 *  plus a page, and not page aligned. */
constexpr std::uint64_t ioFileBytes = 24 * pageSize + 123;

/** A transfer of `len` bytes at file offset `off`. */
struct IoCase
{
    const char* name;
    std::uint64_t off;
    std::uint64_t len;
};

const IoCase ioCases[] = {
    {"100 B", 300, 100},
    {"4 KiB", 4000, pageSize},
    {"64 KiB", 1000, 16 * pageSize},
    {"64 KiB + 1", 0, 16 * pageSize + 1},
    {"straddling EOF", ioFileBytes - 50, 100},
    {"at EOF", ioFileBytes, 100},
    {"zero length", 200, 0},
};

/** One cursor call and its positional twin at the same offset. */
struct IoTwin
{
    std::string label;
    std::int64_t cursorRv = 0, positionalRv = 0;
    Cycles cursorCycles = 0, positionalCycles = 0;
    /** Read: the bytes each call delivered. Write: the file range read
     *  back after each call. */
    std::vector<std::uint8_t> cursorBytes, positionalBytes;
    /** What the bytes must be. */
    std::vector<std::uint8_t> expected;
    /** Cursor after both calls, and where the cursor call must leave
     *  it (the positional call must not move it). */
    std::int64_t cursorAfter = 0, cursorExpected = 0;
};

std::vector<std::uint8_t>
ioPattern(std::uint64_t len, std::uint64_t salt)
{
    std::vector<std::uint8_t> v(len);
    for (std::uint64_t i = 0; i < len; ++i)
        v[i] = static_cast<std::uint8_t>((i + salt) * 131 + salt);
    return v;
}

std::vector<IoTwin>
runIoTwins(IoPath path)
{
    System sys(cloakedConfig(path != IoPath::Native));
    std::vector<IoTwin> twins;
    auto r = runCloaked(sys, [&](Env& env) {
        auto now = [&env] {
            return env.vcpu().vmm().machine().cost().cycles();
        };
        if (path == IoPath::Emulated)
            env.mkdir("/cloaked");
        std::int64_t f =
            env.open(path == IoPath::Emulated ? "/cloaked/twin" : "/twin",
                     os::openCreate | os::openRead | os::openWrite);
        if (f < 0)
            return 1;
        const std::uint64_t fd = static_cast<std::uint64_t>(f);
        const std::uint64_t bufPages = ioFileBytes / pageSize + 1;
        const std::vector<std::uint8_t> content = ioPattern(ioFileBytes, 0);
        GuestVA a = env.allocPages(bufPages);
        GuestVA b = env.allocPages(bufPages);
        GuestVA c = env.allocPages(bufPages);
        env.writeBytes(a, content);
        if (env.write(fd, a, ioFileBytes) !=
            static_cast<std::int64_t>(ioFileBytes))
            return 2;

        auto bytesAt = [&env](GuestVA va, std::int64_t n) {
            std::vector<std::uint8_t> v(
                static_cast<std::size_t>(std::max<std::int64_t>(n, 0)));
            env.readBytes(va, v);
            return v;
        };

        for (const IoCase& k : ioCases) {
            IoTwin t;
            t.label = std::string(ioPathName(path)) + " read " + k.name;
            std::uint64_t n =
                k.off >= ioFileBytes
                    ? 0
                    : std::min(k.len, ioFileBytes - k.off);
            t.expected.assign(content.begin() + k.off,
                              content.begin() + k.off + n);
            // The first pair warms the buffers, the page cache and the
            // TLB; the second pair is measured.
            for (int pass = 0; pass < 2; ++pass) {
                env.lseek(fd, static_cast<std::int64_t>(k.off),
                          os::seekSet);
                Cycles c0 = now();
                t.cursorRv = env.read(fd, a, k.len);
                Cycles c1 = now();
                t.positionalRv = env.pread(fd, b, k.len, k.off);
                Cycles c2 = now();
                t.cursorCycles = c1 - c0;
                t.positionalCycles = c2 - c1;
            }
            t.cursorAfter = env.lseek(fd, 0, os::seekCur);
            t.cursorExpected = static_cast<std::int64_t>(k.off + n);
            t.cursorBytes = bytesAt(a, t.cursorRv);
            t.positionalBytes = bytesAt(b, t.positionalRv);
            twins.push_back(std::move(t));
        }

        std::uint64_t salt = 1;
        for (const IoCase& k : ioCases) {
            IoTwin t;
            t.label = std::string(ioPathName(path)) + " write " + k.name;
            t.expected = ioPattern(k.len, salt++);
            env.writeBytes(a, t.expected);
            env.writeBytes(b, t.expected);
            // The warm pair also pays any size extension (the emulated
            // path's one Ftruncate trap), so the measured pair does not.
            for (int pass = 0; pass < 2; ++pass) {
                env.lseek(fd, static_cast<std::int64_t>(k.off),
                          os::seekSet);
                Cycles c0 = now();
                t.cursorRv = env.write(fd, a, k.len);
                Cycles c1 = now();
                env.pread(fd, c, k.len, k.off);
                t.cursorBytes = bytesAt(c, t.cursorRv);
                Cycles c2 = now();
                t.positionalRv = env.pwrite(fd, b, k.len, k.off);
                Cycles c3 = now();
                env.pread(fd, c, k.len, k.off);
                t.positionalBytes = bytesAt(c, t.positionalRv);
                t.cursorCycles = c1 - c0;
                t.positionalCycles = c3 - c2;
            }
            t.cursorAfter = env.lseek(fd, 0, os::seekCur);
            t.cursorExpected = static_cast<std::int64_t>(k.off + k.len);
            twins.push_back(std::move(t));
        }
        env.close(fd);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << ioPathName(path) << ": " << r.killReason;
    return twins;
}

TEST(ShimIoTwins, CursorAndPositionalCallsAreOneDataPath)
{
    for (IoPath path :
         {IoPath::Native, IoPath::Marshalled, IoPath::Emulated}) {
        std::vector<IoTwin> twins = runIoTwins(path);
        ASSERT_EQ(twins.size(), 2 * std::size(ioCases))
            << ioPathName(path);
        for (const IoTwin& t : twins) {
            SCOPED_TRACE(t.label);
            EXPECT_EQ(t.cursorRv,
                      static_cast<std::int64_t>(t.expected.size()));
            EXPECT_EQ(t.positionalRv, t.cursorRv);
            EXPECT_EQ(t.cursorBytes, t.expected);
            EXPECT_EQ(t.positionalBytes, t.expected);
            EXPECT_EQ(t.positionalCycles, t.cursorCycles);
            EXPECT_EQ(t.cursorAfter, t.cursorExpected);
        }
    }
}

TEST(ShimIoTwins, FileOffsetsAreBoundedOnEveryPath)
{
    // A write whose range would end past os::maxFileBytes, and an
    // ftruncate beyond it, fail with -EFBIG on every path and change
    // nothing. The offset 2^64 - 4096 once wrapped `off + len` to zero
    // and reached the disk image at fsync.
    constexpr std::uint64_t wrapping = 0 - pageSize;
    constexpr auto cap = static_cast<std::int64_t>(os::maxFileBytes);
    for (IoPath path :
         {IoPath::Native, IoPath::Marshalled, IoPath::Emulated}) {
        SCOPED_TRACE(ioPathName(path));
        struct
        {
            std::int64_t wrapWrite = 0, wrapSync = 0, pastCap = 0,
                         seekCap = 0, cursorPastCap = 0, truncPastCap = 0,
                         sizeAfter = -1, inRange = 0;
        } rv;
        System sys(cloakedConfig(path != IoPath::Native));
        auto r = runCloaked(sys, [&](Env& env) {
            if (path == IoPath::Emulated)
                env.mkdir("/cloaked");
            std::int64_t f = env.open(
                path == IoPath::Emulated ? "/cloaked/big" : "/big",
                os::openCreate | os::openRead | os::openWrite);
            if (f < 0)
                return 1;
            const std::uint64_t fd = static_cast<std::uint64_t>(f);
            GuestVA buf = env.allocPages(1);
            env.writeBytes(buf, ioPattern(8, 5));
            rv.wrapWrite = env.pwrite(fd, buf, 1, wrapping);
            rv.wrapSync = env.fsync(fd);
            rv.pastCap = env.pwrite(fd, buf, 2, os::maxFileBytes - 1);
            rv.seekCap = env.lseek(fd, cap, os::seekSet);
            rv.cursorPastCap = env.write(fd, buf, 1);
            rv.truncPastCap = env.ftruncate(fd, os::maxFileBytes + 1);
            rv.sizeAfter = env.lseek(fd, 0, os::seekEnd);
            rv.inRange = env.pwrite(fd, buf, 8, 0);
            env.fsync(fd);
            env.close(fd);
            return 0;
        });
        EXPECT_EQ(r.status, 0) << r.killReason;
        EXPECT_EQ(rv.wrapWrite, -os::errFBig);
        EXPECT_EQ(rv.wrapSync, 0);
        EXPECT_EQ(rv.pastCap, -os::errFBig);
        EXPECT_EQ(rv.seekCap, cap);
        EXPECT_EQ(rv.cursorPastCap, -os::errFBig);
        EXPECT_EQ(rv.truncPastCap, -os::errFBig);
        EXPECT_EQ(rv.sizeAfter, 0);
        EXPECT_EQ(rv.inRange, 8);
    }
}

TEST(ShimIoTwins, ErrnoOrderOnPipesAndBadFds)
{
    // Cursor and positional calls keep their own argument checks: a
    // pipe serves read/write but refuses pread/pwrite, the wrong pipe
    // end is a bad fd for read/write, and a closed fd is a bad fd for
    // all four.
    for (IoPath path : {IoPath::Native, IoPath::Marshalled}) {
        System sys(cloakedConfig(path != IoPath::Native));
        auto r = runCloaked(sys, [path](Env& env) {
            GuestVA buf = env.allocPages(1);
            const std::uint64_t bad = 99;
            if (env.read(bad, buf, 8) != -os::errBadF ||
                env.pread(bad, buf, 8, 0) != -os::errBadF ||
                env.write(bad, buf, 8) != -os::errBadF ||
                env.pwrite(bad, buf, 8, 0) != -os::errBadF)
                return 1;

            int rfd = -1, wfd = -1;
            if (env.pipe(rfd, wfd) != 0)
                return 2;
            const std::uint64_t rd = static_cast<std::uint64_t>(rfd);
            const std::uint64_t wr = static_cast<std::uint64_t>(wfd);
            if (env.write(wr, buf, 8) != 8)
                return 3;
            if (env.pread(rd, buf, 8, 0) != -os::errSPipe ||
                env.pwrite(wr, buf, 8, 0) != -os::errSPipe ||
                env.pread(wr, buf, 8, 0) != -os::errSPipe ||
                env.pwrite(rd, buf, 8, 0) != -os::errSPipe)
                return 4;
            if (env.read(wr, buf, 8) != -os::errBadF ||
                env.write(rd, buf, 8) != -os::errBadF)
                return 5;
            if (path == IoPath::Native) {
                // An unmapped buffer: read checks it before the pipe,
                // pread rejects the pipe first.
                const GuestVA unmapped = 0x10;
                if (env.read(rd, unmapped, 8) != -os::errFault ||
                    env.pread(rd, unmapped, 8, 0) != -os::errSPipe ||
                    env.write(wr, unmapped, 8) != -os::errFault ||
                    env.pwrite(wr, unmapped, 8, 0) != -os::errSPipe)
                    return 6;
            }
            if (env.read(rd, buf, 8) != 8)
                return 7;
            return 0;
        });
        EXPECT_EQ(r.status, 0) << ioPathName(path) << ": " << r.killReason;
    }
}

TEST(ShimStats, AdaptationClassesCounted)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t p = env.open("/cloaked/f", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(p, "emulated");
        env.lseek(p, 0, os::seekSet);
        env.readSome(p, 8);
        env.close(p);
        std::int64_t u = env.open("/plain", os::openCreate |
                                                os::openRead |
                                                os::openWrite);
        env.writeAll(u, "marshalled");
        env.close(u);
        return 0;
    });
    ASSERT_EQ(r.status, 0) << r.killReason;
    auto& stats = sys.cloak()->stats();
    EXPECT_GT(stats.value("shim_emulated_writes"), 0u);
    EXPECT_GT(stats.value("shim_emulated_reads"), 0u);
    EXPECT_GT(stats.value("shim_marshalled_writes"), 0u);
    EXPECT_GT(stats.value("shim_protected_opens"), 0u);
    EXPECT_GT(stats.value("shim_protected_closes"), 0u);
}

} // namespace
} // namespace osh
