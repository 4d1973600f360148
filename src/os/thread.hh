/**
 * @file
 * Guest threads and the scheduler.
 *
 * Each guest thread is hosted on its own std::thread, but execution is
 * strictly serialized: a single "big simulation lock" is held by
 * whichever guest thread is Running, and context switches are explicit
 * condition-variable handoffs driven by the scheduler. This gives the
 * simulator real blocking semantics (pipes, waitpid, page I/O) and real
 * preemption points while keeping runs fully deterministic — the
 * round-robin ready queue, not the host scheduler, decides who runs.
 *
 * Kernel code runs on the guest thread that trapped, exactly as in a
 * real monolithic kernel.
 */

#ifndef OSH_OS_THREAD_HH
#define OSH_OS_THREAD_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "sim/cost_model.hh"
#include "vmm/vcpu.hh"

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace osh::os
{

class Scheduler;

/** One guest thread (this simulator runs one thread per process). */
class Thread
{
  public:
    enum class State : std::uint8_t
    {
        Embryo,   ///< Created, host thread not yet scheduled.
        Ready,    ///< Runnable, waiting for the CPU.
        Running,  ///< Currently holds the simulation.
        Blocked,  ///< Waiting on a channel.
        Zombie,   ///< Finished.
    };

    Thread(Pid pid, vmm::Vmm& vmm, const vmm::Context& ctx)
        : pid(pid), vcpu(vmm, ctx)
    {
    }

    Pid pid;
    State state = State::Embryo;
    vmm::Vcpu vcpu;

    /** Channel this thread is blocked on (nullptr if none). */
    const void* waitChannel = nullptr;

    // Runtime mailbox written by the kernel, read by the Env/runtime.

    /** Pending user-signal delivery (negative = none). */
    int deliverSignal = -1;
    std::uint64_t deliverSignalToken = 0;

    /** Pending exec image (set by sys_exec, consumed by the Env). */
    bool hasPendingExec = false;
    std::string pendingExecProgram;
    std::vector<std::string> pendingExecArgv;

    /** Body to run once first scheduled. */
    std::function<void(Thread&)> body;

    std::condition_variable cv;
    std::thread host;
};

/**
 * Round-robin scheduler over host-thread-backed guest threads.
 *
 * Locking protocol: every scheduler method that is documented as
 * "guest context" must be called by the currently Running guest thread,
 * which implicitly holds the simulation lock (taken in threadMain).
 */
class Scheduler
{
  public:
    explicit Scheduler(sim::CostModel& cost);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Create a guest thread. May be called from the driver (before
     * run()) or from a running guest thread (fork/spawn). The thread
     * starts Ready.
     */
    Thread& createThread(Pid pid, vmm::Vmm& vmm, const vmm::Context& ctx,
                         std::function<void(Thread&)> body);

    /** The currently running guest thread (nullptr from the driver). */
    Thread* current() { return current_; }

    /** Guest context: voluntarily give up the CPU. */
    void yield();

    /** Guest context: involuntary preemption (timer); charged. */
    void preempt();

    /** Guest context: block on a channel until woken. */
    void block(const void* channel);

    /** Guest context: wake every thread blocked on the channel. */
    void wakeAll(const void* channel);

    /** Guest context: make one specific blocked thread runnable. */
    void wakeThread(Thread& t);

    /**
     * Guest context: park the calling thread on the scheduler's freeze
     * channel (checkpoint quiesce). Unlike block(), a frozen thread can
     * only be made runnable again by the driver via resumeFrozen(); and
     * when every remaining live thread is frozen or blocked the
     * scheduler *pauses* — run() returns to the driver instead of
     * panicking on deadlock — so the driver can inspect a quiesced
     * machine. Returns when the thread is thawed.
     */
    void freezeCurrent();

    /** Driver context: make a frozen thread runnable again. */
    void resumeFrozen(Thread& t);

    /** Is this thread parked on the freeze channel? */
    bool isFrozen(const Thread& t) const;

    /** Number of threads currently parked on the freeze channel. */
    std::uint64_t frozenThreads() const { return frozenCount_; }

    /**
     * Driver context: run the simulation until every guest thread has
     * exited — or, when threads are frozen, until no unfrozen thread is
     * runnable (the paused state; check liveThreads() to distinguish).
     * Returns the number of threads that ran.
     */
    std::uint64_t run();

    /**
     * Hook invoked (with the simulation lock held) whenever the CPU is
     * handed to a *different* thread — the simulator's CR3-write point
     * (shadow/TLB retention).
     */
    void setSwitchHook(std::function<void()> hook)
    {
        switchHook_ = std::move(hook);
    }

    /**
     * Number of simulated physical cores threads are dispatched onto
     * (SMP). Dispatch order is unchanged — the single ready queue still
     * decides who runs next — so guest-visible execution is identical
     * at any count; only the vCPU slot (and hence which private TLB a
     * thread warms) varies. Must be set before run().
     */
    void configureCpus(std::size_t count);
    std::size_t cpuCount() const { return cpuCount_; }

    /** Number of live (non-zombie) threads. */
    std::uint64_t liveThreads() const { return liveCount_; }

    /**
     * Driver context (no thread running): join the host threads of
     * guest threads that have exited, releasing their host stacks. The
     * Thread objects stay (other layers may hold results keyed off
     * them). Lets a many-thousand-process sweep run in bounded host
     * memory; returns the number of host threads joined.
     */
    std::size_t reapFinished();

    /** Finished guest threads whose host thread is still unjoined —
     *  what the next reapFinished() would release. */
    std::size_t joinableFinishedThreads() const;

    StatGroup& stats() { return stats_; }

  private:
    void threadMain(Thread* t);

    /**
     * Pick the next ready thread and hand the CPU to it; the caller
     * then waits until it becomes Running again (or returns immediately
     * if exiting). Must hold lock_.
     */
    void switchFrom(Thread* cur, std::unique_lock<std::mutex>& lk,
                    bool exiting);

    /** Bind a freshly dispatched thread to a core slot (round-robin). */
    void assignCpu(Thread* t);

    sim::CostModel& cost_;
    std::mutex lock_;
    std::condition_variable driverCv_;

    std::function<void()> switchHook_;
    std::vector<std::unique_ptr<Thread>> threads_;
    /** Non-zombie threads, the wakeAll scan set. Finished threads are
     *  dropped lazily so scans stay proportional to live threads, not
     *  to every thread ever created. */
    std::vector<Thread*> active_;
    std::deque<Thread*> readyQueue_;
    Thread* current_ = nullptr;
    /** Simulated physical cores. */
    std::size_t cpuCount_ = 1;
    /** Next round-robin core slot handed out at dispatch. */
    std::size_t nextCpuSlot_ = 0;
    std::uint64_t liveCount_ = 0;
    std::uint64_t started_ = 0;
    bool driverWaiting_ = false;
    /** Threads parked by freezeCurrent() wait on this channel. */
    char frozenChannel_ = 0;
    std::uint64_t frozenCount_ = 0;
    /** Set when the scheduler hands control back to a checkpointing
     *  driver because only frozen/blocked threads remain. */
    bool paused_ = false;
    StatGroup stats_;
    /** Resolved once: assignCpu runs on every dispatch. */
    Counter& dispatches_;
    Counter& cpuMigrations_;
};

} // namespace osh::os

#endif // OSH_OS_THREAD_HH
