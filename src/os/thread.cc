#include "os/thread.hh"

#include "base/logging.hh"

namespace osh::os
{

namespace
{

/** The unique_lock of the running host thread, for scheduler calls. */
thread_local std::unique_lock<std::mutex>* tlsHostLock = nullptr;

} // namespace

Scheduler::Scheduler(sim::CostModel& cost)
    : cost_(cost), stats_("sched"),
      dispatches_(stats_.counter("dispatches")),
      cpuMigrations_(stats_.counter("cpu_migrations"))
{
}

void
Scheduler::configureCpus(std::size_t count)
{
    osh_assert(count > 0, "scheduler needs at least one CPU");
    osh_assert(started_ == 0,
               "configureCpus after threads were created");
    cpuCount_ = count;
    nextCpuSlot_ = 0;
}

void
Scheduler::assignCpu(Thread* t)
{
    auto slot = static_cast<std::uint32_t>(nextCpuSlot_);
    nextCpuSlot_ = (nextCpuSlot_ + 1) % cpuCount_;
    dispatches_.inc();
    if (t->vcpu.cpu() != slot) {
        cpuMigrations_.inc();
        t->vcpu.setCpu(slot);
    }
}

Scheduler::~Scheduler()
{
    {
        std::unique_lock<std::mutex> lk(lock_);
        osh_assert(liveCount_ == 0,
                   "scheduler destroyed with %llu live threads",
                   static_cast<unsigned long long>(liveCount_));
    }
    for (auto& t : threads_) {
        if (t->host.joinable())
            t->host.join();
    }
}

Thread&
Scheduler::createThread(Pid pid, vmm::Vmm& vmm, const vmm::Context& ctx,
                        std::function<void(Thread&)> body)
{
    auto owned = std::make_unique<Thread>(pid, vmm, ctx);
    Thread* t = owned.get();
    t->body = std::move(body);
    t->state = Thread::State::Ready;
    threads_.push_back(std::move(owned));
    active_.push_back(t);
    readyQueue_.push_back(t);
    ++liveCount_;
    ++started_;
    stats_.counter("threads_created").inc();
    t->host = std::thread([this, t] { threadMain(t); });
    return *t;
}

void
Scheduler::threadMain(Thread* t)
{
    std::unique_lock<std::mutex> lk(lock_);
    tlsHostLock = &lk;
    while (t->state != Thread::State::Running)
        t->cv.wait(lk);
    current_ = t;

    t->body(*t);

    t->state = Thread::State::Zombie;
    --liveCount_;
    switchFrom(t, lk, /*exiting=*/true);
    tlsHostLock = nullptr;
}

void
Scheduler::switchFrom(Thread* cur, std::unique_lock<std::mutex>& lk,
                      bool exiting)
{
    if (!readyQueue_.empty()) {
        Thread* next = readyQueue_.front();
        readyQueue_.pop_front();
        next->state = Thread::State::Running;
        current_ = next;
        if (next != cur) {
            cost_.charge(cost_.params().contextSwitch, "context_switch");
            assignCpu(next);
            if (switchHook_)
                switchHook_();
            next->cv.notify_all();
        }
    } else {
        current_ = nullptr;
        if (liveCount_ == 0) {
            driverCv_.notify_all();
        } else {
            // No runnable thread, yet live threads remain: everything
            // else is blocked. If the caller is also going away (exit)
            // or blocking, the guest has deadlocked — unless threads
            // are frozen for a checkpoint, in which case control goes
            // back to the driver (the quiesced state it asked for).
            bool caller_runnable =
                !exiting && cur->state == Thread::State::Running;
            if (!caller_runnable) {
                if (frozenCount_ > 0) {
                    paused_ = true;
                    driverCv_.notify_all();
                } else {
                    osh_panic("guest deadlock: %llu live threads, "
                              "none runnable",
                              static_cast<unsigned long long>(
                                  liveCount_));
                }
            } else {
                // Caller yielded with nobody else to run: keep going.
                cur->state = Thread::State::Running;
                current_ = cur;
                return;
            }
        }
    }
    if (exiting)
        return;
    while (cur->state != Thread::State::Running)
        cur->cv.wait(lk);
    current_ = cur;
}

void
Scheduler::yield()
{
    Thread* cur = current_;
    osh_assert(cur != nullptr && tlsHostLock != nullptr,
               "yield outside guest context");
    if (readyQueue_.empty())
        return;
    cur->state = Thread::State::Ready;
    readyQueue_.push_back(cur);
    stats_.counter("yields").inc();
    switchFrom(cur, *tlsHostLock, false);
}

void
Scheduler::preempt()
{
    Thread* cur = current_;
    osh_assert(cur != nullptr && tlsHostLock != nullptr,
               "preempt outside guest context");
    if (readyQueue_.empty())
        return;
    cost_.charge(cost_.params().interruptDeliver, "timer_interrupt");
    cur->state = Thread::State::Ready;
    readyQueue_.push_back(cur);
    stats_.counter("preemptions").inc();
    switchFrom(cur, *tlsHostLock, false);
}

void
Scheduler::block(const void* channel)
{
    Thread* cur = current_;
    osh_assert(cur != nullptr && tlsHostLock != nullptr,
               "block outside guest context");
    cur->state = Thread::State::Blocked;
    cur->waitChannel = channel;
    stats_.counter("blocks").inc();
    switchFrom(cur, *tlsHostLock, false);
    cur->waitChannel = nullptr;
}

void
Scheduler::wakeAll(const void* channel)
{
    std::size_t out = 0;
    for (Thread* t : active_) {
        if (t->state == Thread::State::Zombie)
            continue; // Compact finished threads out of the scan set.
        if (t->state == Thread::State::Blocked &&
            t->waitChannel == channel) {
            t->state = Thread::State::Ready;
            t->waitChannel = nullptr;
            readyQueue_.push_back(t);
            stats_.counter("wakeups").inc();
        }
        active_[out++] = t;
    }
    active_.resize(out);
}

void
Scheduler::freezeCurrent()
{
    Thread* cur = current_;
    osh_assert(cur != nullptr && tlsHostLock != nullptr,
               "freeze outside guest context");
    cur->state = Thread::State::Blocked;
    cur->waitChannel = &frozenChannel_;
    ++frozenCount_;
    stats_.counter("freezes").inc();
    switchFrom(cur, *tlsHostLock, false);
    cur->waitChannel = nullptr;
}

bool
Scheduler::isFrozen(const Thread& t) const
{
    return t.state == Thread::State::Blocked &&
           t.waitChannel == &frozenChannel_;
}

void
Scheduler::resumeFrozen(Thread& t)
{
    std::unique_lock<std::mutex> lk(lock_);
    osh_assert(current_ == nullptr,
               "resumeFrozen while a guest thread is running");
    osh_assert(isFrozen(t), "resumeFrozen of a thread that is not frozen");
    osh_assert(frozenCount_ > 0, "frozen count underflow");
    t.state = Thread::State::Ready;
    t.waitChannel = nullptr;
    --frozenCount_;
    readyQueue_.push_back(&t);
    stats_.counter("thaws").inc();
}

std::size_t
Scheduler::reapFinished()
{
    {
        std::unique_lock<std::mutex> lk(lock_);
        osh_assert(current_ == nullptr,
                   "reapFinished while a guest thread is running");
    }
    std::size_t n = 0;
    for (auto& t : threads_) {
        if (t->state == Thread::State::Zombie && t->host.joinable()) {
            t->host.join();
            ++n;
        }
    }
    return n;
}

std::size_t
Scheduler::joinableFinishedThreads() const
{
    std::size_t n = 0;
    for (const auto& t : threads_) {
        if (t->state == Thread::State::Zombie && t->host.joinable())
            ++n;
    }
    return n;
}

std::uint64_t
Scheduler::run()
{
    std::unique_lock<std::mutex> lk(lock_);
    if (liveCount_ == 0)
        return started_;
    osh_assert(current_ == nullptr, "run() while a thread is running");
    if (readyQueue_.empty()) {
        // Every live thread is frozen (or blocked behind one): the
        // machine stays quiesced; nothing to run.
        osh_assert(frozenCount_ > 0, "live threads but none ready");
        return started_;
    }

    Thread* next = readyQueue_.front();
    readyQueue_.pop_front();
    next->state = Thread::State::Running;
    current_ = next;
    assignCpu(next);
    next->cv.notify_all();

    driverCv_.wait(lk, [this] { return liveCount_ == 0 || paused_; });
    paused_ = false;
    current_ = nullptr;
    return started_;
}

} // namespace osh::os

namespace osh::os
{

void
Scheduler::wakeThread(Thread& t)
{
    if (t.state == Thread::State::Blocked) {
        t.state = Thread::State::Ready;
        t.waitChannel = nullptr;
        readyQueue_.push_back(&t);
        stats_.counter("wakeups").inc();
    }
}

} // namespace osh::os
