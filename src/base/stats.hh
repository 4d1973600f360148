/**
 * @file
 * Lightweight named statistics counters.
 *
 * Each simulator component owns a StatGroup and registers named counters
 * in it. Benchmarks and tests read counters by name; examples dump whole
 * groups. This is a deliberately tiny sibling of gem5's stats package.
 */

#ifndef OSH_BASE_STATS_HH
#define OSH_BASE_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace osh
{

class StatGroup;

/** A single monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t delta = 1) { value_ += delta; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A named collection of counters belonging to one component. */
class StatGroup
{
  public:
    /** @param name Component name used as a prefix when dumping. */
    explicit StatGroup(std::string name);

    /**
     * Get or create the counter with the given name. References remain
     * valid for the lifetime of the group.
     */
    Counter& counter(const std::string& name);

    /**
     * The counter @p name, cached in @p slot: the first call looks it
     * up (creating it) and stores it there, later calls build no string
     * and search no map. The counter joins the key set on first use,
     * exactly as with counter(name), so interning a hot counter this
     * way leaves every dump and snapshot unchanged. The slot's owner
     * must not be copied (the copy would count into this group).
     */
    Counter&
    counter(Counter*& slot, const char* name)
    {
        if (slot == nullptr)
            slot = &counter(std::string(name));
        return *slot;
    }

    /** Value of a named counter (0 if it was never created). */
    std::uint64_t value(const std::string& name) const;

    /** Reset every counter in the group. */
    void resetAll();

    /** Render "group.counter value" lines, sorted by counter name. */
    std::string dump() const;

    const std::string& name() const { return name_; }

    /** Snapshot of all counters, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
};

} // namespace osh

#endif // OSH_BASE_STATS_HH
