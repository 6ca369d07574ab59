/**
 * @file
 * Shared resource-taint map (§7 "Light-weight Resource Tainting").
 *
 * When a resource operation is misaligned between the master and the
 * slave, the resource is tainted; future syscalls touching it are
 * never coupled (both executions run them on their own world copy).
 * The map is shared by both execution controllers, so it is
 * internally synchronized for the threaded driver.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>

namespace ldx::os {

/** Thread-safe set of tainted resource keys. */
class ResourceTaintMap
{
  public:
    /** Mark @p key tainted. Idempotent. */
    void
    taint(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        keys_.insert(key);
        version_.fetch_add(1, std::memory_order_release);
    }

    /** True if @p key has been tainted. */
    bool
    isTainted(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return keys_.count(key) > 0;
    }

    /** Number of tainted resources (reported by the engine). */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return keys_.size();
    }

    /** Snapshot of tainted keys (diagnostics). */
    std::set<std::string>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return keys_;
    }

    /**
     * Monotonic change counter. A poller that cached a membership
     * answer may keep it while the version is unchanged (taints are
     * only ever added, never removed).
     */
    std::uint64_t
    version() const
    {
        return version_.load(std::memory_order_acquire);
    }

  private:
    mutable std::mutex mutex_;
    std::set<std::string> keys_;
    std::atomic<std::uint64_t> version_{0};
};

} // namespace ldx::os
