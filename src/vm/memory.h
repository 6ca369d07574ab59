/**
 * @file
 * Flat segmented guest memory. Three segments: globals, per-thread
 * stacks, and a bump-allocated heap whose base carries a per-execution
 * jitter (heap nondeterminism the paper discusses under Limitations).
 *
 * The guest stack holds real return tokens written at call time, so
 * MiniC buffer overflows can clobber them exactly like native stack
 * smashing — this is what the vulnerable-program experiments rely on.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "os/memaccess.h"

namespace ldx::vm {

/** Guest-visible fault kinds. */
enum class TrapKind
{
    MemoryFault,
    DivideByZero,
    BadIndirectCall,
    ControlHijack,   ///< corrupted return token detected at ret
    StackOverflow,
    BudgetExceeded,  ///< instruction budget exhausted
    BadSyscall,
};

/** Name of a trap kind. */
const char *trapKindName(TrapKind kind);

/** Thrown by the machine on guest faults. */
class VmTrap : public std::runtime_error
{
  public:
    VmTrap(TrapKind kind, const std::string &msg)
        : std::runtime_error(msg), kind_(kind)
    {}

    TrapKind kind() const { return kind_; }

  private:
    TrapKind kind_;
};

/** Segmented guest memory. */
class Memory : public os::MemAccess
{
  public:
    static constexpr std::uint64_t kGlobalsBase = 0x10000;
    static constexpr std::uint64_t kStackBase = 0x01000000;
    static constexpr std::uint64_t kHeapBase = 0x40000000;

    /**
     * @param globals_size  bytes of global storage
     * @param stack_size    bytes of stack per thread
     * @param max_threads   number of per-thread stack slots
     * @param heap_jitter   added to the heap base (nondeterminism)
     */
    Memory(std::uint64_t globals_size, std::uint64_t stack_size,
           int max_threads, std::uint64_t heap_jitter);

    // -- Typed accessors. --
    std::uint8_t readU8(std::uint64_t addr) const;
    void writeU8(std::uint64_t addr, std::uint8_t v);
    std::int64_t readI64(std::uint64_t addr) const;
    void writeI64(std::uint64_t addr, std::int64_t v);

    // -- os::MemAccess. --
    std::string readBytes(std::uint64_t addr,
                          std::uint64_t n) const override;
    void writeBytes(std::uint64_t addr, const std::string &data) override;
    std::string readCString(std::uint64_t addr,
                            std::uint64_t max_len = 4096) const override;

    /** Bump-allocate @p n heap bytes (8-aligned). */
    std::uint64_t heapAlloc(std::uint64_t n);

    /** Top (highest address, exclusive) of thread @p tid's stack. */
    std::uint64_t stackTop(int tid) const;

    /** Lowest valid address of thread @p tid's stack. */
    std::uint64_t stackFloor(int tid) const;

    std::uint64_t stackSize() const { return stackSize_; }
    std::uint64_t heapBase() const { return heapBase_; }

  private:
    /** Map @p addr to backing byte; throws VmTrap on bad addresses. */
    std::uint8_t *resolve(std::uint64_t addr) const;

    std::uint64_t globalsSize_;
    std::uint64_t stackSize_;
    int maxThreads_;
    std::uint64_t heapBase_;
    std::uint64_t heapBrk_;

    mutable std::vector<std::uint8_t> globals_;
    mutable std::vector<std::uint8_t> stacks_;
    mutable std::vector<std::uint8_t> heap_;
};

} // namespace ldx::vm
