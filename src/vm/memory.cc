#include "vm/memory.h"

#include <algorithm>
#include <cstdio>

namespace ldx::vm {

const char *
trapKindName(TrapKind kind)
{
    switch (kind) {
      case TrapKind::MemoryFault: return "memory-fault";
      case TrapKind::DivideByZero: return "divide-by-zero";
      case TrapKind::BadIndirectCall: return "bad-indirect-call";
      case TrapKind::ControlHijack: return "control-hijack";
      case TrapKind::StackOverflow: return "stack-overflow";
      case TrapKind::BudgetExceeded: return "budget-exceeded";
      case TrapKind::BadSyscall: return "bad-syscall";
    }
    return "?";
}

Memory::Memory(std::uint64_t globals_size, std::uint64_t stack_size,
               int max_threads, std::uint64_t heap_jitter)
    : globalsSize_(globals_size), stackSize_(stack_size),
      maxThreads_(max_threads), heapBase_(kHeapBase + heap_jitter),
      heapBrk_(heapBase_),
      globals_(globals_size, 0),
      stacks_(stack_size * static_cast<std::uint64_t>(max_threads), 0)
{}

std::uint8_t *
Memory::resolve(std::uint64_t addr) const
{
    if (addr >= kGlobalsBase && addr < kGlobalsBase + globalsSize_)
        return &globals_[addr - kGlobalsBase];
    std::uint64_t stacks_size = stacks_.size();
    if (addr >= kStackBase && addr < kStackBase + stacks_size)
        return &stacks_[addr - kStackBase];
    if (addr >= heapBase_ && addr < heapBrk_)
        return &heap_[addr - heapBase_];
    throw VmTrap(TrapKind::MemoryFault,
                 "bad address 0x" + [addr] {
                     char buf[32];
                     std::snprintf(buf, sizeof(buf), "%llx",
                                   static_cast<unsigned long long>(addr));
                     return std::string(buf);
                 }());
}

std::uint8_t
Memory::readU8(std::uint64_t addr) const
{
    return *resolve(addr);
}

void
Memory::writeU8(std::uint64_t addr, std::uint8_t v)
{
    *resolve(addr) = v;
}

std::int64_t
Memory::readI64(std::uint64_t addr) const
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | readU8(addr + static_cast<std::uint64_t>(i));
    return static_cast<std::int64_t>(v);
}

void
Memory::writeI64(std::uint64_t addr, std::int64_t value)
{
    std::uint64_t v = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
        writeU8(addr + static_cast<std::uint64_t>(i),
                static_cast<std::uint8_t>(v & 0xff));
        v >>= 8;
    }
}

std::string
Memory::readBytes(std::uint64_t addr, std::uint64_t n) const
{
    std::string out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out += static_cast<char>(readU8(addr + i));
    return out;
}

void
Memory::writeBytes(std::uint64_t addr, const std::string &data)
{
    for (std::size_t i = 0; i < data.size(); ++i)
        writeU8(addr + i, static_cast<std::uint8_t>(data[i]));
}

std::string
Memory::readCString(std::uint64_t addr, std::uint64_t max_len) const
{
    std::string out;
    for (std::uint64_t i = 0; i < max_len; ++i) {
        char c = static_cast<char>(readU8(addr + i));
        if (c == '\0')
            return out;
        out += c;
    }
    return out;
}

std::uint64_t
Memory::heapAlloc(std::uint64_t n)
{
    n = (n + 7) & ~std::uint64_t{7};
    std::uint64_t addr = heapBrk_;
    heapBrk_ += n;
    heap_.resize(heapBrk_ - heapBase_, 0);
    return addr;
}

std::uint64_t
Memory::stackTop(int tid) const
{
    return kStackBase + stackSize_ * static_cast<std::uint64_t>(tid + 1);
}

std::uint64_t
Memory::stackFloor(int tid) const
{
    return kStackBase + stackSize_ * static_cast<std::uint64_t>(tid);
}

} // namespace ldx::vm
