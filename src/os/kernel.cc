#include "os/kernel.h"

#include <algorithm>

#include "support/diag.h"

namespace ldx::os {

std::int64_t
virtualSyscallCost(std::int64_t no, const Outcome &out)
{
    const SysDesc &d = sysDesc(no);
    std::int64_t base = 0;
    switch (d.klass) {
      case SysClass::Input: base = 250; break;  // world probe
      case SysClass::Output: base = 400; break; // external effect
      case SysClass::Local: base = 120; break;  // thread machinery
      case SysClass::Sync: base = 60; break;    // lock handoff
    }
    std::int64_t payload = static_cast<std::int64_t>(out.data.size());
    if (payload == 0 && d.klass == SysClass::Output && out.ret > 0)
        payload = out.ret; // writes move bytes without an out-buffer
    return base + payload;
}

Kernel::Kernel(const WorldSpec &spec)
    : spec_(spec), randomPrng_(spec.randomSeed), rdtscPrng_(spec.rdtscSeed)
{
    for (const auto &[path, data] : spec.files)
        vfs_.installFile(path, data);
}

std::int64_t
Kernel::now() const
{
    return spec_.clockBase + clockQueries_ * spec_.clockStepPerQuery +
           static_cast<std::int64_t>(instrTicks_ / 10000);
}

std::int64_t
Kernel::arg(const std::vector<std::int64_t> &a, int i) const
{
    if (i < 0 || i >= static_cast<int>(a.size()))
        return 0;
    return a[i];
}

void
Kernel::journalOutput(std::int64_t no, const std::string &channel,
                      const std::string &payload)
{
    OutputRecord rec;
    rec.sysNo = no;
    rec.channel = channel;
    rec.payload = payload;
    rec.suppressed = suppressOutputs_;
    journal_.push_back(std::move(rec));
    if (obs_ && obs_->recorder()) {
        obs::RecEvent evt;
        evt.kind = obs::RecKind::Output;
        evt.sysNo = no;
        evt.arg = obs::fnv1a(payload);
        obs_->record(obsLane_, evt);
    }
    if (obs_ && obs_->tracing()) {
        obs::TraceRecord trec;
        trec.name = "output";
        trec.lane = obsLane_;
        trec.numArgs = {{"sys", no},
                        {"bytes",
                         static_cast<std::int64_t>(payload.size())},
                        {"suppressed", suppressOutputs_ ? 1 : 0}};
        trec.strArgs = {{"channel", channel}};
        obs_->emit(std::move(trec));
    }
}

void
Kernel::accountOp(std::int64_t no)
{
    switch (static_cast<Sys>(no)) {
      case Sys::Open:
      case Sys::Read:
      case Sys::Write:
      case Sys::Close:
      case Sys::Lseek:
      case Sys::Mkdir:
      case Sys::Rmdir:
      case Sys::Unlink:
      case Sys::Rename:
      case Sys::Stat:
        ++stats_.vfsOps;
        break;
      case Sys::Socket:
      case Sys::Connect:
      case Sys::Send:
      case Sys::Recv:
      case Sys::Listen:
      case Sys::Accept:
        ++stats_.sockOps;
        break;
      case Sys::Print:
        ++stats_.consoleOps;
        break;
      case Sys::Time:
      case Sys::Rdtsc:
      case Sys::Random:
      case Sys::GetPid:
      case Sys::GetEnv:
        ++stats_.nondetOps;
        break;
      default:
        break;
    }
}

std::string
Kernel::channelOfFd(std::int64_t fdno) const
{
    auto it = fds_.find(fdno);
    if (it == fds_.end())
        return "fd:" + std::to_string(fdno);
    const Fd &fd = it->second;
    switch (fd.kind) {
      case Fd::Kind::File:
        return "file:" + fd.path;
      case Fd::Kind::SocketConn:
        return "net:" + fd.host;
      case Fd::Kind::SocketServerConn:
        return "net:client";
      case Fd::Kind::SocketFresh:
      case Fd::Kind::SocketListen:
        return "net:unbound";
    }
    return "fd:" + std::to_string(fdno);
}

Outcome
Kernel::doOpen(const std::vector<std::int64_t> &args, MemAccess &mem,
               std::optional<std::int64_t> forced_fd)
{
    Outcome out;
    out.stamp = now();
    std::string path =
        Vfs::normalize(mem.readCString(
            static_cast<std::uint64_t>(arg(args, 0))));
    std::int64_t flags = arg(args, 1);
    if (flags == 0) { // read
        if (!vfs_.isFile(path)) {
            out.ret = -1;
            return out;
        }
    } else { // write (1: truncate/create, 2: append)
        if (vfs_.isDir(path)) {
            out.ret = -1;
            return out;
        }
        if (!vfs_.isFile(path) || flags == 1) {
            if (!vfs_.createFile(path, out.stamp)) {
                out.ret = -1;
                return out;
            }
        }
    }
    std::int64_t fdno = forced_fd ? *forced_fd : nextFd_++;
    if (forced_fd)
        nextFd_ = std::max(nextFd_, fdno + 1);
    Fd fd;
    fd.kind = Fd::Kind::File;
    fd.path = path;
    fd.flags = flags;
    fd.offset = flags == 2
        ? static_cast<std::int64_t>(vfs_.content(path).size()) : 0;
    fds_[fdno] = std::move(fd);
    out.ret = fdno;
    return out;
}

Outcome
Kernel::doRead(Fd &fd, std::int64_t cap)
{
    Outcome out;
    out.stamp = now();
    if (cap < 0)
        cap = 0;
    switch (fd.kind) {
      case Fd::Kind::File: {
        const std::string &content = vfs_.content(fd.path);
        std::int64_t avail =
            std::max<std::int64_t>(0,
                static_cast<std::int64_t>(content.size()) - fd.offset);
        std::int64_t n = std::min(cap, avail);
        out.data = content.substr(static_cast<std::size_t>(fd.offset),
                                  static_cast<std::size_t>(n));
        fd.offset += n;
        out.ret = n;
        return out;
      }
      case Fd::Kind::SocketServerConn: {
        std::int64_t avail =
            std::max<std::int64_t>(0,
                static_cast<std::int64_t>(fd.request.size()) - fd.offset);
        std::int64_t n = std::min(cap, avail);
        out.data = fd.request.substr(static_cast<std::size_t>(fd.offset),
                                     static_cast<std::size_t>(n));
        fd.offset += n;
        out.ret = n;
        return out;
      }
      case Fd::Kind::SocketConn: {
        auto pit = spec_.peers.find(fd.host);
        if (pit == spec_.peers.end()) {
            out.ret = -1;
            return out;
        }
        const PeerScript &peer = pit->second;
        std::string resp;
        if (peer.echo) {
            resp = fd.echoBuf;
            fd.echoBuf.clear();
        } else if (fd.respIdx < peer.responses.size()) {
            resp = peer.responses[fd.respIdx++];
        }
        if (static_cast<std::int64_t>(resp.size()) > cap)
            resp.resize(static_cast<std::size_t>(cap));
        out.data = resp;
        out.ret = static_cast<std::int64_t>(resp.size());
        return out;
      }
      default:
        out.ret = -1;
        return out;
    }
}

Outcome
Kernel::doWrite(std::int64_t fdno, Fd &fd, const std::string &payload,
                std::int64_t stamp)
{
    Outcome out;
    out.stamp = stamp;
    switch (fd.kind) {
      case Fd::Kind::File: {
        std::string content = vfs_.content(fd.path);
        std::size_t off = static_cast<std::size_t>(fd.offset);
        if (content.size() < off + payload.size())
            content.resize(off + payload.size(), '\0');
        content.replace(off, payload.size(), payload);
        vfs_.setContent(fd.path, std::move(content), stamp);
        fd.offset += static_cast<std::int64_t>(payload.size());
        break;
      }
      case Fd::Kind::SocketConn:
        fd.echoBuf = payload;
        break;
      case Fd::Kind::SocketServerConn:
        break;
      default:
        out.ret = -1;
        return out;
    }
    journalOutput(static_cast<std::int64_t>(
                      fd.kind == Fd::Kind::File ? Sys::Write : Sys::Send),
                  channelOfFd(fdno), payload);
    out.ret = static_cast<std::int64_t>(payload.size());
    return out;
}

Outcome
Kernel::doAccept(std::optional<std::int64_t> forced_fd)
{
    Outcome out;
    out.stamp = now();
    if (nextIncoming_ >= spec_.incoming.size()) {
        out.ret = -1;
        return out;
    }
    Fd fd;
    fd.kind = Fd::Kind::SocketServerConn;
    fd.incomingIdx = nextIncoming_;
    fd.request = spec_.incoming[nextIncoming_++].request;
    std::int64_t fdno = forced_fd ? *forced_fd : nextFd_++;
    if (forced_fd)
        nextFd_ = std::max(nextFd_, fdno + 1);
    fds_[fdno] = std::move(fd);
    out.ret = fdno;
    return out;
}

Outcome
Kernel::execute(std::int64_t no, const std::vector<std::int64_t> &args,
                MemAccess &mem)
{
    ++stats_.executes;
    accountOp(no);
    Outcome out;
    out.stamp = now();
    Sys sys = static_cast<Sys>(no);
    switch (sys) {
      case Sys::Open:
        return doOpen(args, mem, std::nullopt);
      case Sys::Read:
      case Sys::Recv: {
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end()) {
            out.ret = -1;
            return out;
        }
        out = doRead(it->second, arg(args, 2));
        if (!out.data.empty())
            mem.writeBytes(static_cast<std::uint64_t>(arg(args, 1)),
                           out.data);
        return out;
      }
      case Sys::Write:
      case Sys::Send: {
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end()) {
            out.ret = -1;
            return out;
        }
        std::string payload =
            mem.readBytes(static_cast<std::uint64_t>(arg(args, 1)),
                          static_cast<std::uint64_t>(
                              std::max<std::int64_t>(0, arg(args, 2))));
        return doWrite(arg(args, 0), it->second, payload, out.stamp);
      }
      case Sys::Close:
        out.ret = fds_.erase(arg(args, 0)) ? 0 : -1;
        return out;
      case Sys::Lseek: {
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end() || it->second.kind != Fd::Kind::File) {
            out.ret = -1;
            return out;
        }
        std::int64_t base = 0;
        std::int64_t whence = arg(args, 2);
        if (whence == 1) {
            base = it->second.offset;
        } else if (whence == 2) {
            base = static_cast<std::int64_t>(
                vfs_.content(it->second.path).size());
        }
        it->second.offset = std::max<std::int64_t>(0, base + arg(args, 1));
        out.ret = it->second.offset;
        return out;
      }
      case Sys::Socket: {
        Fd fd;
        fd.kind = Fd::Kind::SocketFresh;
        std::int64_t fdno = nextFd_++;
        fds_[fdno] = std::move(fd);
        out.ret = fdno;
        return out;
      }
      case Sys::Connect: {
        auto it = fds_.find(arg(args, 0));
        std::string host = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 1)));
        if (it == fds_.end() ||
            it->second.kind != Fd::Kind::SocketFresh ||
            spec_.peers.find(host) == spec_.peers.end()) {
            out.ret = -1;
            return out;
        }
        it->second.kind = Fd::Kind::SocketConn;
        it->second.host = host;
        out.ret = 0;
        return out;
      }
      case Sys::Listen: {
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end() ||
            it->second.kind != Fd::Kind::SocketFresh) {
            out.ret = -1;
            return out;
        }
        it->second.kind = Fd::Kind::SocketListen;
        out.ret = 0;
        return out;
      }
      case Sys::Accept: {
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end() ||
            it->second.kind != Fd::Kind::SocketListen) {
            out.ret = -1;
            return out;
        }
        return doAccept(std::nullopt);
      }
      case Sys::Mkdir: {
        std::string path = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 0)));
        out.ret = vfs_.mkdir(path, out.stamp) ? 0 : -1;
        return out;
      }
      case Sys::Rmdir: {
        std::string path = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 0)));
        out.ret = vfs_.rmdir(path) ? 0 : -1;
        return out;
      }
      case Sys::Unlink: {
        std::string path = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 0)));
        out.ret = vfs_.unlink(path) ? 0 : -1;
        return out;
      }
      case Sys::Rename: {
        std::string from = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 0)));
        std::string to = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 1)));
        out.ret = vfs_.rename(from, to, out.stamp) ? 0 : -1;
        return out;
      }
      case Sys::Stat: {
        std::string path = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 0)));
        auto st = vfs_.stat(path);
        if (!st) {
            out.ret = -1;
            return out;
        }
        std::string buf(16, '\0');
        for (int i = 0; i < 8; ++i) {
            buf[i] = static_cast<char>((st->size >> (8 * i)) & 0xff);
            buf[8 + i] = static_cast<char>((st->mtime >> (8 * i)) & 0xff);
        }
        out.data = buf;
        mem.writeBytes(static_cast<std::uint64_t>(arg(args, 1)), buf);
        out.ret = 0;
        return out;
      }
      case Sys::Time:
        ++clockQueries_;
        out.ret = now();
        return out;
      case Sys::Rdtsc:
        out.ret = static_cast<std::int64_t>(
            instrTicks_ * 3 + (rdtscPrng_.next() & 0xff));
        return out;
      case Sys::Random:
        out.ret = static_cast<std::int64_t>(randomPrng_.next() & 0x7fffffff);
        return out;
      case Sys::GetPid:
        out.ret = spec_.pid;
        return out;
      case Sys::GetEnv: {
        std::string name = mem.readCString(
            static_cast<std::uint64_t>(arg(args, 0)));
        auto it = spec_.env.find(name);
        if (it == spec_.env.end()) {
            out.ret = -1;
            return out;
        }
        std::string value = it->second;
        std::int64_t cap = arg(args, 2);
        if (static_cast<std::int64_t>(value.size()) > cap)
            value.resize(static_cast<std::size_t>(std::max<std::int64_t>(
                0, cap)));
        out.data = value;
        mem.writeBytes(static_cast<std::uint64_t>(arg(args, 1)), value);
        out.ret = static_cast<std::int64_t>(value.size());
        return out;
      }
      case Sys::Print: {
        std::string payload =
            mem.readBytes(static_cast<std::uint64_t>(arg(args, 0)),
                          static_cast<std::uint64_t>(
                              std::max<std::int64_t>(0, arg(args, 1))));
        journalOutput(no, "console", payload);
        out.ret = static_cast<std::int64_t>(payload.size());
        return out;
      }
      case Sys::Exit:
        exited_ = true;
        exitCode_ = arg(args, 0);
        out.exited = true;
        return out;
      default:
        fatal("kernel cannot execute syscall " + sysName(no));
    }
}

bool
Kernel::replay(std::int64_t no, const std::vector<std::int64_t> &args,
               const Outcome &out, MemAccess &mem)
{
    ++stats_.replays;
    accountOp(no);
    Sys sys = static_cast<Sys>(no);
    switch (sys) {
      case Sys::Open: {
        if (out.ret < 0)
            return true;
        Outcome local = doOpen(args, mem, out.ret);
        return local.ret == out.ret;
      }
      case Sys::Read:
      case Sys::Recv: {
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end())
            return false;
        Fd &fd = it->second;
        // Advance our clone's cursor by what the master consumed.
        switch (fd.kind) {
          case Fd::Kind::File:
          case Fd::Kind::SocketServerConn:
            fd.offset += static_cast<std::int64_t>(out.data.size());
            break;
          case Fd::Kind::SocketConn: {
            auto pit = spec_.peers.find(fd.host);
            if (pit != spec_.peers.end() && !pit->second.echo)
                ++fd.respIdx;
            fd.echoBuf.clear();
            break;
          }
          default:
            return false;
        }
        if (!out.data.empty())
            mem.writeBytes(static_cast<std::uint64_t>(arg(args, 1)),
                           out.data);
        return true;
      }
      case Sys::Write:
      case Sys::Send: {
        // The slave skips the external effect but applies its own
        // payload to its world clone so later reads stay coherent.
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end())
            return false;
        std::string payload =
            mem.readBytes(static_cast<std::uint64_t>(arg(args, 1)),
                          static_cast<std::uint64_t>(
                              std::max<std::int64_t>(0, arg(args, 2))));
        doWrite(arg(args, 0), it->second, payload, out.stamp);
        return true;
      }
      case Sys::Close:
        return fds_.erase(arg(args, 0)) > 0;
      case Sys::Lseek: {
        Outcome local = execute(no, args, mem);
        return local.ret == out.ret;
      }
      case Sys::Socket: {
        Fd fd;
        fd.kind = Fd::Kind::SocketFresh;
        fds_[out.ret] = std::move(fd);
        nextFd_ = std::max(nextFd_, out.ret + 1);
        return true;
      }
      case Sys::Connect:
      case Sys::Listen: {
        Outcome local = execute(no, args, mem);
        return local.ret == out.ret;
      }
      case Sys::Accept: {
        if (out.ret < 0) {
            // Master saw an empty queue; mirror by consuming nothing.
            return nextIncoming_ >= spec_.incoming.size();
        }
        Outcome local = doAccept(out.ret);
        return local.ret == out.ret;
      }
      case Sys::Mkdir:
      case Sys::Rmdir:
      case Sys::Unlink:
      case Sys::Rename: {
        Outcome local = execute(no, args, mem);
        // Mtime stamping should follow the master's clock.
        return local.ret == out.ret;
      }
      case Sys::Stat:
      case Sys::GetEnv:
        if (!out.data.empty())
            mem.writeBytes(static_cast<std::uint64_t>(arg(args, 1)),
                           out.data);
        return true;
      case Sys::Time:
        ++clockQueries_;
        return true;
      case Sys::Rdtsc:
        rdtscPrng_.next();
        return true;
      case Sys::Random:
        randomPrng_.next();
        return true;
      case Sys::GetPid:
        return true;
      case Sys::Print:
        journalOutput(no, "console",
                      mem.readBytes(
                          static_cast<std::uint64_t>(arg(args, 0)),
                          static_cast<std::uint64_t>(
                              std::max<std::int64_t>(0, arg(args, 1)))));
        return true;
      case Sys::Exit:
        exited_ = true;
        exitCode_ = arg(args, 0);
        return true;
      default:
        return false;
    }
}

std::string
Kernel::resourceKey(std::int64_t no, const std::vector<std::int64_t> &args,
                    const MemAccess &mem) const
{
    Sys sys = static_cast<Sys>(no);
    switch (sys) {
      case Sys::Open:
      case Sys::Mkdir:
      case Sys::Rmdir:
      case Sys::Unlink:
      case Sys::Stat:
      case Sys::Rename:
        return "path:" + Vfs::normalize(mem.readCString(
                   static_cast<std::uint64_t>(arg(args, 0))));
      case Sys::Connect:
        return "net:" + mem.readCString(
                   static_cast<std::uint64_t>(arg(args, 1)));
      case Sys::Read:
      case Sys::Write:
      case Sys::Send:
      case Sys::Recv:
      case Sys::Close:
      case Sys::Lseek: {
        auto it = fds_.find(arg(args, 0));
        if (it == fds_.end())
            return "";
        const Fd &fd = it->second;
        if (fd.kind == Fd::Kind::File)
            return "path:" + fd.path;
        if (fd.kind == Fd::Kind::SocketConn)
            return "net:" + fd.host;
        if (fd.kind == Fd::Kind::SocketServerConn)
            return "net:client";
        return "";
      }
      case Sys::Accept:
      case Sys::Listen:
        return "net:server";
      case Sys::GetEnv:
        return "env:" + mem.readCString(
                   static_cast<std::uint64_t>(arg(args, 0)));
      case Sys::MutexLock:
      case Sys::MutexUnlock:
        return "mutex:" + std::to_string(arg(args, 0));
      default:
        return "";
    }
}

std::string
Kernel::sinkPayload(std::int64_t no, const std::vector<std::int64_t> &args,
                    const MemAccess &mem) const
{
    Sys sys = static_cast<Sys>(no);
    switch (sys) {
      case Sys::Write:
      case Sys::Send: {
        std::string payload =
            mem.readBytes(static_cast<std::uint64_t>(arg(args, 1)),
                          static_cast<std::uint64_t>(
                              std::max<std::int64_t>(0, arg(args, 2))));
        return channelOfFd(arg(args, 0)) + "|" + payload;
      }
      case Sys::Print:
        return std::string("console|") +
               mem.readBytes(static_cast<std::uint64_t>(arg(args, 0)),
                             static_cast<std::uint64_t>(
                                 std::max<std::int64_t>(0, arg(args, 1))));
      default:
        return "";
    }
}

} // namespace ldx::os
