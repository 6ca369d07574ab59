#include "lang/compiler.h"

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "ir/builder.h"
#include "ir/verifier.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "os/sysno.h"
#include "support/diag.h"

namespace ldx::lang {

namespace {

using ir::Opcode;
using ir::Operand;

/** Builtin classification. */
struct Builtin
{
    enum class Kind { Syscall, Lib, Puts, Printi, IMalloc };
    Kind kind;
    std::int64_t id = 0; ///< syscall number or LibRoutine
    int numArgs = 0;
    Type retType = Type::Int;
};

const std::map<std::string, Builtin> &
builtins()
{
    using os::Sys;
    using ir::LibRoutine;
    auto sys = [](Sys s, int n, Type rt = Type::Int) {
        return Builtin{Builtin::Kind::Syscall,
                       static_cast<std::int64_t>(s), n, rt};
    };
    auto lib = [](LibRoutine r, int n, Type rt = Type::Int) {
        return Builtin{Builtin::Kind::Lib,
                       static_cast<std::int64_t>(r), n, rt};
    };
    static const std::map<std::string, Builtin> table = {
        {"open", sys(Sys::Open, 2)},
        {"read", sys(Sys::Read, 3)},
        {"write", sys(Sys::Write, 3)},
        {"close", sys(Sys::Close, 1)},
        {"lseek", sys(Sys::Lseek, 3)},
        {"socket", sys(Sys::Socket, 0)},
        {"connect", sys(Sys::Connect, 2)},
        {"send", sys(Sys::Send, 3)},
        {"recv", sys(Sys::Recv, 3)},
        {"listen", sys(Sys::Listen, 2)},
        {"accept", sys(Sys::Accept, 1)},
        {"mkdir", sys(Sys::Mkdir, 1)},
        {"rmdir", sys(Sys::Rmdir, 1)},
        {"unlink", sys(Sys::Unlink, 1)},
        {"rename", sys(Sys::Rename, 2)},
        {"stat", sys(Sys::Stat, 2)},
        {"time", sys(Sys::Time, 0)},
        {"rdtsc", sys(Sys::Rdtsc, 0)},
        {"random", sys(Sys::Random, 0)},
        {"getpid", sys(Sys::GetPid, 0)},
        {"getenv", sys(Sys::GetEnv, 3)},
        {"print", sys(Sys::Print, 2)},
        {"exit", sys(Sys::Exit, 1)},
        {"spawn", sys(Sys::ThreadCreate, 2)},
        {"join", sys(Sys::ThreadJoin, 1)},
        {"lock", sys(Sys::MutexLock, 1)},
        {"unlock", sys(Sys::MutexUnlock, 1)},
        {"yield", sys(Sys::Yield, 0)},
        {"memcpy", lib(LibRoutine::Memcpy, 3, Type::CharPtr)},
        {"memset", lib(LibRoutine::Memset, 3, Type::CharPtr)},
        {"strlen", lib(LibRoutine::Strlen, 1)},
        {"strcmp", lib(LibRoutine::Strcmp, 2)},
        {"strcpy", lib(LibRoutine::Strcpy, 2, Type::CharPtr)},
        {"strcat", lib(LibRoutine::Strcat, 2, Type::CharPtr)},
        {"atoi", lib(LibRoutine::Atoi, 1)},
        {"itoa", lib(LibRoutine::Itoa, 2, Type::CharPtr)},
        {"malloc", lib(LibRoutine::Malloc, 1, Type::CharPtr)},
        {"free", lib(LibRoutine::Free, 1)},
        {"puts", {Builtin::Kind::Puts, 0, 1, Type::Int}},
        {"printi", {Builtin::Kind::Printi, 0, 1, Type::Int}},
        {"imalloc", {Builtin::Kind::IMalloc, 0, 1, Type::IntPtr}},
    };
    return table;
}

/** A value with the type info codegen needs for scaling/width. */
struct TypedVal
{
    Operand op;
    Type type = Type::Int;
};

/** Where a local variable lives. */
struct LocalSlot
{
    Type type = Type::Int;
    bool inMemory = false;
    int reg = -1;      ///< value register, or address register if
                       ///< inMemory
    bool isArray = false;
};

[[noreturn]] void
semaError(int line, const std::string &msg)
{
    fatal("error at line " + std::to_string(line) + ": " + msg);
}

/** Is @p t a pointer-ish type (scaled arithmetic / typed loads)? */
bool
isPtr(Type t)
{
    return t == Type::IntPtr || t == Type::CharPtr;
}

/** Element type addressed through @p t. */
Type
pointee(Type t)
{
    return t == Type::CharPtr ? Type::Char : Type::Int;
}

/** Pointer type to @p t. */
Type
ptrTo(Type t)
{
    return t == Type::Char ? Type::CharPtr : Type::IntPtr;
}

/** Per-program code generator. */
class Codegen
{
  public:
    explicit Codegen(const Program &prog)
        : prog_(prog), module_(std::make_unique<ir::Module>())
    {}

    std::unique_ptr<ir::Module>
    run()
    {
        declareGlobals();
        declareFunctions();
        for (const FuncDecl &fn : prog_.functions)
            genFunction(fn);
        return std::move(module_);
    }

  private:
    // ---------------------------------------------------------- setup
    void
    declareGlobals()
    {
        for (const VarDecl &g : prog_.globals) {
            std::int64_t size;
            std::string init;
            if (g.isArray) {
                size = g.arraySize * elemSizeOf(g.type);
                if (g.hasStrInit)
                    init = g.strInit + '\0';
            } else {
                size = 8;
                if (g.init) {
                    std::int64_t v = constEval(*g.init);
                    init.assign(8, '\0');
                    for (int i = 0; i < 8; ++i)
                        init[static_cast<std::size_t>(i)] =
                            static_cast<char>((v >> (8 * i)) & 0xff);
                }
            }
            if (globalVars_.count(g.name))
                semaError(g.line, "duplicate global '" + g.name + "'");
            int id = module_->addGlobal(g.name, size, init);
            globalVars_[g.name] = {id, g.type, g.isArray};
        }
    }

    void
    declareFunctions()
    {
        for (const FuncDecl &fn : prog_.functions) {
            if (module_->findFunction(fn.name) ||
                builtins().count(fn.name))
                semaError(fn.line, "duplicate function '" + fn.name + "'");
            module_->addFunction(fn.name,
                                 static_cast<int>(fn.params.size()));
        }
    }

    std::int64_t
    constEval(const Expr &e)
    {
        if (e.kind == Expr::Kind::Num)
            return e.value;
        if (e.kind == Expr::Kind::Unary &&
            e.op == static_cast<int>(Tok::Minus))
            return static_cast<std::int64_t>(
                0 - static_cast<std::uint64_t>(constEval(*e.lhs)));
        semaError(e.line, "global initializer must be constant");
    }

    // ----------------------------------------------- address-taken set
    void
    collectAddrTaken(const Expr &e, std::set<std::string> &out)
    {
        if (e.kind == Expr::Kind::Unary &&
            e.op == static_cast<int>(Tok::Amp) &&
            e.lhs->kind == Expr::Kind::Var &&
            !module_->findFunction(e.lhs->name)) {
            out.insert(e.lhs->name);
        }
        if (e.lhs)
            collectAddrTaken(*e.lhs, out);
        if (e.rhs)
            collectAddrTaken(*e.rhs, out);
        for (const ExprPtr &a : e.args)
            collectAddrTaken(*a, out);
    }

    void
    collectAddrTaken(const Stmt &s, std::set<std::string> &out)
    {
        if (s.lhs)
            collectAddrTaken(*s.lhs, out);
        if (s.expr)
            collectAddrTaken(*s.expr, out);
        if (s.decl.init)
            collectAddrTaken(*s.decl.init, out);
        for (const StmtPtr &b : s.body)
            collectAddrTaken(*b, out);
        if (s.thenStmt)
            collectAddrTaken(*s.thenStmt, out);
        if (s.elseStmt)
            collectAddrTaken(*s.elseStmt, out);
        if (s.forInit)
            collectAddrTaken(*s.forInit, out);
        if (s.forStep)
            collectAddrTaken(*s.forStep, out);
    }

    /** Hoist allocas for array/addr-taken decls into the entry block. */
    void
    hoistAllocas(const Stmt &s)
    {
        if (s.kind == Stmt::Kind::Decl) {
            const VarDecl &d = s.decl;
            bool mem = d.isArray || addrTaken_.count(d.name) > 0;
            if (mem) {
                std::int64_t bytes = d.isArray
                    ? d.arraySize * elemSizeOf(d.type)
                    : 8;
                declSlots_[&s] = b_->emitAlloca(bytes);
            }
        }
        for (const StmtPtr &b : s.body)
            hoistAllocas(*b);
        if (s.thenStmt)
            hoistAllocas(*s.thenStmt);
        if (s.elseStmt)
            hoistAllocas(*s.elseStmt);
        if (s.forInit)
            hoistAllocas(*s.forInit);
        if (s.forStep)
            hoistAllocas(*s.forStep);
    }

    // ------------------------------------------------------- function
    void
    genFunction(const FuncDecl &decl)
    {
        fn_ = module_->findFunction(decl.name);
        ir::Function &fn = *fn_;
        fn.newBlock(); // entry (id 0)
        ir::IRBuilder builder(fn);
        b_ = &builder;
        b_->setBlock(ir::Function::entryBlockId);
        b_->setLoc({decl.line, 0});

        addrTaken_.clear();
        declSlots_.clear();
        scopes_.clear();
        scopes_.emplace_back();
        collectAddrTaken(*decl.body, addrTaken_);

        // Return plumbing: single exit block.
        retReg_ = fn.newReg();
        b_->emitMoveTo(retReg_, Operand::makeImm(0));

        // Parameters: registers r0..; spill the address-taken ones.
        for (std::size_t i = 0; i < decl.params.size(); ++i) {
            const VarDecl &p = decl.params[i];
            LocalSlot slot;
            slot.type = p.type;
            if (addrTaken_.count(p.name)) {
                slot.inMemory = true;
                int addr = b_->emitAlloca(8);
                b_->emitStore(Operand::makeReg(addr),
                              Operand::makeReg(static_cast<int>(i)), 8);
                slot.reg = addr;
            } else {
                slot.reg = static_cast<int>(i);
            }
            defineLocal(p.name, slot, p.line);
        }

        hoistAllocas(*decl.body);

        exitBlock_ = static_cast<int>(fn.numBlocks());
        fn.newBlock();

        loopStack_.clear();
        genStmt(*decl.body);

        if (!fn.block(b_->currentBlock()).isTerminated())
            b_->emitBr(exitBlock_);

        b_->setBlock(exitBlock_);
        b_->emitRet(Operand::makeReg(retReg_));

        // Terminate any dead blocks left open by unreachable joins.
        for (std::size_t i = 0; i < fn.numBlocks(); ++i) {
            ir::BasicBlock &bb = fn.block(static_cast<int>(i));
            if (!bb.isTerminated()) {
                b_->setBlock(static_cast<int>(i));
                b_->emitBr(exitBlock_);
            }
        }
        b_ = nullptr;
        fn_ = nullptr;
    }

    // --------------------------------------------------------- scopes
    void
    defineLocal(const std::string &name, LocalSlot slot, int line)
    {
        auto &scope = scopes_.back();
        if (scope.count(name))
            semaError(line, "redeclaration of '" + name + "'");
        scope[name] = slot;
    }

    const LocalSlot *
    findLocal(const std::string &name) const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return &f->second;
        }
        return nullptr;
    }

    // ----------------------------------------------------- statements
    bool
    terminated() const
    {
        return fn_->block(b_->currentBlock()).isTerminated();
    }

    void
    genStmt(const Stmt &s)
    {
        if (terminated())
            return; // dead code after return/break/continue
        b_->setLoc({s.line, 0});
        switch (s.kind) {
          case Stmt::Kind::Block: {
            scopes_.emplace_back();
            for (const StmtPtr &sub : s.body) {
                if (terminated())
                    break;
                genStmt(*sub);
            }
            scopes_.pop_back();
            break;
          }
          case Stmt::Kind::Decl:
            genDecl(s);
            break;
          case Stmt::Kind::Assign:
            genAssign(*s.lhs, *s.expr);
            break;
          case Stmt::Kind::ExprStmt:
            genExpr(*s.expr);
            break;
          case Stmt::Kind::Return: {
            if (s.expr) {
                TypedVal v = genExpr(*s.expr);
                b_->emitMoveTo(retReg_, v.op);
            }
            b_->emitBr(exitBlock_);
            break;
          }
          case Stmt::Kind::If:
            genIf(s);
            break;
          case Stmt::Kind::While:
            genWhile(s);
            break;
          case Stmt::Kind::DoWhile:
            genDoWhile(s);
            break;
          case Stmt::Kind::For:
            genFor(s);
            break;
          case Stmt::Kind::Break:
            if (loopStack_.empty())
                semaError(s.line, "'break' outside a loop");
            b_->emitBr(loopStack_.back().exitBlock);
            break;
          case Stmt::Kind::Continue:
            if (loopStack_.empty())
                semaError(s.line, "'continue' outside a loop");
            b_->emitBr(loopStack_.back().latchBlock);
            break;
        }
    }

    void
    genDecl(const Stmt &s)
    {
        const VarDecl &d = s.decl;
        auto slot_it = declSlots_.find(&s);
        LocalSlot slot;
        slot.type = d.type;
        slot.isArray = d.isArray;
        if (slot_it != declSlots_.end()) {
            slot.inMemory = true;
            slot.reg = slot_it->second;
            if (d.isArray && d.hasStrInit) {
                // Copy the string literal into the stack array.
                int src = internString(d.strInit);
                b_->emitLibCall(ir::LibRoutine::Strcpy,
                                {Operand::makeReg(slot.reg),
                                 Operand::makeReg(src)});
            } else if (!d.isArray && d.init) {
                TypedVal v = genExpr(*d.init);
                b_->emitStore(Operand::makeReg(slot.reg), v.op, 8);
            }
        } else {
            TypedVal v = d.init ? genExpr(*d.init)
                                : TypedVal{Operand::makeImm(0), d.type};
            int reg = fn_->newReg();
            b_->emitMoveTo(reg, v.op);
            slot.reg = reg;
        }
        defineLocal(d.name, slot, d.line);
    }

    void
    genAssign(const Expr &lhs, const Expr &rhs)
    {
        // Register-resident scalar?
        if (lhs.kind == Expr::Kind::Var) {
            const LocalSlot *slot = findLocal(lhs.name);
            if (slot && !slot->inMemory) {
                TypedVal v = genExpr(rhs);
                b_->emitMoveTo(slot->reg, v.op);
                return;
            }
        }
        auto [addr, elem] = genAddr(lhs);
        TypedVal v = genExpr(rhs);
        b_->emitStore(addr, v.op, elemSizeOf(elem));
    }

    void
    genIf(const Stmt &s)
    {
        int then_bb = newBlock();
        int else_bb = s.elseStmt ? newBlock() : -1;
        int join_bb = newBlock();
        genCondBr(*s.expr, then_bb, s.elseStmt ? else_bb : join_bb);

        b_->setBlock(then_bb);
        genStmt(*s.thenStmt);
        if (!terminated())
            b_->emitBr(join_bb);

        if (s.elseStmt) {
            b_->setBlock(else_bb);
            genStmt(*s.elseStmt);
            if (!terminated())
                b_->emitBr(join_bb);
        }
        b_->setBlock(join_bb);
    }

    void
    genWhile(const Stmt &s)
    {
        int cond_bb = newBlock();
        int body_bb = newBlock();
        int latch_bb = newBlock();
        int exit_bb = newBlock();

        b_->emitBr(cond_bb);
        b_->setBlock(cond_bb);
        genCondBr(*s.expr, body_bb, exit_bb);

        loopStack_.push_back({latch_bb, exit_bb});
        b_->setBlock(body_bb);
        genStmt(*s.thenStmt);
        if (!terminated())
            b_->emitBr(latch_bb);
        loopStack_.pop_back();

        b_->setBlock(latch_bb);
        b_->emitBr(cond_bb); // the back edge

        b_->setBlock(exit_bb);
    }

    void
    genDoWhile(const Stmt &s)
    {
        int body_bb = newBlock();
        int latch_bb = newBlock();
        int exit_bb = newBlock();

        b_->emitBr(body_bb);
        loopStack_.push_back({latch_bb, exit_bb});
        b_->setBlock(body_bb);
        genStmt(*s.thenStmt);
        if (!terminated())
            b_->emitBr(latch_bb);
        loopStack_.pop_back();

        b_->setBlock(latch_bb);
        genCondBr(*s.expr, body_bb, exit_bb); // back edge on true

        b_->setBlock(exit_bb);
    }

    void
    genFor(const Stmt &s)
    {
        scopes_.emplace_back(); // init declarations scope
        if (s.forInit)
            genStmt(*s.forInit);

        int cond_bb = newBlock();
        int body_bb = newBlock();
        int latch_bb = newBlock();
        int exit_bb = newBlock();

        b_->emitBr(cond_bb);
        b_->setBlock(cond_bb);
        if (s.expr)
            genCondBr(*s.expr, body_bb, exit_bb);
        else
            b_->emitBr(body_bb);

        loopStack_.push_back({latch_bb, exit_bb});
        b_->setBlock(body_bb);
        genStmt(*s.thenStmt);
        if (!terminated())
            b_->emitBr(latch_bb);
        loopStack_.pop_back();

        b_->setBlock(latch_bb);
        if (s.forStep)
            genStmt(*s.forStep);
        b_->emitBr(cond_bb); // the back edge

        b_->setBlock(exit_bb);
        scopes_.pop_back();
    }

    // ---------------------------------------------------- expressions
    int
    newBlock()
    {
        return fn_->newBlock().id();
    }

    /** Emit a conditional branch on @p e (with && / || short circuit). */
    void
    genCondBr(const Expr &e, int true_bb, int false_bb)
    {
        if (e.kind == Expr::Kind::Binary) {
            Tok op = static_cast<Tok>(e.op);
            if (op == Tok::AndAnd) {
                int mid = newBlock();
                genCondBr(*e.lhs, mid, false_bb);
                b_->setBlock(mid);
                genCondBr(*e.rhs, true_bb, false_bb);
                return;
            }
            if (op == Tok::OrOr) {
                int mid = newBlock();
                genCondBr(*e.lhs, true_bb, mid);
                b_->setBlock(mid);
                genCondBr(*e.rhs, true_bb, false_bb);
                return;
            }
        }
        if (e.kind == Expr::Kind::Unary &&
            e.op == static_cast<int>(Tok::Bang)) {
            genCondBr(*e.lhs, false_bb, true_bb);
            return;
        }
        TypedVal v = genExpr(e);
        b_->emitCondBr(v.op, true_bb, false_bb);
    }

    /** Intern a string literal; returns a register with its address. */
    int
    internString(const std::string &s)
    {
        auto it = strings_.find(s);
        int gid;
        if (it != strings_.end()) {
            gid = it->second;
        } else {
            gid = module_->addGlobal(
                "str." + std::to_string(strings_.size()),
                static_cast<std::int64_t>(s.size()) + 1, s + '\0');
            strings_[s] = gid;
        }
        return b_->emitGlobalAddr(gid);
    }

    /** Compute the address of an lvalue; returns (addr, elem type). */
    std::pair<Operand, Type>
    genAddr(const Expr &e)
    {
        switch (e.kind) {
          case Expr::Kind::Var: {
            const LocalSlot *slot = findLocal(e.name);
            if (slot) {
                if (!slot->inMemory)
                    semaError(e.line, "cannot take the address of "
                                      "register variable '" + e.name +
                                      "' here");
                Type elem = slot->isArray ? slot->type : slot->type;
                return {Operand::makeReg(slot->reg), elem};
            }
            auto git = globalVars_.find(e.name);
            if (git != globalVars_.end()) {
                int addr = b_->emitGlobalAddr(git->second.id);
                return {Operand::makeReg(addr), git->second.type};
            }
            semaError(e.line, "unknown variable '" + e.name + "'");
          }
          case Expr::Kind::Index: {
            TypedVal base = genExpr(*e.lhs);
            TypedVal idx = genExpr(*e.rhs);
            Type elem = isPtr(base.type) ? pointee(base.type) : Type::Int;
            Operand off = idx.op;
            int scale = elemSizeOf(elem);
            if (scale != 1) {
                off = Operand::makeReg(
                    b_->emitBinary(Opcode::Mul, idx.op,
                                   Operand::makeImm(scale)));
            }
            int addr = b_->emitBinary(Opcode::Add, base.op, off);
            return {Operand::makeReg(addr), elem};
          }
          case Expr::Kind::Unary:
            if (e.op == static_cast<int>(Tok::Star)) {
                TypedVal p = genExpr(*e.lhs);
                Type elem = isPtr(p.type) ? pointee(p.type) : Type::Int;
                return {p.op, elem};
            }
            semaError(e.line, "expression is not an lvalue");
          default:
            semaError(e.line, "expression is not an lvalue");
        }
    }

    TypedVal
    genExpr(const Expr &e)
    {
        b_->setLoc({e.line, 0});
        switch (e.kind) {
          case Expr::Kind::Num:
            return {Operand::makeImm(e.value), Type::Int};
          case Expr::Kind::Str:
            return {Operand::makeReg(internString(e.str)),
                    Type::CharPtr};
          case Expr::Kind::Var:
            return genVar(e);
          case Expr::Kind::Unary:
            return genUnary(e);
          case Expr::Kind::Binary:
            return genBinary(e);
          case Expr::Kind::Call:
            return genCall(e);
          case Expr::Kind::Index: {
            auto [addr, elem] = genAddr(e);
            int v = b_->emitLoad(addr, elemSizeOf(elem));
            return {Operand::makeReg(v), elem};
          }
        }
        panic("unhandled expression kind");
    }

    TypedVal
    genVar(const Expr &e)
    {
        const LocalSlot *slot = findLocal(e.name);
        if (slot) {
            if (slot->isArray) // array decays to pointer
                return {Operand::makeReg(slot->reg), ptrTo(slot->type)};
            if (slot->inMemory) {
                int v = b_->emitLoad(Operand::makeReg(slot->reg), 8);
                return {Operand::makeReg(v), slot->type};
            }
            return {Operand::makeReg(slot->reg), slot->type};
        }
        auto git = globalVars_.find(e.name);
        if (git != globalVars_.end()) {
            int addr = b_->emitGlobalAddr(git->second.id);
            if (git->second.isArray)
                return {Operand::makeReg(addr), ptrTo(git->second.type)};
            int v = b_->emitLoad(Operand::makeReg(addr), 8);
            return {Operand::makeReg(v), git->second.type};
        }
        if (const ir::Function *fn = module_->findFunction(e.name)) {
            int v = b_->emitFnAddr(fn->id());
            return {Operand::makeReg(v), Type::FnPtr};
        }
        semaError(e.line, "unknown identifier '" + e.name + "'");
    }

    TypedVal
    genUnary(const Expr &e)
    {
        Tok op = static_cast<Tok>(e.op);
        switch (op) {
          case Tok::Minus: {
            TypedVal v = genExpr(*e.lhs);
            return {Operand::makeReg(b_->emitUnary(Opcode::Neg, v.op)),
                    Type::Int};
          }
          case Tok::Tilde: {
            TypedVal v = genExpr(*e.lhs);
            return {Operand::makeReg(b_->emitUnary(Opcode::Not, v.op)),
                    Type::Int};
          }
          case Tok::Bang: {
            TypedVal v = genExpr(*e.lhs);
            return {Operand::makeReg(
                        b_->emitBinary(Opcode::CmpEq, v.op,
                                       Operand::makeImm(0))),
                    Type::Int};
          }
          case Tok::Star: {
            TypedVal p = genExpr(*e.lhs);
            Type elem = isPtr(p.type) ? pointee(p.type) : Type::Int;
            int v = b_->emitLoad(p.op, elemSizeOf(elem));
            return {Operand::makeReg(v), elem};
          }
          case Tok::Amp: {
            // &function gives a function pointer.
            if (e.lhs->kind == Expr::Kind::Var) {
                if (const ir::Function *fn =
                        module_->findFunction(e.lhs->name)) {
                    if (!findLocal(e.lhs->name) &&
                        !globalVars_.count(e.lhs->name)) {
                        int v = b_->emitFnAddr(fn->id());
                        return {Operand::makeReg(v), Type::FnPtr};
                    }
                }
            }
            auto [addr, elem] = genAddr(*e.lhs);
            return {addr, ptrTo(elem)};
          }
          default:
            semaError(e.line, "bad unary operator");
        }
    }

    TypedVal
    genBinary(const Expr &e)
    {
        Tok op = static_cast<Tok>(e.op);
        if (op == Tok::AndAnd || op == Tok::OrOr) {
            // Produce 0/1 through control flow.
            int result = fn_->newReg();
            int true_bb = newBlock();
            int false_bb = newBlock();
            int join_bb = newBlock();
            genCondBr(e, true_bb, false_bb);
            b_->setBlock(true_bb);
            b_->emitMoveTo(result, Operand::makeImm(1));
            b_->emitBr(join_bb);
            b_->setBlock(false_bb);
            b_->emitMoveTo(result, Operand::makeImm(0));
            b_->emitBr(join_bb);
            b_->setBlock(join_bb);
            return {Operand::makeReg(result), Type::Int};
        }

        TypedVal l = genExpr(*e.lhs);
        TypedVal r = genExpr(*e.rhs);

        Opcode opc;
        switch (op) {
          case Tok::Plus: opc = Opcode::Add; break;
          case Tok::Minus: opc = Opcode::Sub; break;
          case Tok::Star: opc = Opcode::Mul; break;
          case Tok::Slash: opc = Opcode::Div; break;
          case Tok::Percent: opc = Opcode::Rem; break;
          case Tok::Amp: opc = Opcode::And; break;
          case Tok::Pipe: opc = Opcode::Or; break;
          case Tok::Caret: opc = Opcode::Xor; break;
          case Tok::Shl: opc = Opcode::Shl; break;
          case Tok::Shr: opc = Opcode::Shr; break;
          case Tok::Eq: opc = Opcode::CmpEq; break;
          case Tok::Ne: opc = Opcode::CmpNe; break;
          case Tok::Lt: opc = Opcode::CmpLt; break;
          case Tok::Le: opc = Opcode::CmpLe; break;
          case Tok::Gt: opc = Opcode::CmpGt; break;
          case Tok::Ge: opc = Opcode::CmpGe; break;
          default:
            semaError(e.line, "bad binary operator");
        }

        // Pointer arithmetic: scale the integer side.
        if ((opc == Opcode::Add || opc == Opcode::Sub)) {
            if (isPtr(l.type) && !isPtr(r.type)) {
                int scale = elemSizeOf(pointee(l.type));
                if (scale != 1)
                    r.op = Operand::makeReg(
                        b_->emitBinary(Opcode::Mul, r.op,
                                       Operand::makeImm(scale)));
                int v = b_->emitBinary(opc, l.op, r.op);
                return {Operand::makeReg(v), l.type};
            }
            if (isPtr(r.type) && !isPtr(l.type) && opc == Opcode::Add) {
                int scale = elemSizeOf(pointee(r.type));
                if (scale != 1)
                    l.op = Operand::makeReg(
                        b_->emitBinary(Opcode::Mul, l.op,
                                       Operand::makeImm(scale)));
                int v = b_->emitBinary(opc, l.op, r.op);
                return {Operand::makeReg(v), r.type};
            }
        }
        int v = b_->emitBinary(opc, l.op, r.op);
        return {Operand::makeReg(v), Type::Int};
    }

    TypedVal
    genCall(const Expr &e)
    {
        // Builtins.
        auto bit = builtins().find(e.name);
        if (bit != builtins().end() && !findLocal(e.name)) {
            const Builtin &bi = bit->second;
            if (static_cast<int>(e.args.size()) != bi.numArgs)
                semaError(e.line, "builtin '" + e.name + "' expects " +
                                  std::to_string(bi.numArgs) +
                                  " argument(s)");
            std::vector<Operand> args;
            for (const ExprPtr &a : e.args)
                args.push_back(genExpr(*a).op);
            switch (bi.kind) {
              case Builtin::Kind::Syscall:
                return {Operand::makeReg(b_->emitSyscall(bi.id, args)),
                        bi.retType};
              case Builtin::Kind::Lib:
                return {Operand::makeReg(
                            b_->emitLibCall(
                                static_cast<ir::LibRoutine>(bi.id),
                                args)),
                        bi.retType};
              case Builtin::Kind::Puts: {
                int len = b_->emitLibCall(ir::LibRoutine::Strlen,
                                          {args[0]});
                int r = b_->emitSyscall(
                    static_cast<std::int64_t>(os::Sys::Print),
                    {args[0], Operand::makeReg(len)});
                return {Operand::makeReg(r), Type::Int};
              }
              case Builtin::Kind::Printi: {
                int buf = b_->emitAlloca(24);
                b_->emitLibCall(ir::LibRoutine::Itoa,
                                {args[0], Operand::makeReg(buf)});
                int len = b_->emitLibCall(ir::LibRoutine::Strlen,
                                          {Operand::makeReg(buf)});
                int r = b_->emitSyscall(
                    static_cast<std::int64_t>(os::Sys::Print),
                    {Operand::makeReg(buf), Operand::makeReg(len)});
                return {Operand::makeReg(r), Type::Int};
              }
              case Builtin::Kind::IMalloc: {
                int bytes = b_->emitBinary(Opcode::Mul, args[0],
                                           Operand::makeImm(8));
                int r = b_->emitLibCall(ir::LibRoutine::Malloc,
                                        {Operand::makeReg(bytes)});
                return {Operand::makeReg(r), Type::IntPtr};
              }
            }
        }

        // Indirect call through a fn-typed variable.
        const LocalSlot *slot = findLocal(e.name);
        bool is_fn_var =
            (slot && slot->type == Type::FnPtr) ||
            (!slot && globalVars_.count(e.name) &&
             globalVars_.at(e.name).type == Type::FnPtr);
        if (is_fn_var) {
            Expr var;
            var.kind = Expr::Kind::Var;
            var.line = e.line;
            var.name = e.name;
            TypedVal fp = genVar(var);
            std::vector<Operand> args;
            for (const ExprPtr &a : e.args)
                args.push_back(genExpr(*a).op);
            return {Operand::makeReg(b_->emitICall(fp.op, args)),
                    Type::Int};
        }

        // Direct user call.
        const ir::Function *callee = module_->findFunction(e.name);
        if (!callee)
            semaError(e.line, "unknown function '" + e.name + "'");
        if (static_cast<int>(e.args.size()) != callee->numParams())
            semaError(e.line, "call to '" + e.name + "' with " +
                              std::to_string(e.args.size()) +
                              " args, expected " +
                              std::to_string(callee->numParams()));
        std::vector<Operand> args;
        for (const ExprPtr &a : e.args)
            args.push_back(genExpr(*a).op);
        return {Operand::makeReg(b_->emitCall(callee->id(), args)),
                Type::Int};
    }

    struct GlobalInfo
    {
        int id;
        Type type;
        bool isArray;
    };

    struct LoopCtx
    {
        int latchBlock;
        int exitBlock;
    };

    const Program &prog_;
    std::unique_ptr<ir::Module> module_;
    std::map<std::string, GlobalInfo> globalVars_;
    std::map<std::string, int> strings_;

    // Per-function state.
    ir::Function *fn_ = nullptr;
    ir::IRBuilder *b_ = nullptr;
    int retReg_ = -1;
    int exitBlock_ = -1;
    std::set<std::string> addrTaken_;
    std::map<const Stmt *, int> declSlots_;
    std::vector<std::map<std::string, LocalSlot>> scopes_;
    std::vector<LoopCtx> loopStack_;
};

} // namespace

std::unique_ptr<ir::Module>
compile(const Program &prog)
{
    return Codegen(prog).run();
}

std::unique_ptr<ir::Module>
compileSource(const std::string &source)
{
    return compileSource(source, nullptr);
}

std::unique_ptr<ir::Module>
compileSource(const std::string &source, obs::PhaseTimer *timer)
{
    if (!timer) {
        Program prog = parse(source);
        auto module = compile(prog);
        ir::verifyOrDie(*module);
        return module;
    }
    Program prog =
        timer->time("parse", [&] { return parse(source); });
    auto module = timer->time("irgen", [&] { return compile(prog); });
    timer->time("verify", [&] { ir::verifyOrDie(*module); });
    return module;
}

} // namespace ldx::lang
