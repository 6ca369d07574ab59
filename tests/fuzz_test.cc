/**
 * @file
 * Tests for the differential fuzzing subsystem (src/fuzz/): generator
 * determinism and feature coverage, oracle clean sweeps across the
 * config matrix, the fault-injection self-test (a known engine bug
 * must be caught and shrunk to a small reproducer), and the
 * `--metrics=json-stable` determinism contract.
 */
#include <gtest/gtest.h>

#include <set>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrinker.h"
#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "testutil.h"

namespace ldx {
namespace {

// ---------------------------------------------------------------
// Generator.
// ---------------------------------------------------------------

TEST(FuzzGenerator, SameSeedIsByteIdentical)
{
    for (std::uint64_t seed : {1, 7, 42, 1234}) {
        fuzz::ProgramGenerator a(seed);
        fuzz::ProgramGenerator b(seed);
        EXPECT_EQ(a.generate(), b.generate()) << "seed " << seed;
    }
}

TEST(FuzzGenerator, DifferentSeedsDiffer)
{
    fuzz::ProgramGenerator a(1);
    fuzz::ProgramGenerator b(2);
    EXPECT_NE(a.generate(), b.generate());
}

TEST(FuzzGenerator, WorldDerivationIsDeterministic)
{
    os::WorldSpec a = fuzz::ProgramGenerator::worldFor(9);
    os::WorldSpec b = fuzz::ProgramGenerator::worldFor(9);
    EXPECT_EQ(a.files, b.files);
    EXPECT_EQ(a.env, b.env);
    ASSERT_EQ(a.files.count("/input.txt"), 1u);
    EXPECT_EQ(a.files.at("/input.txt").size(), 48u);
}

TEST(FuzzGenerator, SweepCoversTheFullFeatureSet)
{
    // No single seed uses everything; the union over a small sweep
    // must. A weight regression that silently disables a feature
    // class trips this.
    std::string all;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        fuzz::ProgramGenerator gen(seed);
        all += gen.generate();
    }
    for (const char *needle :
         {"spawn(", "join(", "lock(", "unlock(", "int *", "char *",
          "fn ", "rec1(", "rec2(", "helper0(", "malloc(", "free(",
          "recv(", "send(", "connect(", "getenv(", "open(", "read(",
          "write(", "while (", "for (", "if (", "time()"}) {
        EXPECT_NE(all.find(needle), std::string::npos)
            << "feature never emitted: " << needle;
    }
}

TEST(FuzzGenerator, EveryProgramCompilesAndTerminates)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        fuzz::ProgramGenerator gen(seed);
        std::string source = gen.generate();
        SCOPED_TRACE("seed " + std::to_string(seed));
        test::RunResult r = test::runProgram(
            source, fuzz::ProgramGenerator::worldFor(seed));
        EXPECT_EQ(r.status, vm::StepStatus::Finished)
            << r.trapMessage << "\nprogram:\n" << source;
    }
}

TEST(FuzzGenerator, RenderWithRemovedNodesDropsSubtrees)
{
    fuzz::ProgramGenerator gen(5);
    fuzz::GenProgram prog = gen.generateProgram();
    ASSERT_GT(prog.numNodes, 0);
    std::string full = prog.render();
    EXPECT_EQ(full, prog.render({}, {}));
    // Removing an alive removable node must shrink the rendering.
    std::vector<int> alive = prog.aliveRemovable({}, {});
    ASSERT_FALSE(alive.empty());
    std::string reduced = prog.render({alive.front()}, {});
    EXPECT_LT(reduced.size(), full.size());
}

// ---------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------

TEST(FuzzOracle, CleanSweepQuickMatrix)
{
    fuzz::OracleOptions opt;
    opt.fullMatrix = false;
    fuzz::Oracle oracle(opt);
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        fuzz::SeedReport rep = oracle.run(seed);
        EXPECT_TRUE(rep.compiled) << "seed " << seed;
        EXPECT_TRUE(rep.violations.empty())
            << "seed " << seed << ": "
            << rep.violations.front().describe() << "\nprogram:\n"
            << rep.source;
    }
}

TEST(FuzzOracle, CleanSweepFullMatrix)
{
    fuzz::Oracle oracle;
    for (std::uint64_t seed = 30; seed <= 36; ++seed) {
        fuzz::SeedReport rep = oracle.run(seed);
        EXPECT_TRUE(rep.ok())
            << "seed " << seed << ": "
            << (rep.violations.empty()
                    ? "did not compile"
                    : rep.violations.front().describe())
            << "\nprogram:\n" << rep.source;
    }
}

TEST(FuzzOracle, MatrixShapes)
{
    EXPECT_EQ(fuzz::Oracle::matrix(true).size(), 16u);
    EXPECT_EQ(fuzz::Oracle::matrix(false).size(), 4u);
    std::set<std::string> names;
    for (const fuzz::CellSpec &c : fuzz::Oracle::matrix(true))
        names.insert(c.name());
    EXPECT_EQ(names.size(), 16u) << "cell slugs must be unique";
    EXPECT_EQ(names.count("threaded/fast/rec/mut"), 1u);
    EXPECT_EQ(names.count("lockstep/slow/norec/clean"), 1u);
}

TEST(FuzzOracle, UncompilableSourceIsRejectedNotViolating)
{
    fuzz::Oracle oracle;
    fuzz::SeedReport rep =
        oracle.runSource(1, "int main() { return undeclared(); }");
    EXPECT_FALSE(rep.compiled);
    EXPECT_TRUE(rep.violations.empty());
    EXPECT_FALSE(rep.ok());
}

// ---------------------------------------------------------------
// Fault injection + shrinker: the oracle must catch a known engine
// bug and delta-debug the seed to a small reproducer.
// ---------------------------------------------------------------

TEST(FuzzInjection, SkippedCompensationCounterIsCaughtAndShrunk)
{
    fuzz::OracleOptions opt;
    opt.fullMatrix = false;
    opt.checkDeterminism = false;
    opt.chaosSkipCntAddPeriod = 3;
    fuzz::Oracle oracle(opt);

    std::uint64_t found = 0;
    fuzz::SeedReport rep;
    for (std::uint64_t seed = 1; seed <= 500 && !found; ++seed) {
        rep = oracle.run(seed);
        if (rep.compiled && !rep.violations.empty())
            found = seed;
    }
    ASSERT_NE(found, 0u)
        << "injected bug not caught within 500 seeds";

    // The native final-counter invariant is the designed detector.
    bool counter_violation = false;
    for (const fuzz::Violation &v : rep.violations)
        counter_violation =
            counter_violation || v.invariant == "final-counter";
    EXPECT_TRUE(counter_violation)
        << rep.violations.front().describe();

    fuzz::ProgramGenerator gen(found);
    fuzz::Shrinker shrinker(oracle);
    fuzz::ShrinkResult sr =
        shrinker.shrink(found, gen.generateProgram());
    EXPECT_TRUE(sr.changed);

    // The reproducer still fails and is tiny.
    fuzz::SeedReport min_rep = oracle.runSource(found, sr.source);
    EXPECT_TRUE(min_rep.compiled);
    EXPECT_FALSE(min_rep.violations.empty());
    int lines = 0;
    for (char c : sr.source)
        lines += c == '\n';
    EXPECT_LE(lines, 30) << "reproducer not minimal:\n" << sr.source;
}

TEST(FuzzShrinker, CleanSeedShrinksToNothing)
{
    // On a healthy engine nothing fails, so the shrinker's predicate
    // rejects every candidate and reports no change.
    fuzz::OracleOptions opt;
    opt.fullMatrix = false;
    opt.checkDeterminism = false;
    fuzz::Oracle oracle(opt);
    fuzz::ProgramGenerator gen(3);
    fuzz::Shrinker shrinker(oracle, {40});
    fuzz::ShrinkResult sr = shrinker.shrink(3, gen.generateProgram());
    EXPECT_FALSE(sr.changed);
    EXPECT_EQ(sr.source, fuzz::ProgramGenerator(3).generate());
}

// ---------------------------------------------------------------
// Stable JSON determinism (`--metrics=json-stable`).
// ---------------------------------------------------------------

std::string
stableJsonFor(const ir::Module &module, const os::WorldSpec &world,
              bool threaded, std::uint64_t seed)
{
    core::EngineConfig cfg;
    cfg.threaded = threaded;
    cfg.wallClockCap = 30.0;
    cfg.sources = {core::SourceSpec::file("/input.txt", seed % 16)};
    core::DualEngine engine(module, world, cfg);
    core::DualResult res = engine.run();
    return core::resultJsonStable(res);
}

TEST(FuzzStableJson, IdenticalAcrossRunsAndDrivers)
{
    // Single-threaded guests only: a contended mutex may or may not
    // record a lock-order divergence depending on the driver (§7
    // best-effort sharing), which is exactly the nondeterminism the
    // threaded fingerprint in the oracle excludes.
    fuzz::GenOptions gopt;
    gopt.wThreads = 0;
    for (std::uint64_t seed : {2, 11, 23}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        fuzz::ProgramGenerator gen(seed, gopt);
        std::string source = gen.generate();
        ASSERT_EQ(source.find("spawn("), std::string::npos);
        auto module = lang::compileSource(source);
        instrument::CounterInstrumenter pass(*module);
        pass.run();
        os::WorldSpec world =
            fuzz::ProgramGenerator::worldFor(seed);

        std::string lockstep =
            stableJsonFor(*module, world, false, seed);
        EXPECT_TRUE(test::validJson(lockstep)) << lockstep;
        EXPECT_EQ(lockstep,
                  stableJsonFor(*module, world, false, seed));
        EXPECT_EQ(lockstep,
                  stableJsonFor(*module, world, true, seed));
        EXPECT_EQ(lockstep,
                  stableJsonFor(*module, world, true, seed));

        // No timing fields may appear.
        EXPECT_EQ(lockstep.find("wall_seconds"), std::string::npos);
        EXPECT_EQ(lockstep.find("driver."), std::string::npos);
        EXPECT_EQ(lockstep.find("chan."), std::string::npos);
        EXPECT_EQ(lockstep.find("recorder."), std::string::npos);
        EXPECT_EQ(lockstep.find("watchdog."), std::string::npos);
        EXPECT_NE(lockstep.find("\"causality\""), std::string::npos);
        EXPECT_NE(lockstep.find("\"divergence\""), std::string::npos);
    }
}

} // namespace
} // namespace ldx
