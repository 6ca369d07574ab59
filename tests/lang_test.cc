/**
 * @file
 * End-to-end tests of the MiniC frontend: compile and execute small
 * programs natively, asserting on exit codes and console output.
 */
#include <gtest/gtest.h>

#include <cstdint>

#include "support/diag.h"
#include "testutil.h"

namespace ldx {
namespace {

using test::runProgram;

TEST(LangTest, ReturnsConstant)
{
    auto r = runProgram("int main() { return 42; }");
    EXPECT_EQ(r.status, vm::StepStatus::Finished);
    EXPECT_EQ(r.exitCode, 42);
}

TEST(LangTest, Arithmetic)
{
    auto r = runProgram(
        "int main() { int x = 6; int y = 7; return x * y - 2; }");
    EXPECT_EQ(r.exitCode, 40);
}

TEST(LangTest, OperatorPrecedence)
{
    auto r = runProgram("int main() { return 2 + 3 * 4 - 10 / 5; }");
    EXPECT_EQ(r.exitCode, 12);
}

TEST(LangTest, HexAndBitOps)
{
    auto r = runProgram(
        "int main() { return (0xff & 0x0f) | (1 << 4); }");
    EXPECT_EQ(r.exitCode, 0x1f);
}

TEST(LangTest, IfElse)
{
    auto r = runProgram(
        "int main() { int x = 5;"
        "  if (x > 3) { return 1; } else { return 2; } }");
    EXPECT_EQ(r.exitCode, 1);
}

TEST(LangTest, WhileLoopSum)
{
    auto r = runProgram(
        "int main() { int i = 0; int s = 0;"
        "  while (i < 10) { s = s + i; i = i + 1; } return s; }");
    EXPECT_EQ(r.exitCode, 45);
}

TEST(LangTest, ForLoopWithBreakContinue)
{
    auto r = runProgram(
        "int main() { int s = 0;"
        "  for (int i = 0; i < 100; i = i + 1) {"
        "    if (i % 2 == 0) { continue; }"
        "    if (i > 9) { break; }"
        "    s = s + i;"
        "  } return s; }"); // 1+3+5+7+9
    EXPECT_EQ(r.exitCode, 25);
}

TEST(LangTest, DoWhile)
{
    auto r = runProgram(
        "int main() { int i = 0; int n = 0;"
        "  do { n = n + 1; i = i + 1; } while (i < 3);"
        "  return n; }");
    EXPECT_EQ(r.exitCode, 3);
}

TEST(LangTest, NestedLoops)
{
    auto r = runProgram(
        "int main() { int s = 0;"
        "  for (int i = 0; i < 4; i = i + 1) {"
        "    for (int j = 0; j < 3; j = j + 1) { s = s + 1; } }"
        "  return s; }");
    EXPECT_EQ(r.exitCode, 12);
}

TEST(LangTest, FunctionsAndRecursion)
{
    auto r = runProgram(
        "int fib(int n) { if (n < 2) { return n; }"
        "  return fib(n - 1) + fib(n - 2); }"
        "int main() { return fib(10); }");
    EXPECT_EQ(r.exitCode, 55);
}

TEST(LangTest, MutualRecursion)
{
    // Calls are resolved after all functions are declared, so mutual
    // recursion needs no forward declarations.
    auto r = runProgram(
        "int isEven(int n) { if (n == 0) { return 1; }"
        "  return isOdd(n - 1); }"
        "int isOdd(int n) { if (n == 0) { return 0; }"
        "  return isEven(n - 1); }"
        "int main() { return isEven(10) + isOdd(7) * 2; }");
    EXPECT_EQ(r.exitCode, 3);
}

TEST(LangTest, GlobalVariables)
{
    auto r = runProgram(
        "int counter = 5;"
        "int bump() { counter = counter + 1; return counter; }"
        "int main() { bump(); bump(); return counter; }");
    EXPECT_EQ(r.exitCode, 7);
}

TEST(LangTest, GlobalArray)
{
    auto r = runProgram(
        "int table[8];"
        "int main() {"
        "  for (int i = 0; i < 8; i = i + 1) { table[i] = i * i; }"
        "  return table[5]; }");
    EXPECT_EQ(r.exitCode, 25);
}

TEST(LangTest, LocalArrayAndChars)
{
    auto r = runProgram(
        "int main() { char buf[16];"
        "  buf[0] = 'h'; buf[1] = 'i'; buf[2] = 0;"
        "  return strlen(buf); }");
    EXPECT_EQ(r.exitCode, 2);
}

TEST(LangTest, StringInitAndLibcalls)
{
    auto r = runProgram(
        "int main() { char name[32] = \"ldx\";"
        "  char copy[32];"
        "  strcpy(copy, name);"
        "  strcat(copy, \"-vm\");"
        "  if (strcmp(copy, \"ldx-vm\") == 0) { return strlen(copy); }"
        "  return 0; }");
    EXPECT_EQ(r.exitCode, 6);
}

TEST(LangTest, PointersAndAddressOf)
{
    auto r = runProgram(
        "int main() { int x = 3; int *p = &x;"
        "  *p = 11; return x; }");
    EXPECT_EQ(r.exitCode, 11);
}

TEST(LangTest, PointerArithmeticOnIntPtr)
{
    auto r = runProgram(
        "int main() { int a[4]; int *p = &a[0];"
        "  a[0] = 10; a[1] = 20; a[2] = 30;"
        "  p = p + 2; return *p; }");
    EXPECT_EQ(r.exitCode, 30);
}

TEST(LangTest, AtoiItoa)
{
    auto r = runProgram(
        "int main() { char buf[24];"
        "  itoa(4321, buf);"
        "  return atoi(buf) - 4000; }");
    EXPECT_EQ(r.exitCode, 321);
}

TEST(LangTest, MallocAndHeap)
{
    auto r = runProgram(
        "int main() { int *p = imalloc(4);"
        "  p[0] = 7; p[3] = 9;"
        "  return p[0] + p[3]; }");
    EXPECT_EQ(r.exitCode, 16);
}

TEST(LangTest, FunctionPointers)
{
    auto r = runProgram(
        "int twice(int x) { return 2 * x; }"
        "int thrice(int x) { return 3 * x; }"
        "int main() { fn f = &twice;"
        "  int a = f(10);"
        "  f = &thrice;"
        "  return a + f(10); }");
    EXPECT_EQ(r.exitCode, 50);
}

TEST(LangTest, ShortCircuitEvaluation)
{
    auto r = runProgram(
        "int g = 0;"
        "int bump() { g = g + 1; return 1; }"
        "int main() {"
        "  int a = 0 && bump();"  // bump not called
        "  int b = 1 || bump();"  // bump not called
        "  int c = 1 && bump();"  // called once
        "  return g * 100 + a * 10 + b + c; }");
    EXPECT_EQ(r.exitCode, 102);
}

TEST(LangTest, ConsoleOutput)
{
    auto r = runProgram(
        "int main() { puts(\"hello\"); printi(42); return 0; }");
    EXPECT_EQ(r.console(), "hello42");
}

TEST(LangTest, CommentsAreIgnored)
{
    auto r = runProgram(
        "// line comment\n"
        "/* block\n comment */\n"
        "int main() { return 9; /* tail */ }");
    EXPECT_EQ(r.exitCode, 9);
}

TEST(LangTest, ScopingAndShadowing)
{
    auto r = runProgram(
        "int main() { int x = 1;"
        "  { int x = 2; { int x = 3; } }"
        "  return x; }");
    EXPECT_EQ(r.exitCode, 1);
}

TEST(LangTest, DivisionByZeroTraps)
{
    auto r = runProgram("int main() { int z = 0; return 5 / z; }");
    EXPECT_EQ(r.status, vm::StepStatus::Trapped);
}

TEST(LangTest, OutOfBoundsHeapAccessTraps)
{
    auto r = runProgram(
        "int main() { char *p = malloc(8); p[100000] = 1; return 0; }");
    EXPECT_EQ(r.status, vm::StepStatus::Trapped);
}

TEST(LangTest, StackSmashTrapsOnReturn)
{
    auto r = runProgram(
        "int victim(int n) { char buf[8];"
        "  for (int i = 0; i < n; i = i + 1) { buf[i] = 65; }"
        "  return 0; }"
        "int main() { victim(64); return 0; }");
    EXPECT_EQ(r.status, vm::StepStatus::Trapped);
    EXPECT_NE(r.trapMessage.find("return token"), std::string::npos);
}

TEST(LangTest, IntegerLiteralsUpToUint64MaxWrap)
{
    auto value = [](const std::string &literal) {
        return runProgram("int main() { return " + literal + "; }")
            .exitCode;
    };
    EXPECT_EQ(value("9223372036854775807"), INT64_MAX);
    EXPECT_EQ(value("0x7fffffffffffffff"), INT64_MAX);
    EXPECT_EQ(value("9223372036854775808"), INT64_MIN); // 2^63
    EXPECT_EQ(value("-9223372036854775808"), INT64_MIN);
    EXPECT_EQ(value("18446744073709551615"), -1); // UINT64_MAX
    EXPECT_EQ(value("0xffffffffffffffff"), -1);
    // Constant-folded global initializers wrap the same way.
    auto r = runProgram("int g = -9223372036854775808;"
                        "int main() { return g; }");
    EXPECT_EQ(r.exitCode, INT64_MIN);
}

TEST(LangTest, IntegerLiteralBeyondUint64MaxIsFatal)
{
    EXPECT_THROW(runProgram("int main() { return 18446744073709551616; }"),
                 FatalError); // 2^64
    EXPECT_THROW(runProgram("int main() { return 0x10000000000000000; }"),
                 FatalError);
    EXPECT_THROW(runProgram("int main() { return 99999999999999999999; }"),
                 FatalError);
}

TEST(LangTest, ParseErrorIsFatal)
{
    EXPECT_THROW(runProgram("int main() { return ; ; }"),
                 FatalError);
}

TEST(LangTest, UnknownIdentifierIsFatal)
{
    EXPECT_THROW(runProgram("int main() { return nope; }"), FatalError);
}

TEST(LangTest, ArityMismatchIsFatal)
{
    EXPECT_THROW(runProgram(
        "int f(int a) { return a; } int main() { return f(1, 2); }"),
        FatalError);
}

TEST(LangTest, ExitBuiltinStopsProgram)
{
    auto r = runProgram(
        "int main() { exit(33); return 1; }");
    EXPECT_EQ(r.exitCode, 33);
}

} // namespace
} // namespace ldx
