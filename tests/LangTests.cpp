//===- LangTests.cpp - mini-W2 frontend tests ---------------------------------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/Lang/Lowering.h"

#include "swp/IR/Expansion.h"

#include "swp/IR/Printer.h"
#include "swp/IR/Verifier.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Support/RNG.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace swp;

namespace {

/// Compiles source; hard-fails the test on diagnostics.
W2Module mustCompile(const std::string &Source) {
  DiagnosticEngine DE;
  std::optional<W2Module> Mod = compileW2Source(Source, DE);
  EXPECT_TRUE(Mod.has_value()) << DE.str();
  if (!Mod)
    return W2Module{};
  DiagnosticEngine VDE;
  EXPECT_TRUE(verifyProgram(Mod->Prog, VDE)) << VDE.str();
  return std::move(*Mod);
}

/// Expects compilation to fail with a message containing \p Needle.
void mustFail(const std::string &Source, const std::string &Needle) {
  DiagnosticEngine DE;
  std::optional<W2Module> Mod = compileW2Source(Source, DE);
  EXPECT_FALSE(Mod.has_value()) << "program should not compile";
  EXPECT_NE(DE.str().find(Needle), std::string::npos)
      << "expected a diagnostic mentioning '" << Needle << "', got:\n"
      << DE.str();
}

} // namespace

TEST(Lexer, TokensAndComments) {
  DiagnosticEngine DE;
  auto Toks = lexW2("for i := 0 to 9 (* note *) do -- tail\n x <> 1.5e2",
                    DE);
  ASSERT_FALSE(DE.hasErrors()) << DE.str();
  std::vector<TokKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  EXPECT_EQ(Kinds, (std::vector<TokKind>{
                       TokKind::KwFor, TokKind::Ident, TokKind::Assign,
                       TokKind::IntLit, TokKind::KwTo, TokKind::IntLit,
                       TokKind::KwDo, TokKind::Ident, TokKind::NotEqual,
                       TokKind::FloatLit, TokKind::Eof}));
  EXPECT_DOUBLE_EQ(Toks[9].FloatVal, 150.0);
}

TEST(Lexer, PositionsAndErrors) {
  DiagnosticEngine DE;
  auto Toks = lexW2("a\n  @b", DE);
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_NE(DE.str().find("2:3"), std::string::npos) << DE.str();
  // The 'b' after the bad character still lexes.
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
}

TEST(Frontend, VectorAddCompilesAndRuns) {
  W2Module Mod = mustCompile(R"(
    var a: float[16];
    param k: float;
    begin
      for i := 0 to 15 do
        a[i] := a[i] + k;
    end
  )");
  ProgramInput In;
  In.FloatScalars[Mod.Params.at("k").Id] = 1.5f;
  unsigned A = Mod.Arrays.at("a");
  for (int I = 0; I != 16; ++I)
    In.FloatArrays[A].push_back(static_cast<float>(I));
  ProgramState S = interpret(Mod.Prog, In);
  ASSERT_TRUE(S.Ok) << S.Error;
  for (int I = 0; I != 16; ++I)
    EXPECT_FLOAT_EQ(S.FloatArrays[A][I], I + 1.5f);
}

TEST(Frontend, AffineSubscriptsStaySymbolic) {
  W2Module Mod = mustCompile(R"(
    var m: float[64];
    begin
      for i := 0 to 7 do
        for j := 0 to 7 do
          m[i*8 + j] := m[8*i + j] * 2.0;
    end
  )");
  std::ostringstream OS;
  printProgram(Mod.Prog, OS);
  // Both references print as affine subscripts over both loops.
  EXPECT_NE(OS.str().find("8*i0 + i1"), std::string::npos) << OS.str();
}

TEST(Frontend, DynamicSubscriptUsesAddend) {
  W2Module Mod = mustCompile(R"(
    var idx: int[32];
    var hist: float[8];
    begin
      for i := 0 to 31 do
        hist[idx[i]] := hist[idx[i]] + 1.0;
    end
  )");
  bool SawAddend = false;
  forEachStmt(Mod.Prog.Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S))
      if (Op->Op.Mem.isValid() && Op->Op.Mem.Index.hasAddend())
        SawAddend = true;
  });
  EXPECT_TRUE(SawAddend);
}

TEST(Frontend, AccumulatorFusesIntoRecurrence) {
  W2Module Mod = mustCompile(R"(
    var x: float[32];
    var out: float[1];
    var acc: float;
    begin
      acc := 0.0;
      for i := 0 to 31 do
        acc := acc + x[i];
      out[0] := acc;
    end
  )");
  // acc := acc + x[i] must lower to a single fadd writing acc, not an
  // fadd plus a move (the move would stretch the recurrence cycle).
  unsigned MovCount = 0;
  forEachStmt(Mod.Prog.Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S))
      if (Op->Op.Opc == Opcode::FMov)
        ++MovCount;
  });
  EXPECT_EQ(MovCount, 1u) << "only the initial 'acc := 0.0' move remains";
}

TEST(Frontend, ConditionalsAndBuiltins) {
  W2Module Mod = mustCompile(R"(
    var x: float[16];
    var y: float[16];
    begin
      for i := 0 to 15 do begin
        if x[i] < 0.0 then
          y[i] := -x[i]
        else
          y[i] := sqrt(x[i]);
      end
    end
  )");
  expandLibraryOps(Mod.Prog); // sqrt must be lowered before execution
  ProgramInput In;
  unsigned X = Mod.Arrays.at("x"), Y = Mod.Arrays.at("y");
  In.FloatArrays[X] = {-4.0f, 9.0f, -1.0f, 16.0f};
  ProgramState S = interpret(Mod.Prog, In);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_FLOAT_EQ(S.FloatArrays[Y][0], 4.0f);
  EXPECT_NEAR(S.FloatArrays[Y][1], 3.0f, 1e-4);
  EXPECT_FLOAT_EQ(S.FloatArrays[Y][2], 1.0f);
  EXPECT_NEAR(S.FloatArrays[Y][3], 4.0f, 1e-4);
}

TEST(Frontend, RuntimeBoundsAndQueues) {
  W2Module Mod = mustCompile(R"(
    param n: int;
    begin
      for i := 1 to n do
        send(recv() * 2.0);
    end
  )");
  ProgramInput In;
  In.IntScalars[Mod.Params.at("n").Id] = 3;
  In.InputQueue = {1.0f, 2.0f, 3.0f, 99.0f};
  ProgramState S = interpret(Mod.Prog, In);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.OutputQueue, (std::vector<float>{2.0f, 4.0f, 6.0f}));
}

TEST(Frontend, IntegerArithmeticAndConversion) {
  W2Module Mod = mustCompile(R"(
    var a: float[8];
    begin
      for i := 0 to 7 do
        a[i] := float(i * 3 - 1);
    end
  )");
  ProgramState S = interpret(Mod.Prog, {});
  ASSERT_TRUE(S.Ok) << S.Error;
  unsigned A = Mod.Arrays.at("a");
  for (int I = 0; I != 8; ++I)
    EXPECT_FLOAT_EQ(S.FloatArrays[A][I], 3.0f * I - 1.0f);
}

TEST(Frontend, GreaterComparisonSwaps) {
  W2Module Mod = mustCompile(R"(
    var x: float[4];
    var y: float[4];
    begin
      for i := 0 to 3 do
        if x[i] > 1.0 then y[i] := 1.0 else y[i] := 0.0;
    end
  )");
  ProgramInput In;
  unsigned X = Mod.Arrays.at("x"), Y = Mod.Arrays.at("y");
  In.FloatArrays[X] = {0.5f, 1.0f, 1.5f, 2.0f};
  ProgramState S = interpret(Mod.Prog, In);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.FloatArrays[Y], (std::vector<float>{0, 0, 1, 1}));
}

//===----------------------------------------------------------------------===//
// Diagnostics.
//===----------------------------------------------------------------------===//

TEST(FrontendErrors, UndeclaredName) {
  mustFail("begin x := 1.0; end", "undeclared");
}

TEST(FrontendErrors, TypeMismatch) {
  mustFail(R"(
    var a: float[4];
    begin
      for i := 0 to 3 do a[i] := i;
    end
  )", "type mismatch");
}

TEST(FrontendErrors, MixedArithmetic) {
  mustFail(R"(
    var a: float[4];
    begin
      for i := 0 to 3 do a[i] := a[i] + i;
    end
  )", "mixed int/float");
}

TEST(FrontendErrors, ParamReadOnly) {
  mustFail("param k: float; begin k := 1.0; end", "read-only");
}

TEST(FrontendErrors, ArrayNeedsSubscript) {
  mustFail(R"(
    var a: float[4];
    var s: float;
    begin s := a; end
  )", "needs a subscript");
}

TEST(FrontendErrors, ArrayParamRejected) {
  mustFail("param a: float[4]; begin end", "parameters must be scalars");
}

TEST(FrontendErrors, FloatSubscript) {
  mustFail(R"(
    var a: float[4];
    var f: float;
    begin
      f := 0.0;
      a[f] := 1.0;
    end
  )", "subscripts must be integers");
}

TEST(FrontendErrors, FloatLoopBound) {
  mustFail("var a: float[4]; begin for i := 0 to 1.5 do a[0] := 1.0; end",
           "bounds must be integers");
}

TEST(FrontendErrors, MissingSemicolon) {
  mustFail(R"(
    var a: float[4];
    begin
      a[0] := 1.0
      a[1] := 2.0;
    end
  )", "expected ';'");
}

TEST(FrontendErrors, UnknownBuiltin) {
  mustFail("var s: float; begin s := sin(1.0); end", "unknown builtin");
}

TEST(FrontendErrors, UnterminatedComment) {
  mustFail("begin end (* dangling", "unterminated comment");
}

//===----------------------------------------------------------------------===//
// Precedence and robustness.
//===----------------------------------------------------------------------===//

TEST(Frontend, OperatorPrecedence) {
  W2Module Mod = mustCompile(R"(
    var out: float[4];
    begin
      out[0] := 2.0 + 3.0 * 4.0;        -- 14
      out[1] := (2.0 + 3.0) * 4.0;      -- 20
      out[2] := -2.0 * 3.0 + 1.0;       -- -5
      out[3] := 12.0 / 4.0 / 3.0 + 1.0; -- left-assoc: 2
    end
  )");
  expandLibraryOps(Mod.Prog); // '/' lowers via INVERSE.
  ProgramState S = interpret(Mod.Prog, {});
  ASSERT_TRUE(S.Ok) << S.Error;
  unsigned Out = Mod.Arrays.at("out");
  EXPECT_FLOAT_EQ(S.FloatArrays[Out][0], 14.0f);
  EXPECT_FLOAT_EQ(S.FloatArrays[Out][1], 20.0f);
  EXPECT_FLOAT_EQ(S.FloatArrays[Out][2], -5.0f);
  EXPECT_NEAR(S.FloatArrays[Out][3], 2.0f, 1e-4);
}

TEST(Frontend, NoAliasDirectiveParsesAndMarks) {
  W2Module Mod = mustCompile(R"(
    var a: float[8] noalias;
    var b: float[8];
    begin
      a[0] := 1.0;
    end
  )");
  EXPECT_TRUE(Mod.Prog.arrayInfo(Mod.Arrays.at("a")).NoAlias);
  EXPECT_FALSE(Mod.Prog.arrayInfo(Mod.Arrays.at("b")).NoAlias);
}

/// The parser must reject garbage with diagnostics, never crash or hang.
class ParserRobustness : public ::testing::TestWithParam<int> {};

TEST_P(ParserRobustness, GarbageNeverCrashes) {
  RNG R(31337 + GetParam());
  static const char *Fragments[] = {
      "begin",  "end",  "for",   "to",   "do",    "if",    "then",
      "else",   "var",  "param", ":=",   ";",     ":",     "(",
      ")",      "[",    "]",     "+",    "-",     "*",     "/",
      "<",      "<=",   "<>",    "=",    "x",     "a",     "i",
      "1",      "2.5",  "float", "int",  "send",  "recv",  "sqrt",
      "noalias", ",",   "(*",    "*)",   "--",
  };
  std::string Source;
  unsigned Len = static_cast<unsigned>(R.uniform(1, 60));
  for (unsigned I = 0; I != Len; ++I) {
    Source += Fragments[R.uniform(0, std::size(Fragments) - 1)];
    Source += ' ';
  }
  DiagnosticEngine DE;
  std::optional<W2Module> Mod = compileW2Source(Source, DE);
  if (!Mod) {
    EXPECT_TRUE(DE.hasErrors()) << "rejection must come with diagnostics:\n"
                                << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness, ::testing::Range(0, 50));
