//===- ReportSnapshotTests.cpp - golden CompileReport JSON snapshots -----------===//
//
// Part of warp-swp.
//
// Locks the CompileReport / LoopReport JSON rendering for representative
// E1 (Livermore) and E2 (application) workloads against checked-in
// goldens, so report fields cannot drift silently: adding, removing, or
// renaming a field shows up as a diff that must be reviewed alongside an
// intentional golden update.
//
// Timing is scrubbed ("total_seconds" is the only nondeterministic field
// in a serial compile); everything else — decisions, causes, rungs, IIs,
// counters — must match bit for bit.
//
// The simulator's dynamic output is locked the same way: livermore-sim.json
// holds, per Livermore kernel and summed over 256 random loops, the cycle
// and stall counts, ops issued, flops, busy unit-cycles per resource and a
// digest of the final arrays. The emitted code itself is locked in
// emitted-code.json: a raw digest of every instruction field per program,
// so a compiler rewrite that must not change its output can prove it.
//
// To update after an intentional schema or scheduler change:
//   SWP_UPDATE_GOLDENS=1 ./build/tests/test_report_snapshot
// then review the diff under tests/goldens/ and commit it.
//
//===----------------------------------------------------------------------===//

#include "swp/Sim/Simulator.h"
#include "swp/Verify/Differential.h"

#include "TripCountPrograms.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace swp;

#ifndef SWP_GOLDEN_DIR
#error "SWP_GOLDEN_DIR must point at tests/goldens"
#endif

namespace {

/// Zeroes every "total_seconds" value (the only timing-dependent field).
std::string canonicalize(std::string Json) {
  const std::string Key = "\"total_seconds\": ";
  size_t At = 0;
  while ((At = Json.find(Key, At)) != std::string::npos) {
    size_t ValBegin = At + Key.size();
    size_t ValEnd = ValBegin;
    while (ValEnd < Json.size() && Json[ValEnd] != ',' &&
           Json[ValEnd] != '}' && Json[ValEnd] != '\n')
      ++ValEnd;
    Json.replace(ValBegin, ValEnd - ValBegin, "0");
    At = ValBegin;
  }
  return Json;
}

bool updateRequested() {
  const char *E = std::getenv("SWP_UPDATE_GOLDENS");
  return E && *E && std::string(E) != "0";
}

/// Compiles \p Spec deterministically and compares the canonicalized
/// report JSON against tests/goldens/<name>.json (or rewrites it under
/// SWP_UPDATE_GOLDENS=1).
void checkSnapshot(const WorkloadSpec &Spec) {
  MachineDescription MD = MachineDescription::warpCell();
  BuiltWorkload W = Spec.Make();
  CompilerOptions Opts;
  Opts.ParanoidVerify = true;
  DiagnosticEngine DE;
  CompileResult CR = compileProgram(*W.Prog, MD, Opts, &DE);
  ASSERT_TRUE(CR.Ok) << Spec.Name << ": " << CR.Error;
  std::string Json = canonicalize(CR.Report.toJson());

  std::string Path = std::string(SWP_GOLDEN_DIR) + "/" + Spec.Name + ".json";
  if (updateRequested()) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Json;
    return;
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In.good())
      << "missing golden " << Path
      << " (run with SWP_UPDATE_GOLDENS=1 to create it)";
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Json)
      << Spec.Name
      << ": CompileReport JSON drifted from its golden. If the change is "
         "intentional, rerun with SWP_UPDATE_GOLDENS=1 and review the "
         "diff.";
}

/// Continues the 64-bit FNV-1a hash \p H over \p N bytes at \p Data.
uint64_t fnv1a(uint64_t H, const void *Data, size_t N) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != N; ++I)
    H = (H ^ P[I]) * 0x100000001b3ULL;
  return H;
}

/// Folds the size and contents of every final array of \p S into \p H.
uint64_t digestArrays(uint64_t H, const ProgramState &S) {
  auto Fold = [&H](const auto &A) {
    uint64_t Size = A.size();
    H = fnv1a(H, &Size, sizeof(Size));
    H = fnv1a(H, A.data(), A.size() * sizeof(A[0]));
  };
  for (const auto &A : S.FloatArrays)
    Fold(A);
  for (const auto &A : S.IntArrays)
    Fold(A);
  return H;
}

/// Compiles \p Spec with default options and simulates it on the Warp
/// cell; the run must succeed.
SimResult compileAndSimulate(const WorkloadSpec &Spec) {
  MachineDescription MD = MachineDescription::warpCell();
  BuiltWorkload W = Spec.Make();
  CompileResult CR = compileProgram(*W.Prog, MD, CompilerOptions());
  EXPECT_TRUE(CR.Ok) << Spec.Name << ": " << CR.Error;
  SimResult R = simulate(CR.Code, *W.Prog, MD, W.Input);
  EXPECT_TRUE(R.State.Ok) << Spec.Name << ": " << R.State.Error;
  return R;
}

/// One golden row: the dynamic UtilizationReport (cycles, stalls, ops
/// issued, busy unit-cycles per resource), flops and the array digest.
std::string simRow(const std::string &Name, const UtilizationReport &Util,
                   uint64_t Flops, uint64_t Digest) {
  char Hex[19];
  std::snprintf(Hex, sizeof(Hex), "0x%016" PRIx64, Digest);
  return "{\"arrays_fnv1a\": \"" + std::string(Hex) +
         "\", \"flops\": " + std::to_string(Flops) + ", \"name\": \"" +
         Name + "\", \"util\": " + Util.toJson() + "}";
}

/// Folds one value's raw bytes into \p H.
template <typename T> uint64_t fold(uint64_t H, const T &V) {
  return fnv1a(H, &V, sizeof(V));
}

uint64_t foldReg(uint64_t H, const PhysReg &R) {
  H = fold(H, static_cast<uint32_t>(R.RC));
  return fold(H, static_cast<uint32_t>(R.Index));
}

/// Folds every field of every instruction of \p Code, its live-in map and
/// its register high-water marks into \p H. Fields are hashed one by one
/// as fixed-width integers (never struct bytes, which include padding),
/// and FImm as its raw bits: the printer rounds immediates.
uint64_t digestCode(uint64_t H, const VLIWProgram &Code) {
  H = fold(H, static_cast<uint64_t>(Code.Insts.size()));
  for (const VLIWInst &I : Code.Insts) {
    H = fold(H, static_cast<uint64_t>(I.Ops.size()));
    for (const MachOp &M : I.Ops) {
      H = fold(H, static_cast<uint32_t>(M.Opc));
      H = foldReg(H, M.Def);
      H = fold(H, static_cast<uint64_t>(M.Uses.size()));
      for (const PhysReg &R : M.Uses)
        H = foldReg(H, R);
      H = fold(H, static_cast<uint32_t>(M.ArrayId));
      H = fold(H, static_cast<uint64_t>(M.Index.Terms.size()));
      for (const AffineExpr::Term &T : M.Index.Terms) {
        H = fold(H, static_cast<uint32_t>(T.LoopId));
        H = fold(H, static_cast<int64_t>(T.Coef));
      }
      H = fold(H, static_cast<int64_t>(M.Index.Const));
      H = fold(H, static_cast<uint32_t>(M.Index.Addend.Id));
      H = foldReg(H, M.AddendReg);
      H = fold(H, M.FImm);
      H = fold(H, static_cast<int64_t>(M.IImm));
      H = fold(H, static_cast<int32_t>(M.Queue));
      H = fold(H, static_cast<uint64_t>(M.Preds.size()));
      for (const PredPhys &PP : M.Preds) {
        H = foldReg(H, PP.Reg);
        H = fold(H, static_cast<uint8_t>(PP.Negated));
      }
    }
    H = fold(H, static_cast<uint64_t>(I.Agu.size()));
    for (const AguOp &A : I.Agu) {
      H = fold(H, static_cast<uint32_t>(A.LoopId));
      H = fold(H, static_cast<uint8_t>(A.Relative));
      H = foldReg(H, A.A);
      H = fold(H, static_cast<int64_t>(A.Imm));
    }
    H = fold(H, static_cast<uint32_t>(I.Ctrl.K));
    H = fold(H, static_cast<uint32_t>(I.Ctrl.Target));
    H = foldReg(H, I.Ctrl.Counter);
  }
  H = fold(H, static_cast<uint64_t>(Code.LiveInRegs.size()));
  for (const auto &[Id, R] : Code.LiveInRegs) {
    H = fold(H, static_cast<uint32_t>(Id));
    H = foldReg(H, R);
  }
  H = fold(H, static_cast<uint32_t>(Code.FloatRegsUsed));
  return fold(H, static_cast<uint32_t>(Code.IntRegsUsed));
}

/// Accumulates the emitted-code golden's figures over one or more
/// compiles: the code digest (chained), code size and the scheduler's
/// search counters.
struct CodeRow {
  uint64_t Digest = 0xcbf29ce484222325ULL;
  uint64_t CodeSize = 0;
  uint64_t IntervalsTried = 0;
  uint64_t SlotsProbed = 0;

  void add(const CompileResult &CR) {
    Digest = digestCode(Digest, CR.Code);
    CodeSize += CR.Code.size();
    IntervalsTried += CR.Report.SchedTotals.IntervalsTried;
    SlotsProbed += CR.Report.SchedTotals.SlotsProbed;
  }

  std::string json(const std::string &Name) const {
    char Hex[19];
    std::snprintf(Hex, sizeof(Hex), "0x%016" PRIx64, Digest);
    return "{\"code_fnv1a\": \"" + std::string(Hex) +
           "\", \"code_size\": " + std::to_string(CodeSize) +
           ", \"intervals_tried\": " + std::to_string(IntervalsTried) +
           ", \"name\": \"" + Name +
           "\", \"slots_probed\": " + std::to_string(SlotsProbed) + "}";
  }
};

/// Compiles \p Spec under \p Opts (no diagnostics engine); must succeed.
CompileResult compileSpec(const WorkloadSpec &Spec,
                          const CompilerOptions &Opts) {
  MachineDescription MD = MachineDescription::warpCell();
  BuiltWorkload W = Spec.Make();
  CompileResult CR = compileProgram(*W.Prog, MD, Opts);
  EXPECT_TRUE(CR.Ok) << Spec.Name << ": " << CR.Error;
  return CR;
}

const WorkloadSpec *findSpec(const std::vector<WorkloadSpec> &Set,
                             const std::string &Name) {
  for (const WorkloadSpec &S : Set)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

} // namespace

// E1: three Livermore kernels covering the decision space — a plain
// pipelined kernel, a recurrence, and a conditional loop.
TEST(ReportSnapshot, LivermoreKernels) {
  const std::vector<WorkloadSpec> &E1 = livermoreKernels();
  ASSERT_FALSE(E1.empty());
  unsigned Checked = 0;
  for (const WorkloadSpec &S : E1) {
    if (S.Number == 1 || S.Number == 5 || S.Number == 20) {
      checkSnapshot(S);
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 3u) << "expected kernels 1, 5, 20 in the E1 set";
}

// E2: two application kernels (matrix multiply and a conditional-heavy
// one when present; fall back to the first two deterministically).
TEST(ReportSnapshot, UserPrograms) {
  const std::vector<WorkloadSpec> &E2 = userPrograms();
  ASSERT_GE(E2.size(), 2u);
  const WorkloadSpec *A = findSpec(E2, "matmul");
  const WorkloadSpec *B = findSpec(E2, "conv3x3");
  checkSnapshot(A ? *A : E2[0]);
  checkSnapshot(B ? *B : E2[1]);
}

// The degraded shape is part of the schema too: a budget-exhausted
// compile's decision / cause / rung / budget_tripped fields are locked
// the same way.
TEST(ReportSnapshot, DegradedReport) {
  WorkloadSpec Spec = randomLoopSpec(42);
  MachineDescription MD = MachineDescription::warpCell();
  BuiltWorkload W = Spec.Make();
  CompilerOptions Opts;
  Opts.Budget.MaxNodes = 3;
  DiagnosticEngine DE;
  CompileResult CR = compileProgram(*W.Prog, MD, Opts, &DE);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  std::string Json = canonicalize(CR.Report.toJson());

  std::string Path = std::string(SWP_GOLDEN_DIR) + "/degraded-fuzz-42.json";
  if (updateRequested()) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good());
    Out << Json;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Json);
}

// The simulator's dynamic output over every Livermore kernel, plus one
// row summed over randomLoopSpec(1..256): any change to timing, the audit
// accounting or the computed values shows up as a diff.
TEST(ReportSnapshot, LivermoreSimulation) {
  constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
  std::string Json = "[\n";
  for (const WorkloadSpec &S : livermoreKernels()) {
    SimResult R = compileAndSimulate(S);
    Json += simRow(S.Name, R.Util, R.State.Flops,
                   digestArrays(FnvOffset, R.State)) +
            ",\n";
  }
  UtilizationReport Sum;
  uint64_t Flops = 0, Digest = FnvOffset;
  for (uint64_t Seed = 1; Seed <= 256; ++Seed) {
    SimResult R = compileAndSimulate(randomLoopSpec(Seed));
    if (Sum.Resources.empty())
      Sum.Resources = R.Util.Resources;
    else
      for (size_t I = 0; I != Sum.Resources.size(); ++I)
        Sum.Resources[I].BusyUnitCycles +=
            R.Util.Resources[I].BusyUnitCycles;
    Sum.Cycles += R.Util.Cycles;
    Sum.ExecCycles += R.Util.ExecCycles;
    Sum.StallCycles += R.Util.StallCycles;
    Sum.InputStallCycles += R.Util.InputStallCycles;
    Sum.OutputStallCycles += R.Util.OutputStallCycles;
    Sum.OpsIssued += R.Util.OpsIssued;
    Flops += R.State.Flops;
    Digest = digestArrays(Digest, R.State);
  }
  Json += simRow("randomLoopSpec(1..256) summed", Sum, Flops, Digest) +
          "\n]\n";

  std::string Path = std::string(SWP_GOLDEN_DIR) + "/livermore-sim.json";
  if (updateRequested()) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Json;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Json) << "simulator output drifted from its golden";
}

// The emitted code, digested field by field: one row per Livermore kernel
// and per user program under default options, one row per trip-count
// dispatch program (TripCountPrograms.h) under default options and each
// forced ladder rung, and one row per option set summed over
// randomLoopSpec(1..256). A compiler change that claims to leave the
// output alone must pass this unchanged.
TEST(ReportSnapshot, EmittedCode) {
  std::string Json = "[\n";
  for (const std::vector<WorkloadSpec> *Set :
       {&livermoreKernels(), &userPrograms()})
    for (const WorkloadSpec &S : *Set) {
      CodeRow Row;
      Row.add(compileSpec(S, CompilerOptions()));
      Json += Row.json(S.Name) + ",\n";
    }

  struct OptionSet {
    const char *Name;
    CompilerOptions Opts;
  };
  std::vector<OptionSet> Sets(6);
  Sets[0].Name = "default";
  Sets[1].Name = "no pipelining";
  Sets[1].Opts.EnablePipelining = false;
  Sets[2].Name = "MinLadderRung 1";
  Sets[2].Opts.MinLadderRung = 1;
  Sets[3].Name = "MinLadderRung 2";
  Sets[3].Opts.MinLadderRung = 2;
  Sets[4].Name = "MVE MinRegisters";
  Sets[4].Opts.MVE = MVEPolicy::MinRegisters;
  Sets[5].Name = "no scalar optimizations";
  Sets[5].Opts.ScalarOptimizations = false;
  // The shipped workloads never reach a static zero trip, the unrolled
  // rung's empty kernel count or a runtime outer bound, and reach the
  // static short trip rarely; these programs do.
  for (size_t I : {0, 2, 3})
    for (const WorkloadSpec &S : tripCountPrograms()) {
      CodeRow Row;
      Row.add(compileSpec(S, Sets[I].Opts));
      Json += Row.json(S.Name + " " + Sets[I].Name) + ",\n";
    }
  for (size_t I = 0; I != Sets.size(); ++I) {
    CodeRow Row;
    for (uint64_t Seed = 1; Seed <= 256; ++Seed)
      Row.add(compileSpec(randomLoopSpec(Seed), Sets[I].Opts));
    Json += Row.json(std::string("randomLoopSpec(1..256) ") + Sets[I].Name) +
            (I + 1 == Sets.size() ? "\n" : ",\n");
  }
  Json += "]\n";

  std::string Path = std::string(SWP_GOLDEN_DIR) + "/emitted-code.json";
  if (updateRequested()) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Json;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Json) << "emitted code drifted from its golden";
}
