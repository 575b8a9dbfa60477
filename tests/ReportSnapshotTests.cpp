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
// digest of the final arrays.
//
// To update after an intentional schema or scheduler change:
//   SWP_UPDATE_GOLDENS=1 ./build/tests/test_report_snapshot
// then review the diff under tests/goldens/ and commit it.
//
//===----------------------------------------------------------------------===//

#include "swp/Sim/Simulator.h"
#include "swp/Verify/Differential.h"

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
