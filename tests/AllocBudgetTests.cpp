//===- AllocBudgetTests.cpp - operator new calls per compile ---------------===//
//
// Part of warp-swp.
//
// The compile path keeps its sets, maps and per-node lists in id-indexed
// flat storage sized once per pass, so a compile allocates per pass and
// per emitted instruction, not per register, edge or operation. This
// suite holds it to that: it replaces the global operator new with one
// that counts calls (which is why it is a binary of its own) and bounds
// the mean number of calls per compileProgram over the Livermore kernels
// and over randomLoopSpec(1..256), default options, no Session.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/Compiler.h"
#include "swp/Verify/RandomLoopGen.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace swp;

namespace {

std::atomic<uint64_t> NewCalls{0};

void *countedAlloc(std::size_t N) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}

} // namespace

void *operator new(std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Mean operator new calls per compileProgram over \p Specs. Building each
/// workload happens outside the counted window.
double meanNewCallsPerCompile(const std::vector<WorkloadSpec> &Specs) {
  MachineDescription MD = MachineDescription::warpCell();
  uint64_t Calls = 0;
  for (const WorkloadSpec &S : Specs) {
    BuiltWorkload W = S.Make();
    uint64_t Before = NewCalls.load(std::memory_order_relaxed);
    CompileResult CR = compileProgram(*W.Prog, MD, CompilerOptions());
    Calls += NewCalls.load(std::memory_order_relaxed) - Before;
    EXPECT_TRUE(CR.Ok) << S.Name << ": " << CR.Error;
  }
  return static_cast<double>(Calls) / static_cast<double>(Specs.size());
}

std::vector<WorkloadSpec> randomCorpus() {
  std::vector<WorkloadSpec> Specs;
  for (uint64_t Seed = 1; Seed <= 256; ++Seed)
    Specs.push_back(randomLoopSpec(Seed));
  return Specs;
}

/// Warms every one-time registration (metrics families, static tables)
/// with one pass over both corpora, then measures.
class AllocBudget : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    meanNewCallsPerCompile(livermoreKernels());
    meanNewCallsPerCompile(randomCorpus());
  }
};

} // namespace

// Each bound is the measured mean x 1.15, rounded up: 485.5 -> 559 for
// Livermore, 581.0 -> 669 for randomLoopSpec(1..256). Before the compile
// path moved to id-indexed storage the means were 2,240.9 and 2,008.4.
TEST_F(AllocBudget, LivermoreKernels) {
  double Mean = meanNewCallsPerCompile(livermoreKernels());
  RecordProperty("mean_new_calls", std::to_string(Mean));
  EXPECT_LE(Mean, 559.0) << "operator new calls per compile";
}

TEST_F(AllocBudget, RandomLoops) {
  std::vector<WorkloadSpec> Specs = randomCorpus();
  double Mean = meanNewCallsPerCompile(Specs);
  RecordProperty("mean_new_calls", std::to_string(Mean));
  EXPECT_LE(Mean, 669.0) << "operator new calls per compile";
}
