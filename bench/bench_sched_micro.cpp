//===- bench_sched_micro.cpp - scheduler throughput microbenchmarks -------------===//
//
// Part of warp-swp.
//
// google-benchmark timings of the compiler itself (the paper notes that,
// unlike source unrolling, software pipelining leaves compilation time
// unaffected): dependence-graph construction, the symbolic closure,
// modulo scheduling, and whole-program compilation.
//
// `--json [out [baseline]]` switches to the scheduler-throughput gate:
// wall time of modulo-scheduling every innermost Livermore loop with
// metrics recording off and on (interleaved in one process), aggregated
// SchedulerStats, and the speedup against the checked-in seed baseline
// (information only), written as BENCH_sched_micro.json (see DESIGN.md).
// Exit 0 iff the schedules match the seed's (check_sum_of_ii) and
// metrics recording costs at most 1.5x.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "swp/DDG/Closure.h"
#include "swp/DDG/DDGBuilder.h"
#include "swp/DDG/MII.h"
#include "swp/IR/Expansion.h"
#include "swp/IR/IRBuilder.h"
#include "swp/IR/Transforms.h"
#include "swp/Pipeliner/HierarchicalReducer.h"
#include "swp/Pipeliner/LoopUtils.h"
#include "swp/Metrics/Metrics.h"
#include "swp/Pipeliner/ModuloScheduler.h"
#include "swp/Sched/Utilization.h"
#include "swp/Support/Trace.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace swp;

namespace {

/// A chain-of-multiply-adds loop body with \p Length operations.
std::unique_ptr<Program> chainProgram(unsigned Length) {
  auto P = std::make_unique<Program>();
  IRBuilder B(*P);
  unsigned A = P->createArray("a", RegClass::Float, 4096);
  unsigned C = P->createArray("c", RegClass::Float, 4096);
  VReg K = P->createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 1023);
  VReg V = B.fload(A, B.ix(L));
  for (unsigned I = 0; I != Length; ++I)
    V = (I % 2 != 0) ? B.fadd(V, K) : B.fmul(V, K);
  B.fstore(C, B.ix(L), V);
  B.endFor();
  return P;
}

DepGraph graphFor(Program &P, const MachineDescription &MD) {
  auto *For = cast<ForStmt>(P.Body.back().get());
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = For->LoopId;
  return buildLoopDepGraph(reduceBodyToUnits(For->Body, MD, For->LoopId),
                           MD, Opts);
}

void BM_DDGBuild(benchmark::State &State) {
  MachineDescription MD = MachineDescription::warpCell();
  auto P = chainProgram(static_cast<unsigned>(State.range(0)));
  auto *For = cast<ForStmt>(P->Body.back().get());
  for (auto _ : State) {
    DDGBuildOptions Opts;
    Opts.CurrentLoopId = For->LoopId;
    DepGraph G = buildLoopDepGraph(
        reduceBodyToUnits(For->Body, MD, For->LoopId), MD, Opts);
    benchmark::DoNotOptimize(G.numNodes());
  }
}
BENCHMARK(BM_DDGBuild)->Arg(16)->Arg(64)->Arg(256);

void BM_ModuloSchedule(benchmark::State &State) {
  MachineDescription MD = MachineDescription::warpCell();
  auto P = chainProgram(static_cast<unsigned>(State.range(0)));
  DepGraph G = graphFor(*P, MD);
  for (auto _ : State) {
    ModuloScheduleResult R = moduloSchedule(G, MD);
    benchmark::DoNotOptimize(R.II);
  }
}
BENCHMARK(BM_ModuloSchedule)->Arg(16)->Arg(64)->Arg(256);

void BM_SymbolicClosure(benchmark::State &State) {
  // A recurrence-heavy loop so the SCC is nontrivial.
  MachineDescription MD = MachineDescription::warpCell();
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 4096);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(1, 1023);
  VReg V = B.fload(A, B.ix(L, 1, -1));
  for (int I = 0; I != State.range(0); ++I)
    V = B.fadd(V, K);
  B.fstore(A, B.ix(L), V);
  B.endFor();
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = L->LoopId;
  DepGraph G = buildLoopDepGraph(
      reduceBodyToUnits(L->Body, MD, L->LoopId), MD, Opts);
  unsigned Rec = recMII(G);
  auto SCCs = G.stronglyConnectedComponents();
  const std::vector<unsigned> *Big = nullptr;
  for (const auto &C : SCCs)
    if (!Big || C.size() > Big->size())
      Big = &C;
  for (auto _ : State) {
    SCCClosure Cl(G, *Big, Rec);
    benchmark::DoNotOptimize(Cl.criticalCycleBound());
  }
}
BENCHMARK(BM_SymbolicClosure)->Arg(8)->Arg(32)->Arg(64);

void BM_CompileLivermoreKernel(benchmark::State &State) {
  MachineDescription MD = MachineDescription::warpCell();
  const WorkloadSpec &Spec =
      livermoreKernels()[static_cast<size_t>(State.range(0))];
  for (auto _ : State) {
    BuiltWorkload W = Spec.Make();
    CompileResult R = compileProgram(*W.Prog, MD, CompilerOptions{});
    benchmark::DoNotOptimize(R.Code.size());
  }
}
BENCHMARK(BM_CompileLivermoreKernel)->Arg(0)->Arg(4)->Arg(10);

//===----------------------------------------------------------------------===//
// --json mode: the scheduler-throughput gate.
//===----------------------------------------------------------------------===//

/// Every schedulable innermost Livermore loop, prepared exactly as the
/// compiler driver prepares them before modulo scheduling.
std::vector<DepGraph> livermoreLoopGraphs(const MachineDescription &MD) {
  std::vector<DepGraph> Graphs;
  for (const WorkloadSpec &Spec : livermoreKernels()) {
    BuiltWorkload W = Spec.Make();
    Program &P = *W.Prog;
    expandLibraryOps(P);
    while (eliminateDeadCode(P) + hoistLoopInvariants(P) +
               localValueNumbering(P) !=
           0) {
    }
    for (ForStmt *For : innermostLoops(P.Body)) {
      prepareLoopForCodegen(P, *For);
      std::vector<ScheduleUnit> Units =
          reduceBodyToUnits(For->Body, MD, For->LoopId);
      if (Units.empty())
        continue;
      DDGBuildOptions Opts;
      Opts.CurrentLoopId = For->LoopId;
      Graphs.push_back(buildLoopDepGraph(Units, MD, Opts));
    }
  }
  return Graphs;
}

/// Extracts the "ms_per_sweep_min" value from a baseline JSON written by
/// an earlier run of this mode; 0 when absent or unreadable.
double baselineMsPerSweep(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return 0.0;
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  size_t Key = Text.find("\"ms_per_sweep_min\"");
  if (Key == std::string::npos)
    return 0.0;
  size_t Colon = Text.find(':', Key);
  if (Colon == std::string::npos)
    return 0.0;
  return std::strtod(Text.c_str() + Colon + 1, nullptr);
}

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

int runJsonMode(const std::string &OutPath, const std::string &BaselinePath) {
  // Fail on an unwritable destination before spending time measuring.
  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  MachineDescription MD = MachineDescription::warpCell();
  std::vector<DepGraph> Graphs = livermoreLoopGraphs(MD);

  // Warm-up sweep; also the deterministic check value (sum of IIs), which
  // pins the schedules: any change in scheduling decisions moves it.
  // 396 is the seed scheduler's value.
  constexpr uint64_t SeedCheck = 396;
  uint64_t CheckOne = 0;
  for (const DepGraph &G : Graphs)
    CheckOne += moduloSchedule(G, MD).II;
  bool CheckOk = CheckOne == SeedCheck;
  if (!CheckOk)
    std::fprintf(stderr, "schedules changed: check_sum_of_ii %llu != %llu\n",
                 static_cast<unsigned long long>(CheckOne),
                 static_cast<unsigned long long>(SeedCheck));

  // Metrics-off and metrics-on repetitions alternate in one process (and
  // each pair alternates which runs first), so both see the same host and
  // the overhead gate compares the code with itself, never with
  // milliseconds measured on another machine. Each repetition averages
  // over enough sweeps to cover clock granularity.
  constexpr int Reps = 15, Sweeps = 10;
  const bool WasEnabled = metrics::enabled();
  std::vector<double> OffMs, OnMs;
  uint64_t Check = 0;
  for (int Rep = 0; Rep != Reps; ++Rep)
    for (int Half = 0; Half != 2; ++Half) {
      bool On = (Rep + Half) % 2 == 1;
      metrics::setEnabled(On);
      auto T0 = std::chrono::steady_clock::now();
      for (int S = 0; S != Sweeps; ++S)
        for (const DepGraph &G : Graphs)
          Check += moduloSchedule(G, MD).II;
      auto T1 = std::chrono::steady_clock::now();
      (On ? OnMs : OffMs)
          .push_back(std::chrono::duration<double, std::milli>(T1 - T0)
                         .count() /
                     Sweeps);
    }
  metrics::setEnabled(WasEnabled);
  if (Check != CheckOne * 2 * Reps * Sweeps) {
    std::fprintf(stderr, "nondeterministic schedules: check %llu != %llu\n",
                 static_cast<unsigned long long>(Check),
                 static_cast<unsigned long long>(CheckOne * 2 * Reps * Sweeps));
    return 1;
  }
  double MinMs = *std::min_element(OffMs.begin(), OffMs.end());
  double MinMsMetrics = *std::min_element(OnMs.begin(), OnMs.end());
  // Minimum against minimum: the statistic least moved by a noisy host.
  double MetricsRatio = MinMsMetrics / MinMs;
  bool MetricsOverheadOk = MetricsRatio <= 1.5;
  if (!MetricsOverheadOk)
    std::fprintf(stderr,
                 "metrics recording costs %.2fx (%.4f vs %.4f ms/sweep; "
                 "limit 1.5x)\n",
                 MetricsRatio, MinMsMetrics, MinMs);

  // One instrumented sweep for the aggregate counters and the static
  // kernel-utilization summary (section 4's efficiency measure, averaged
  // over every scheduled loop).
  SchedulerStats Agg;
  double SumBottleneck = 0.0, SumIssueFill = 0.0;
  unsigned NumScheduled = 0;
  for (const DepGraph &G : Graphs) {
    ModuloScheduleResult R = moduloSchedule(G, MD);
    Agg.merge(R.Stats);
    if (R.Success) {
      UtilizationReport U = scheduleUtilization(G, R.Sched, R.II, MD);
      SumBottleneck += U.bottleneckOccupancy();
      SumIssueFill += U.issueFillRate();
      ++NumScheduled;
    }
  }

  double Baseline = baselineMsPerSweep(BaselinePath);

  char Buf[3072];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\n"
      "  \"bench\": \"sched_micro\",\n"
      "  \"suite\": \"livermore-innermost-loops\",\n"
      "  \"graphs\": %zu,\n"
      "  \"reps\": %d,\n"
      "  \"sweeps_per_rep\": %d,\n"
      "  \"ms_per_sweep_min\": %.4f,\n"
      "  \"ms_per_sweep_median\": %.4f,\n"
      "  \"check_sum_of_ii\": %llu,\n"
      "  \"check_ok\": %s,\n"
      "  \"stats_per_sweep\": {\n"
      "    \"intervals_tried\": %llu,\n"
      "    \"slots_probed\": %llu,\n"
      "    \"component_retries\": %llu,\n"
      "    \"failed_intervals\": %llu,\n"
      "    \"fail_causes\": {\"precedence_range\": %llu, "
      "\"resource_conflict\": %llu, \"slot_abort\": %llu, "
      "\"stage_limit\": %llu},\n"
      "    \"closure_build_seconds\": %.6f,\n"
      "    \"phase1_seconds\": %.6f,\n"
      "    \"phase2_seconds\": %.6f,\n"
      "    \"total_seconds\": %.6f\n"
      "  },\n"
      "  \"utilization\": {\n"
      "    \"loops_scheduled\": %u,\n"
      "    \"mean_bottleneck_occupancy\": %.4f,\n"
      "    \"mean_issue_fill\": %.4f\n"
      "  },\n"
      "  \"trace_compiled_in\": %s,\n"
      "  \"metrics_compiled_in\": %s,\n"
      "  \"ms_per_sweep_min_metrics\": %.4f,\n"
      "  \"ms_per_sweep_median_metrics\": %.4f,\n"
      "  \"metrics_overhead_ratio\": %.3f,\n"
      "  \"metrics_overhead_ok\": %s,\n"
      "  \"baseline_ms_per_sweep\": %.4f,\n"
      "  \"speedup_vs_baseline\": %.2f\n"
      "}\n",
      Graphs.size(), Reps, Sweeps, MinMs, medianOf(OffMs),
      static_cast<unsigned long long>(CheckOne), CheckOk ? "true" : "false",
      static_cast<unsigned long long>(Agg.IntervalsTried),
      static_cast<unsigned long long>(Agg.SlotsProbed),
      static_cast<unsigned long long>(Agg.ComponentRetries),
      static_cast<unsigned long long>(Agg.failedIntervals()),
      static_cast<unsigned long long>(Agg.FailPrecedence),
      static_cast<unsigned long long>(Agg.FailResource),
      static_cast<unsigned long long>(Agg.FailSlotAbort),
      static_cast<unsigned long long>(Agg.FailStageLimit),
      Agg.ClosureBuildSeconds, Agg.Phase1Seconds, Agg.Phase2Seconds,
      Agg.TotalSeconds, NumScheduled,
      NumScheduled ? SumBottleneck / NumScheduled : 0.0,
      NumScheduled ? SumIssueFill / NumScheduled : 0.0,
      trace::compiledIn() ? "true" : "false",
      metrics::compiledIn() ? "true" : "false", MinMsMetrics,
      medianOf(OnMs), MetricsRatio, MetricsOverheadOk ? "true" : "false",
      Baseline,
      Baseline > 0 ? Baseline / MinMs : 0.0);
  Out << Buf;
  std::printf("%s", Buf);
  std::printf("wrote %s\n", OutPath.c_str());
  return CheckOk && MetricsOverheadOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  // `--json [out [baseline]]` bypasses google-benchmark entirely.
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) != "--json")
      continue;
    // Default outputs land in the build tree, never the source checkout.
    std::string Out;
    if (I + 1 < argc) {
      Out = argv[I + 1];
    } else {
#ifdef SWP_BINARY_DIR
      Out = std::string(SWP_BINARY_DIR) + "/BENCH_sched_micro.json";
#else
      Out = "BENCH_sched_micro.json";
#endif
    }
    std::string Baseline;
    if (I + 2 < argc) {
      Baseline = argv[I + 2];
    } else {
#ifdef SWP_SOURCE_DIR
      Baseline =
          std::string(SWP_SOURCE_DIR) + "/bench/baselines/BENCH_sched_micro_seed.json";
#endif
    }
    return runJsonMode(Out, Baseline);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
