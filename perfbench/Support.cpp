//===- perfbench/Support.cpp - Benchmark plumbing ---------------*- C++ -*-===//
//
// Part of warp-swp. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "swp/API/Session.h"
#include "swp/DDG/DDGBuilder.h"
#include "swp/IR/Expansion.h"
#include "swp/IR/Transforms.h"
#include "swp/Pipeliner/HierarchicalReducer.h"
#include "swp/Pipeliner/LoopUtils.h"
#include "swp/Pipeliner/ModuloScheduler.h"
#include "swp/Pipeliner/ModuloVariableExpansion.h"
#include "swp/Sched/ListScheduler.h"
#include "swp/Service/CompileService.h"
#include "swp/Support/Casting.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

using namespace swp;
using namespace perfbench;

void Outcome::fail(const std::string &What) {
  ++Failed;
  if (Errors.size() < 10)
    Errors.push_back(What);
}

const char *perfbench::layerMetric(Layer L) {
  switch (L) {
  case Layer::Make:
    return "workloads.make_ms";
  case Layer::Transforms:
    return "ir.transforms_ms";
  case Layer::Reduce:
    return "pipeliner.reduce_ms";
  case Layer::DdgBuild:
    return "ddg.build_ms";
  case Layer::ModSched:
    return "pipeliner.modsched_ms";
  case Layer::Compile:
    return "codegen.compile_ms";
  case Layer::Simulate:
    return "sim.simulate_ms";
  case Layer::Interpret:
    return "interp.interpret_ms";
  case Layer::Compare:
    return "verify.compare_ms";
  case Layer::Fingerprint:
    return "service.fingerprint_ms";
  case Layer::Queue:
    return "api.queue_ms";
  case Layer::Count:
    break;
  }
  return "unknown";
}

void ExactCounts::addCompile(const CompileResult &R) {
  CodeWords += R.Code.size();
  for (const LoopReport &L : R.Report.Loops) {
    if (L.pipelined()) {
      SumII += L.II;
      SumMII += L.MII;
      ++LoopsPipelined;
    }
    if (L.degraded())
      ++LoopsDegraded;
  }
  IntervalsTried += R.Report.SchedTotals.IntervalsTried;
  SlotsProbed += R.Report.SchedTotals.SlotsProbed;
}

//===----------------------------------------------------------------------===//
// Layer probes.
//===----------------------------------------------------------------------===//

namespace {

/// The compiler's phase-0 walk: every loop, nested ones included, gets its
/// induction variable materialized before any loop is scheduled.
void prepareLoops(Program &P, StmtList &List) {
  for (StmtPtr &S : List) {
    if (auto *For = dyn_cast<ForStmt>(S.get())) {
      prepareLoopForCodegen(P, *For);
      prepareLoops(P, For->Body);
    } else if (auto *If = dyn_cast<IfStmt>(S.get())) {
      prepareLoops(P, If->Then);
      prepareLoops(P, If->Else);
    }
  }
}

std::set<unsigned> noAliasArrays(const Program &P) {
  std::set<unsigned> Out;
  for (unsigned Id = 0; Id != P.numArrays(); ++Id)
    if (P.arrayInfo(Id).NoAlias)
      Out.insert(Id);
  return Out;
}

} // namespace

bool perfbench::probeCompileLayers(Session &S, const WorkloadSpec &Spec,
                                   const MachineDescription &MD, uint64_t Req,
                                   Ledger &Led) {
  BuiltWorkload A = Spec.Make();
  CompileResponse R = timed(&Led, Layer::Compile, Req,
                            [&] { return S.compileNow(*A.Prog); });
  if (!R.Ok)
    return false;
  // The compiler records an MII exactly for the loops it modulo-scheduled.
  std::set<unsigned> Scheduled;
  for (const LoopReport &L : R.Result.Report.Loops)
    if (L.MII != 0)
      Scheduled.insert(L.LoopId);

  BuiltWorkload B = Spec.Make();
  Program &P = *B.Prog;
  timed(&Led, Layer::Transforms, Req, [&] {
    expandLibraryOps(P);
    while (eliminateDeadCode(P) + hoistLoopInvariants(P) +
               localValueNumbering(P) !=
           0) {
    }
    return 0;
  });

  std::vector<std::pair<ForStmt *, std::vector<ScheduleUnit>>> Loops;
  timed(&Led, Layer::Reduce, Req, [&] {
    prepareLoops(P, P.Body);
    for (ForStmt *For : innermostLoops(P.Body))
      Loops.emplace_back(For, reduceBodyToUnits(For->Body, MD, For->LoopId));
    return 0;
  });

  const std::set<unsigned> NoAlias = noAliasArrays(P);
  for (auto &[For, Units] : Loops) {
    if (Units.empty())
      continue;
    // The plain graph drives the fallback; the graph with expandable
    // registers relaxed is the one modulo scheduling sees. The compiler
    // further narrows the expandable set to registers local to the loop,
    // which only its register allocator knows.
    DDGBuildOptions PlainOpts;
    PlainOpts.CurrentLoopId = For->LoopId;
    PlainOpts.NoAliasArrays = NoAlias;
    DepGraph PlainG = timed(&Led, Layer::DdgBuild, Req, [&] {
      return buildLoopDepGraph(Units, MD, PlainOpts);
    });
    if (!Scheduled.count(For->LoopId))
      continue;
    DDGBuildOptions ExpOpts = PlainOpts;
    ExpOpts.ExpandedRegs = mveEligibleRegs(Units, liveOutRegs(P, *For), P);
    DepGraph G = timed(&Led, Layer::DdgBuild, Req, [&] {
      return buildLoopDepGraph(Units, MD, ExpOpts);
    });
    Schedule Local = listSchedule(PlainG, MD);
    ModuloScheduleOptions SOpts;
    SOpts.MaxII = static_cast<unsigned>(std::max(
        unpipelinedPeriod(PlainG, Local), Local.spanLength(PlainG)));
    timed(&Led, Layer::ModSched, Req,
          [&] { return moduloSchedule(G, MD, SOpts); });
  }
  return true;
}

void perfbench::onOwnThread(const std::string &Name,
                            const std::function<void()> &F, Outcome &Out) {
  std::string Error;
  std::thread T([&] {
    trace::setThreadName(Name);
    try {
      F();
    } catch (const std::exception &E) {
      Error = E.what();
    }
  });
  T.join();
  if (!Error.empty())
    Out.fail(Name + " stopped: " + Error);
}

void perfbench::probeFingerprint(const WorkloadSpec &Spec,
                                 const MachineDescription &MD, uint64_t Req,
                                 Ledger &Led) {
  BuiltWorkload W = Spec.Make();
  timed(&Led, Layer::Fingerprint, Req, [&] {
    return CompileService::jobKey(*W.Prog, MD, CompilerOptions());
  });
}

//===----------------------------------------------------------------------===//
// Metric sets. The names and units here are the ones BENCHMARK.json lists.
//===----------------------------------------------------------------------===//

void perfbench::addEndToEnd(const EndToEnd &E, Outcome &Out) {
  const Repetition &B = best(E.Reps);
  Out.add("setup_s", E.SetupS, "s");
  Out.add("req_ms_p50", B.Latency.P50, "ms");
  Out.add("req_ms_p99", B.Latency.P99, "ms");
  Out.add("throughput_rps", B.Rps, "1/s");
  Out.add("peak_rss_mb", peakRssMb(), "MiB");
  Out.add("sim_cycles", static_cast<double>(E.Counts.SimCycles), "cycles");
  Out.add("code_words", static_cast<double>(E.Counts.CodeWords), "insts");
  std::string Reps = "throughput of each repetition (1/s):";
  for (const Repetition &R : E.Reps)
    Reps += " " + std::to_string(static_cast<long long>(R.Rps));
  Out.Notes.push_back(Reps);
  Out.Notes.push_back(
      "best repetition: " + std::to_string(B.Latency.Samples) +
      " latency samples, " + std::to_string(B.Latency.BeyondP99) +
      " beyond p99");
  Out.Notes.push_back(
      "failed_frac " +
      std::to_string(Out.Attempted ? static_cast<double>(Out.Failed) /
                                         static_cast<double>(Out.Attempted)
                                   : 1.0) +
      " (" + std::to_string(Out.Failed) + " of " +
      std::to_string(Out.Attempted) + " requests)");
}

void perfbench::addLayerMetrics(const LayerMetrics &M, Outcome &Out) {
  const ExactCounts &C = M.Counts;
  auto Count = [&](const char *Name, uint64_t V, const char *Unit = "count") {
    Out.add(Name, static_cast<double>(V), Unit);
  };
  auto Time = [&](Layer L) { Out.add(layerMetric(L), M.ms(L), "ms"); };
  Time(Layer::Make);
  Time(Layer::Transforms);
  Time(Layer::Reduce);
  Time(Layer::DdgBuild);
  Time(Layer::ModSched);
  Count("pipeliner.intervals_tried", C.IntervalsTried);
  Count("pipeliner.slots_probed", C.SlotsProbed);
  Count("pipeliner.sum_ii", C.SumII, "cycles");
  Count("pipeliner.sum_mii", C.SumMII, "cycles");
  Time(Layer::Compile);
  Out.add("codegen.other_ms", M.OtherMs, "ms");
  Count("codegen.loops_pipelined", C.LoopsPipelined);
  Count("codegen.loops_degraded", C.LoopsDegraded);
  Time(Layer::Simulate);
  Out.add("sim.mcycles_per_s", M.McyclesPerS, "Mcycles/s");
  Time(Layer::Interpret);
  Time(Layer::Compare);
  Time(Layer::Fingerprint);
  Out.add("service.reuse_frac", M.ReuseFrac, "ratio");
  Out.add("service.requests", M.ServiceRequests, "count");
  Out.add("service.compiles", M.ServiceCompiles, "count");
  Time(Layer::Queue);
  Out.add("support.queue_depth_mean", M.QueueDepthMean, "count");
  Out.add("trace.covered_frac", M.CoveredFrac, "ratio");
  Out.add("trace.overhead_frac", M.OverheadFrac, "ratio");
  Out.add("trace.requests", M.TracedRequests, "count");
}

void perfbench::addShares(const LayerMetrics &M, double MeanWallMs,
                          std::initializer_list<Layer> Path, Outcome &Out) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "mean request %.4f ms; share of it:",
                MeanWallMs);
  Out.Notes.push_back(Buf);
  auto Line = [&](const char *Name, double Ms) {
    std::snprintf(Buf, sizeof(Buf), "  %-30s %9.4f ms %6.1f%%", Name, Ms,
                  MeanWallMs > 0 ? 100.0 * Ms / MeanWallMs : 0.0);
    Out.Notes.push_back(Buf);
  };
  for (Layer L : Path) {
    Line(layerMetric(L), M.ms(L));
    if (L != Layer::Compile)
      continue;
    for (Layer In : {Layer::Transforms, Layer::Reduce, Layer::DdgBuild,
                     Layer::ModSched})
      Line((std::string("  ") + layerMetric(In)).c_str(), M.ms(In));
    Line("  codegen.other_ms (derived)", M.OtherMs);
  }
}

//===----------------------------------------------------------------------===//
// Statistics.
//===----------------------------------------------------------------------===//

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2;
}

LatencySummary perfbench::summarize(std::vector<double> Ms) {
  LatencySummary S;
  S.Samples = Ms.size();
  if (Ms.empty())
    return S;
  std::sort(Ms.begin(), Ms.end());
  // Nearest-rank percentiles.
  auto Rank = [&](double Q) {
    size_t R = static_cast<size_t>(std::ceil(Q * Ms.size()));
    return Ms[std::max<size_t>(R, 1) - 1];
  };
  S.P50 = Rank(0.50);
  S.P99 = Rank(0.99);
  S.BeyondP99 = Ms.end() - std::upper_bound(Ms.begin(), Ms.end(), S.P99);
  return S;
}

double WindowSamples::totalMs() const {
  double Sum = 0;
  for (double Ms : LatencyMs)
    Sum += Ms;
  return Sum;
}

std::vector<Repetition> WindowSamples::repetitions() const {
  size_t K = std::max<size_t>(1, std::lround(Seconds / RepetitionS));
  double RepS = Seconds / static_cast<double>(K);
  std::vector<std::vector<double>> Ms(K);
  for (size_t I = 0; I != DoneS.size(); ++I) {
    // Requests drained after the window closed belong to no repetition.
    size_t Idx = static_cast<size_t>(DoneS[I] / RepS);
    if (Idx < K)
      Ms[Idx].push_back(LatencyMs[I]);
  }
  std::vector<Repetition> Reps;
  for (std::vector<double> &V : Ms) {
    Repetition R;
    R.Rps = static_cast<double>(V.size()) / RepS;
    R.Latency = summarize(std::move(V));
    Reps.push_back(R);
  }
  return Reps;
}

const Repetition &perfbench::best(const std::vector<Repetition> &Reps) {
  return *std::max_element(
      Reps.begin(), Reps.end(),
      [](const Repetition &A, const Repetition &B) { return A.Rps < B.Rps; });
}

double perfbench::peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  uint64_t Z = Seed + (Stream << 48) + 0x9E3779B97F4A7C15ULL * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Code identity.
//===----------------------------------------------------------------------===//

namespace {

struct Encoder {
  std::string &Out;

  void put(uint64_t V) {
    char B[sizeof(V)];
    std::memcpy(B, &V, sizeof(V));
    Out.append(B, sizeof(V));
  }
  void put(int64_t V) { put(static_cast<uint64_t>(V)); }
  void put(double V) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof(V));
    put(Bits);
  }
  void put(const PhysReg &R) {
    put(static_cast<uint64_t>(R.RC));
    put(static_cast<uint64_t>(R.Index));
  }
};

} // namespace

void perfbench::encodeCode(const VLIWProgram &Code, std::string &Out) {
  Out.clear();
  Encoder E{Out};
  E.put(static_cast<uint64_t>(Code.Insts.size()));
  for (const VLIWInst &I : Code.Insts) {
    E.put(static_cast<uint64_t>(I.Ops.size()));
    for (const MachOp &Op : I.Ops) {
      E.put(static_cast<uint64_t>(Op.Opc));
      E.put(Op.Def);
      E.put(static_cast<uint64_t>(Op.Uses.size()));
      for (const PhysReg &U : Op.Uses)
        E.put(U);
      E.put(static_cast<uint64_t>(Op.ArrayId));
      E.put(static_cast<uint64_t>(Op.Index.Terms.size()));
      for (const AffineExpr::Term &T : Op.Index.Terms) {
        E.put(static_cast<uint64_t>(T.LoopId));
        E.put(T.Coef);
      }
      E.put(Op.Index.Const);
      E.put(Op.AddendReg);
      E.put(Op.FImm);
      E.put(Op.IImm);
      E.put(static_cast<int64_t>(Op.Queue));
      E.put(static_cast<uint64_t>(Op.Preds.size()));
      for (const PredPhys &Pr : Op.Preds) {
        E.put(Pr.Reg);
        E.put(static_cast<uint64_t>(Pr.Negated));
      }
    }
    E.put(static_cast<uint64_t>(I.Agu.size()));
    for (const AguOp &A : I.Agu) {
      E.put(static_cast<uint64_t>(A.LoopId));
      E.put(static_cast<uint64_t>(A.Relative));
      E.put(A.A);
      E.put(A.Imm);
    }
    E.put(static_cast<uint64_t>(I.Ctrl.K));
    E.put(static_cast<uint64_t>(I.Ctrl.Target));
    E.put(I.Ctrl.Counter);
  }
  E.put(static_cast<uint64_t>(Code.LiveInRegs.size()));
  for (const auto &[VRegId, Reg] : Code.LiveInRegs) {
    E.put(static_cast<uint64_t>(VRegId));
    E.put(Reg);
  }
  E.put(static_cast<uint64_t>(Code.FloatRegsUsed));
  E.put(static_cast<uint64_t>(Code.IntRegsUsed));
}

uint64_t perfbench::digest(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}
