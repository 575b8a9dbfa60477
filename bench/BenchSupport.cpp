//===- bench/BenchSupport.cpp - Shared benchmark harness plumbing ---------------===//
//
// Part of warp-swp. See BenchSupport.h.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "swp/API/Session.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Sim/Simulator.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Support/Trace.h"

using namespace swp;
using namespace swp::bench;

/// One session for the whole bench harness: all runs share its id space,
/// so a trace of a bench binary groups per-request spans under one
/// session. The in-place compileNow path is what benches need — they
/// simulate the mutated program — and it is thread-safe, so runJobs may
/// call it from every pool worker at once.
static Session &benchSession() {
  static Session S;
  return S;
}

RunResult swp::bench::runWorkload(const WorkloadSpec &Spec,
                                  const MachineDescription &MD,
                                  const CompilerOptions &Opts, bool Verify) {
  RunResult R;
  trace::Span JobSpan("benchWorkload");
  if (JobSpan.active())
    JobSpan.args("\"workload\": \"" + Spec.Name + "\"");
  BuiltWorkload W = Spec.Make();
  CompileResponse Resp = benchSession().compileNow(*W.Prog, MD, &Opts);
  CompileResult &CR = Resp.Result;
  if (!CR.Ok) {
    R.Error = Spec.Name + ": compile failed: " + CR.Error;
    return R;
  }
  SimResult Sim = simulate(CR.Code, *W.Prog, MD, W.Input);
  if (!Sim.State.Ok) {
    R.Error = Spec.Name + ": simulation failed: " + Sim.State.Error;
    return R;
  }
  if (Verify) {
    ProgramState Golden = interpret(*W.Prog, W.Input);
    if (!Golden.Ok) {
      R.Error = Spec.Name + ": interpreter failed: " + Golden.Error;
      return R;
    }
    std::string Mismatch = compareStates(*W.Prog, Golden, Sim.State);
    if (!Mismatch.empty()) {
      R.Error = Spec.Name + ": WRONG ANSWER: " + Mismatch;
      return R;
    }
  }
  R.Ok = true;
  R.Cycles = Sim.Cycles;
  R.Flops = Sim.State.Flops;
  R.CellMFLOPS = Sim.MFLOPS;
  R.CodeSize = CR.Code.size();
  R.Util = std::move(Sim.Util);
  R.Report = std::move(CR.Report);
  R.Report.HasUtilization = true;
  R.Report.Util = R.Util;
  return R;
}

std::vector<RunResult> swp::bench::runJobs(const std::vector<RunJob> &Jobs,
                                           ThreadPool &Pool) {
  std::vector<RunResult> Results(Jobs.size());
  Pool.parallelFor(Jobs.size(), [&](size_t I) {
    const RunJob &J = Jobs[I];
    Results[I] = runWorkload(*J.Spec, *J.MD, J.Opts, J.Verify);
  });
  return Results;
}

std::vector<RunResult> swp::bench::runJobs(const std::vector<RunJob> &Jobs,
                                           unsigned Threads) {
  // Default to the shared process-wide pool: harness invocations stop
  // paying thread spawn/join per call. An explicit thread count still
  // gets a private pool (thread-scaling sweeps need exact widths).
  if (Threads == 0)
    return runJobs(Jobs, ThreadPool::global());
  ThreadPool Pool(Threads);
  return runJobs(Jobs, Pool);
}

std::vector<RunResult>
swp::bench::runWorkloads(const std::vector<WorkloadSpec> &Specs,
                         const MachineDescription &MD,
                         const CompilerOptions &Opts, bool Verify,
                         unsigned Threads) {
  std::vector<RunJob> Jobs;
  Jobs.reserve(Specs.size());
  for (const WorkloadSpec &Spec : Specs)
    Jobs.push_back({&Spec, &MD, Opts, Verify});
  return runJobs(Jobs, Threads);
}

std::string swp::bench::bar(unsigned Count, unsigned Scale) {
  unsigned Len = (Count + Scale - 1) / Scale;
  return std::string(Len, '#');
}
