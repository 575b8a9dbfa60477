//===- perfbench/CompileVerify.cpp - Compile-and-verify requests -*- C++ -*-===//
//
// Part of warp-swp. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `livermore` and `random-loops` workloads: one client cycles through
/// a fixed set of programs with one request in flight. A request builds
/// the program (WorkloadSpec::Make), compiles it in place
/// (Session::compileNow), runs the code on the simulator, runs the
/// interpreter on the compiled program, and demands bit-identical final
/// state (compareStates). Every request is also checked against the
/// cycle count and code size the set-up pass recorded for its program.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "swp/API/Session.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Sim/Simulator.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Verify/RandomLoopGen.h"

#include <memory>

using namespace swp;
using namespace perfbench;

namespace {

/// Programs in the `random-loops` set.
constexpr unsigned RandomLoopCount = 1024;

/// Generated programs set-up may screen out before the run fails.
constexpr unsigned MaxScreened = RandomLoopCount / 100;

/// What one request established about its program.
struct Verified {
  std::string Error; ///< Empty on success.
  uint64_t Cycles = 0;
  size_t Words = 0;
};

/// One compile-and-verify request. \p Led, when set, times each layer
/// (and the wait from \p Issued to the first layer) under trace spans;
/// \p Counts, when set, receives the program's exact counts.
Verified compileAndVerify(Session &S, const MachineDescription &MD,
                          const WorkloadSpec &Spec, Clock::time_point Issued,
                          Ledger *Led, uint64_t Req, ExactCounts *Counts) {
  Verified V;
  if (Led)
    Led->add(Layer::Queue, msSince(Issued));
  BuiltWorkload W = timed(Led, Layer::Make, Req, [&] { return Spec.Make(); });
  CompileResponse R = timed(Led, Layer::Compile, Req,
                            [&] { return S.compileNow(*W.Prog); });
  if (!R.Ok) {
    V.Error = Spec.Name + ": compile failed: " + R.Result.Error;
    return V;
  }
  SimResult Sim = timed(Led, Layer::Simulate, Req, [&] {
    return simulate(R.Result.Code, *W.Prog, MD, W.Input);
  });
  if (!Sim.State.Ok) {
    V.Error = Spec.Name + ": simulator error: " + Sim.State.Error;
    return V;
  }
  ProgramState Ref = timed(Led, Layer::Interpret, Req,
                           [&] { return interpret(*W.Prog, W.Input); });
  if (!Ref.Ok) {
    V.Error = Spec.Name + ": interpreter error: " + Ref.Error;
    return V;
  }
  std::string Diff = timed(Led, Layer::Compare, Req, [&] {
    return compareStates(*W.Prog, Ref, Sim.State);
  });
  if (!Diff.empty()) {
    V.Error = Spec.Name + ": wrong answer: " + Diff;
    return V;
  }
  V.Cycles = Sim.Cycles;
  V.Words = R.Result.Code.size();
  if (Counts) {
    Counts->addCompile(R.Result);
    Counts->SimCycles += Sim.Cycles;
  }
  return V;
}

/// Everything set-up builds: the session, the programs, and the
/// reference pass over them.
struct Setup {
  std::unique_ptr<Session> S;
  const MachineDescription *MD = nullptr;
  std::vector<WorkloadSpec> Specs;
  std::vector<Verified> Expected; ///< Per program, from the set-up pass.
  ExactCounts Counts;
  std::vector<std::string> Screened; ///< Why generated programs were dropped.
};

std::unique_ptr<Setup> setUp(const RunOptions &O, Outcome &Out) {
  auto U = std::make_unique<Setup>();
  U->S = std::make_unique<Session>();
  U->MD = U->S->targets().lookup("warp-cell");
  // The reference pass doubles as the warm-up.
  if (O.Workload == "livermore") {
    U->Specs = livermoreKernels();
    for (const WorkloadSpec &Spec : U->Specs) {
      Verified V = compileAndVerify(*U->S, *U->MD, Spec, Clock::now(),
                                    nullptr, 0, &U->Counts);
      if (!V.Error.empty())
        Out.fail("set-up: " + V.Error);
      U->Expected.push_back(std::move(V));
    }
    return U;
  }
  // A generated program the compiler gets wrong is replaced by the next
  // seed and reported: the benchmark times programs the compiler handles,
  // and the differential fuzzer owns correctness. More than MaxScreened
  // fails the run, so a regression cannot hide here.
  for (uint64_t I = 0; U->Specs.size() != RandomLoopCount; ++I) {
    WorkloadSpec Spec = randomLoopSpec(mixSeed(O.Seed, 1, I));
    Verified V = compileAndVerify(*U->S, *U->MD, Spec, Clock::now(), nullptr,
                                  0, &U->Counts);
    if (!V.Error.empty()) {
      U->Screened.push_back(V.Error);
      if (U->Screened.size() > MaxScreened) {
        Out.fail("set-up: more than " + std::to_string(MaxScreened) +
                 " generated programs fail compile-and-verify; last: " +
                 V.Error);
        break;
      }
      continue;
    }
    U->Specs.push_back(std::move(Spec));
    U->Expected.push_back(std::move(V));
  }
  return U;
}

/// One closed-loop window: one client, one request in flight.
struct Window {
  WindowSamples Samples;
  Ledger Led;               ///< Traced windows only.
  uint64_t SimCycles = 0;   ///< Cycles simulated by the window's requests.
  double QueueDepthSum = 0; ///< Pool queue depth sampled per request.
};

Window runWindow(Setup &U, double Seconds, bool Traced, uint64_t &NextReq,
                 size_t &Cursor, Outcome &Out) {
  Clock::time_point Start = Clock::now();
  Clock::time_point End = after(Start, Seconds);
  Window W;
  W.Samples = WindowSamples(Start, Seconds);
  for (;;) {
    Clock::time_point T0 = Clock::now();
    if (T0 >= End)
      break;
    size_t I = Cursor++ % U.Specs.size();
    uint64_t Req = ++NextReq;
    Verified V;
    if (Traced) {
      W.QueueDepthSum += static_cast<double>(ThreadPool::global().queueDepth());
      trace::Span Span("bench.request");
      tagRequest(Span, Req);
      V = compileAndVerify(*U.S, *U.MD, U.Specs[I], T0, &W.Led, Req, nullptr);
    } else {
      V = compileAndVerify(*U.S, *U.MD, U.Specs[I], T0, nullptr, Req,
                           nullptr);
    }
    Clock::time_point T1 = Clock::now();
    W.Samples.add(T1, msBetween(T0, T1));
    ++Out.Attempted;
    const Verified &E = U.Expected[I];
    if (!V.Error.empty())
      Out.fail(V.Error);
    else if (V.Cycles != E.Cycles || V.Words != E.Words)
      Out.fail(U.Specs[I].Name + ": " + std::to_string(V.Cycles) +
               " cycles / " + std::to_string(V.Words) +
               " words, set-up pass had " + std::to_string(E.Cycles) + " / " +
               std::to_string(E.Words));
    W.SimCycles += V.Cycles;
  }
  return W;
}

} // namespace

Outcome perfbench::runCompileVerify(const RunOptions &O) {
  Outcome Out;

  std::vector<double> SetupS;
  auto SetUp = [&](Outcome &SetupOut) { return setUp(O, SetupOut); };
  std::unique_ptr<Setup> U =
      timedSetUps(SetupRepsBefore, SetupS, Out, SetUp);
  Out.Notes.push_back("programs " + std::to_string(U->Specs.size()) +
                      ", 1 client, 1 request in flight");
  for (const std::string &Why : U->Screened)
    Out.Notes.push_back("screened out in set-up: " + Why);
  if (U->Specs.empty())
    return Out;

  uint64_t NextReq = 0;
  size_t Cursor = 0;
  if (!O.Trace) {
    Window W = runWindow(*U, O.Seconds, false, NextReq, Cursor, Out);
    Outcome Again;
    timedSetUps(SetupRepsAfter, SetupS, Again, SetUp);
    EndToEnd E;
    E.SetupS = median(SetupS);
    E.Reps = W.Samples.repetitions();
    E.Counts = U->Counts;
    addEndToEnd(E, Out);
    return Out;
  }

  // Traced run: an untraced half for the overhead reference, a traced
  // half with every layer timed under spans, then the compiler probe.
  Window Plain = runWindow(*U, O.Seconds / 2, false, NextReq, Cursor, Out);
  if (!trace::start(O.TracePath))
    Out.Notes.push_back("trace session did not start; no trace file");
  trace::setThreadName("client");
  Window Traced = runWindow(*U, O.Seconds / 2, true, NextReq, Cursor, Out);
  const Ledger &Led = Traced.Led;

  // The probe re-runs the compiler's inner layers on each program in
  // turn, for at least one pass and about a tenth of the run.
  Ledger Probe;
  uint64_t Probed = 0;
  onOwnThread("probe", [&] {
    Clock::time_point ProbeEnd = after(Clock::now(), O.Seconds / 10);
    for (; Probed < U->Specs.size() || Clock::now() < ProbeEnd; ++Probed) {
      const WorkloadSpec &Spec = U->Specs[Probed % U->Specs.size()];
      uint64_t Req = ++NextReq;
      trace::Span Span("bench.probe");
      tagRequest(Span, Req);
      probeFingerprint(Spec, *U->MD, Req, Probe);
      if (!probeCompileLayers(*U->S, Spec, *U->MD, Req, Probe))
        Out.fail(Spec.Name + ": probe compile failed");
    }
  }, Out);
  std::string TraceErr;
  if (trace::isActive() && !trace::stop(&TraceErr))
    Out.Notes.push_back("trace not written: " + TraceErr);

  // Request-path layers are means over the traced requests; the layers
  // inside the compiler, and jobKey, are means over the probed programs,
  // which the requests visited in equal turns.
  double N = static_cast<double>(Traced.Samples.size());
  double WallMs = Traced.Samples.totalMs();
  LayerMetrics M;
  for (Layer L : {Layer::Queue, Layer::Make, Layer::Compile, Layer::Simulate,
                  Layer::Interpret, Layer::Compare})
    M.ms(L) = N > 0 ? Led.ms(L) / N : 0;
  for (Layer L : {Layer::Transforms, Layer::Reduce, Layer::DdgBuild,
                  Layer::ModSched, Layer::Fingerprint})
    M.ms(L) = Probe.ms(L) / static_cast<double>(Probed);
  M.OtherMs = Probe.ms(Layer::Compile) / static_cast<double>(Probed) -
              M.ms(Layer::Transforms) - M.ms(Layer::Reduce) -
              M.ms(Layer::DdgBuild) - M.ms(Layer::ModSched);
  double SimS = Led.ms(Layer::Simulate) / 1000.0;
  M.McyclesPerS =
      SimS > 0 ? static_cast<double>(Traced.SimCycles) / SimS / 1e6 : 0;
  M.Counts = U->Counts;
  ServiceStats SS = U->S->stats();
  M.ServiceRequests = static_cast<double>(SS.Requests);
  M.ServiceCompiles = static_cast<double>(SS.Compiles);
  M.ReuseFrac = SS.Requests ? static_cast<double>(SS.MemoHits + SS.Coalesced) /
                                  static_cast<double>(SS.Requests)
                            : 0;
  M.QueueDepthMean = N > 0 ? Traced.QueueDepthSum / N : 0;
  double Covered = 0;
  for (Layer L : {Layer::Make, Layer::Compile, Layer::Simulate,
                  Layer::Interpret, Layer::Compare})
    Covered += Led.ms(L);
  M.CoveredFrac = WallMs > 0 ? Covered / WallMs : 0;
  M.OverheadFrac = 1.0 - best(Traced.Samples.repetitions()).Rps /
                             best(Plain.Samples.repetitions()).Rps;
  M.TracedRequests = N;

  Out.Notes.push_back("traced requests " + std::to_string(Traced.Samples.size()) +
                      ", probed programs " + std::to_string(Probed) +
                      ", dropped trace events " +
                      std::to_string(trace::droppedEvents()));
  addShares(M, N > 0 ? WallMs / N : 0,
            {Layer::Queue, Layer::Make, Layer::Compile, Layer::Simulate,
             Layer::Interpret, Layer::Compare},
            Out);
  addLayerMetrics(M, Out);
  return Out;
}
