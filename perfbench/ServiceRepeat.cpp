//===- perfbench/ServiceRepeat.cpp - Memoized service requests --*- C++ -*-===//
//
// Part of warp-swp. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `service-repeat` workload: one generator thread keeps at most one
/// request per pool worker in flight through Session::submit and reads
/// the responses in submission order. 80% of requests draw, with Zipf
/// weights 1/(rank+1), from a seeded hot set of 64 programs (the 19
/// Livermore kernels plus 45 synthetic ones); the rest are random loops
/// whose seeds are never reused, so each is a cold compile.
///
/// Checks: every hot-set response must be byte-identical to a serial
/// compileProgram reference made during set-up; every fresh response's
/// code digest is stored and, after the timed window, compared with a
/// serial compileProgram of the same seed. After the window the hot set
/// is also simulated and interpreted once, which gives `sim_cycles` and
/// checks the references themselves.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "swp/API/Session.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Sim/Simulator.h"
#include "swp/Support/RNG.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Verify/RandomLoopGen.h"

#include <algorithm>
#include <deque>
#include <memory>

using namespace swp;
using namespace perfbench;

namespace {

constexpr unsigned SyntheticHot = 45; ///< Plus the 19 Livermore kernels.
/// The population seed of the paper benches: the workload seed picks the
/// hot set's order, not its programs, so the exact counts do not move
/// with it.
constexpr uint64_t SyntheticSeed = 1988;
constexpr double HotShare = 0.8;
constexpr unsigned WarmRequests = 512; ///< Serial warm-up after the hot set.

/// Request-stream ids for mixSeed: the hot-set order and two disjoint
/// fresh-seed streams (warm-up and timed windows).
enum : uint64_t { HotOrderStream = 2, WarmStream = 4, WindowStream = 5 };

/// One request: a hot-set rank, or a fresh random-loop seed (Rank < 0).
struct Item {
  int Rank = -1;
  uint64_t FreshSeed = 0;
};

struct Setup {
  std::unique_ptr<Session> S;
  const MachineDescription *MD = nullptr;
  std::vector<WorkloadSpec> Hot;    ///< In Zipf rank order.
  std::vector<std::string> RefCode; ///< encodeCode of each serial reference.
  std::vector<double> Cdf;          ///< Cumulative Zipf weights.
  ExactCounts Counts;               ///< Of the hot-set references.
  uint64_t WarmCompiles = 0;        ///< Service compiles during warm-up.
  /// Fresh responses to check after the window: (seed, code digest).
  std::vector<std::pair<uint64_t, uint64_t>> Fresh;
};

/// The seeded request sequence.
class Stream {
public:
  Stream(const Setup &U, uint64_t Seed, uint64_t Id)
      : U(U), R(mixSeed(Seed, Id, 0)), Seed(Seed), Id(Id) {}

  Item next() {
    Item It;
    if (R.uniformReal() < HotShare) {
      double X = R.uniformReal() * U.Cdf.back();
      size_t Rank = std::upper_bound(U.Cdf.begin(), U.Cdf.end(), X) -
                    U.Cdf.begin();
      It.Rank = static_cast<int>(std::min(Rank, U.Cdf.size() - 1));
    } else {
      It.FreshSeed = mixSeed(Seed, Id, ++FreshCount);
    }
    return It;
  }

private:
  const Setup &U;
  RNG R;
  uint64_t Seed, Id;
  uint64_t FreshCount = 0;
};

/// Written by the factory on the worker, read by the generator after the
/// response resolves (the future orders the two).
struct Slot {
  Clock::time_point Started;
  double MakeMs = 0;
};

CompileRequest makeRequest(const Setup &U, const Item &It, Slot *Sl,
                           uint64_t Id) {
  const WorkloadSpec *Spec = It.Rank >= 0 ? &U.Hot[It.Rank] : nullptr;
  uint64_t Seed = It.FreshSeed;
  CompileRequest Req;
  Req.Make = [Spec, Seed, Sl, Id]() -> std::unique_ptr<Program> {
    auto Build = [&] {
      return Spec ? Spec->Make().Prog : generateRandomLoop(Seed).Prog;
    };
    if (!Sl)
      return Build();
    Sl->Started = Clock::now();
    trace::Span Span(layerMetric(Layer::Make));
    tagRequest(Span, Id);
    std::unique_ptr<Program> P = Build();
    Sl->MakeMs = msSince(Sl->Started);
    return P;
  };
  return Req;
}

std::string itemName(const Setup &U, const Item &It) {
  return It.Rank >= 0 ? U.Hot[It.Rank].Name
                      : "fuzz-" + std::to_string(It.FreshSeed);
}

/// Checks one response: hot ones against their reference bytes; fresh
/// ones are queued for the after-window check.
void check(Setup &U, const Item &It, const CompileResponse &R,
           std::string &Buf, Outcome &Out) {
  if (!R.Ok) {
    Out.fail(itemName(U, It) + ": compile failed: " + R.Result.Error);
    return;
  }
  encodeCode(R.Result.Code, Buf);
  if (It.Rank < 0)
    U.Fresh.emplace_back(It.FreshSeed, digest(Buf));
  else if (Buf != U.RefCode[It.Rank])
    Out.fail(itemName(U, It) +
             ": code differs from the serial compileProgram reference");
}

std::unique_ptr<Setup> setUp(const RunOptions &O, Outcome &Out) {
  auto U = std::make_unique<Setup>();
  U->S = std::make_unique<Session>();
  U->MD = U->S->targets().lookup("warp-cell");
  U->Hot = livermoreKernels();
  for (WorkloadSpec &Spec : syntheticPopulation(SyntheticHot, SyntheticSeed))
    U->Hot.push_back(std::move(Spec));
  RNG Order(mixSeed(O.Seed, HotOrderStream, 0));
  for (size_t I = U->Hot.size(); I > 1; --I)
    std::swap(U->Hot[I - 1],
              U->Hot[static_cast<size_t>(
                  Order.uniform(0, static_cast<int64_t>(I) - 1))]);
  double Sum = 0;
  for (size_t Rank = 0; Rank != U->Hot.size(); ++Rank)
    U->Cdf.push_back(Sum += 1.0 / static_cast<double>(Rank + 1));

  for (const WorkloadSpec &Spec : U->Hot) {
    BuiltWorkload W = Spec.Make();
    CompileResult R = compileProgram(*W.Prog, *U->MD);
    if (!R.Ok)
      Out.fail("set-up: " + Spec.Name + ": reference compile failed: " +
               R.Error);
    U->RefCode.emplace_back();
    encodeCode(R.Code, U->RefCode.back());
    U->Counts.addCompile(R);
  }

  // Warm-up, one request at a time so the compile count is exact: every
  // hot program once, then a fixed prefix of a warm-up stream.
  std::string Buf;
  auto Serve = [&](const Item &It) {
    check(*U, It, U->S->submit(makeRequest(*U, It, nullptr, 0)).get(), Buf,
          Out);
  };
  for (size_t Rank = 0; Rank != U->Hot.size(); ++Rank)
    Serve(Item{static_cast<int>(Rank), 0});
  Stream Warm(*U, O.Seed, WarmStream);
  for (unsigned I = 0; I != WarmRequests; ++I)
    Serve(Warm.next());
  U->WarmCompiles = U->S->stats().Compiles;
  return U;
}

/// One closed-loop window.
struct Window {
  WindowSamples Samples;
  ServiceStats Before, After;
  // Traced windows only:
  Ledger Led;              ///< Queue wait and Make, from the factory.
  std::vector<Item> Items; ///< What was requested, in order.
  double QueueDepthSum = 0;
};

Window runWindow(Setup &U, Stream &Src, double Seconds, bool Traced,
                 uint64_t &NextReq, Outcome &Out) {
  struct InFlight {
    CompileHandle H;
    Item It;
    uint64_t Id = 0;
    Clock::time_point Submitted;
    std::unique_ptr<Slot> Sl;
  };
  Clock::time_point Start = Clock::now();
  Clock::time_point End = after(Start, Seconds);
  Window W;
  W.Samples = WindowSamples(Start, Seconds);
  W.Before = U.S->stats();
  ThreadPool &Pool = ThreadPool::global();
  const size_t Width = Pool.size();
  std::deque<InFlight> Q;
  std::string Buf;
  for (;;) {
    while (Q.size() < Width && Clock::now() < End) {
      InFlight F;
      F.It = Src.next();
      F.Id = ++NextReq;
      if (Traced) {
        F.Sl = std::make_unique<Slot>();
        W.Items.push_back(F.It);
        W.QueueDepthSum += static_cast<double>(Pool.queueDepth());
      }
      CompileRequest Req = makeRequest(U, F.It, F.Sl.get(), F.Id);
      trace::Span Span("api.submit");
      tagRequest(Span, F.Id);
      F.Submitted = Clock::now();
      F.H = U.S->submit(std::move(Req));
      Q.push_back(std::move(F));
    }
    if (Q.empty())
      break;
    InFlight F = std::move(Q.front());
    Q.pop_front();
    const CompileResponse &R = F.H.get();
    Clock::time_point T1 = Clock::now();
    W.Samples.add(T1, msBetween(F.Submitted, T1));
    ++Out.Attempted;
    if (F.Sl && F.Sl->Started != Clock::time_point()) {
      W.Led.add(Layer::Queue, msBetween(F.Submitted, F.Sl->Started));
      W.Led.add(Layer::Make, F.Sl->MakeMs);
    }
    check(U, F.It, R, Buf, Out);
  }
  W.After = U.S->stats();
  return W;
}

/// After the window: recompiles every fresh program serially (spread over
/// the pool) and compares code digests; simulates and interprets the hot
/// set once, timing those layers into \p Led and its cycles into
/// U.Counts.SimCycles.
void checkAfterWindow(Setup &U, Ledger &Led, Outcome &Out) {
  std::vector<char> Bad(U.Fresh.size(), 0);
  ThreadPool::global().parallelFor(U.Fresh.size(), [&](size_t I) {
    BuiltWorkload W = generateRandomLoop(U.Fresh[I].first);
    CompileResult R = compileProgram(*W.Prog, *U.MD);
    std::string Bytes;
    encodeCode(R.Code, Bytes);
    Bad[I] = !R.Ok || digest(Bytes) != U.Fresh[I].second;
  });
  for (size_t I = 0; I != Bad.size(); ++I)
    if (Bad[I])
      Out.fail("fuzz-" + std::to_string(U.Fresh[I].first) +
               ": code differs from the serial compileProgram reference");

  std::string Buf;
  for (size_t Rank = 0; Rank != U.Hot.size(); ++Rank) {
    const WorkloadSpec &Spec = U.Hot[Rank];
    BuiltWorkload W = Spec.Make();
    CompileResult R = compileProgram(*W.Prog, *U.MD);
    encodeCode(R.Code, Buf);
    if (!R.Ok || Buf != U.RefCode[Rank]) {
      Out.fail(Spec.Name + ": reference compile is not reproducible");
      continue;
    }
    uint64_t Id = Rank + 1;
    SimResult Sim = timed(&Led, Layer::Simulate, Id, [&] {
      return simulate(R.Code, *W.Prog, *U.MD, W.Input);
    });
    ProgramState Ref = timed(&Led, Layer::Interpret, Id,
                             [&] { return interpret(*W.Prog, W.Input); });
    std::string Diff = timed(&Led, Layer::Compare, Id, [&] {
      return compareStates(*W.Prog, Ref, Sim.State);
    });
    if (!Sim.State.Ok || !Ref.Ok || !Diff.empty())
      Out.fail(Spec.Name + ": hot-set reference gives a wrong answer: " +
               Sim.State.Error + Ref.Error + Diff);
    U.Counts.SimCycles += Sim.Cycles;
  }
}

} // namespace

Outcome perfbench::runServiceRepeat(const RunOptions &O) {
  Outcome Out;

  std::vector<double> SetupS;
  auto SetUp = [&](Outcome &SetupOut) { return setUp(O, SetupOut); };
  std::unique_ptr<Setup> U =
      timedSetUps(SetupRepsBefore, SetupS, Out, SetUp);
  Out.Notes.push_back("hot programs " + std::to_string(U->Hot.size()) +
                      ", 1 generator thread, up to " +
                      std::to_string(ThreadPool::global().size()) +
                      " requests in flight on a pool of " +
                      std::to_string(ThreadPool::global().size()));

  uint64_t NextReq = 0;
  Stream Src(*U, O.Seed, WindowStream);
  Ledger CheckLed;
  if (!O.Trace) {
    Window W = runWindow(*U, Src, O.Seconds, false, NextReq, Out);
    checkAfterWindow(*U, CheckLed, Out);
    Outcome Again;
    timedSetUps(SetupRepsAfter, SetupS, Again, SetUp);
    uint64_t Reqs = W.After.Requests - W.Before.Requests;
    Out.Notes.push_back(
        "window requests " + std::to_string(Reqs) + ", compiles " +
        std::to_string(W.After.Compiles - W.Before.Compiles) +
        ", fresh programs checked " + std::to_string(U->Fresh.size()));
    EndToEnd E;
    E.SetupS = median(SetupS);
    E.Reps = W.Samples.repetitions();
    E.Counts = U->Counts;
    addEndToEnd(E, Out);
    return Out;
  }

  Window Plain = runWindow(*U, Src, O.Seconds / 2, false, NextReq, Out);
  if (!trace::start(O.TracePath))
    Out.Notes.push_back("trace session did not start; no trace file");
  trace::setThreadName("generator");
  Window Traced = runWindow(*U, Src, O.Seconds / 2, true, NextReq, Out);

  // Replay the traced requests in order through the probes, for about a
  // tenth of the run: jobKey on each, the compiler layers on the misses
  // (the fresh programs; the hot set stays memoized after warm-up).
  Ledger Probe;
  uint64_t Probed = 0;
  onOwnThread("probe", [&] {
    Clock::time_point ProbeEnd = after(Clock::now(), O.Seconds / 10);
    for (; Probed < Traced.Items.size() && Clock::now() < ProbeEnd; ++Probed) {
      const Item &It = Traced.Items[Probed];
      WorkloadSpec Spec =
          It.Rank >= 0 ? U->Hot[It.Rank] : randomLoopSpec(It.FreshSeed);
      uint64_t Req = ++NextReq;
      trace::Span Span("bench.probe");
      tagRequest(Span, Req);
      probeFingerprint(Spec, *U->MD, Req, Probe);
      if (It.Rank < 0 &&
          !probeCompileLayers(*U->S, Spec, *U->MD, Req, Probe))
        Out.fail(Spec.Name + ": probe compile failed");
    }
  }, Out);
  // The check pass compiles on the pool workers, whose trace buffers hold
  // the traced requests: stop tracing first.
  std::string TraceErr;
  if (trace::isActive() && !trace::stop(&TraceErr))
    Out.Notes.push_back("trace not written: " + TraceErr);
  checkAfterWindow(*U, CheckLed, Out);

  double N = static_cast<double>(Traced.Samples.size());
  double WallMs = Traced.Samples.totalMs();
  LayerMetrics M;
  for (Layer L : {Layer::Queue, Layer::Make})
    M.ms(L) = N > 0 ? Traced.Led.ms(L) / N : 0;
  for (Layer L : {Layer::Fingerprint, Layer::Transforms, Layer::Reduce,
                  Layer::DdgBuild, Layer::ModSched, Layer::Compile})
    M.ms(L) = Probed ? Probe.ms(L) / static_cast<double>(Probed) : 0;
  M.OtherMs = M.ms(Layer::Compile) - M.ms(Layer::Transforms) -
              M.ms(Layer::Reduce) - M.ms(Layer::DdgBuild) -
              M.ms(Layer::ModSched);
  // Not on this workload's request path: per hot program of the check.
  double Checked = static_cast<double>(CheckLed.calls(Layer::Simulate));
  for (Layer L : {Layer::Simulate, Layer::Interpret, Layer::Compare})
    M.ms(L) = Checked > 0 ? CheckLed.ms(L) / Checked : 0;
  double SimS = CheckLed.ms(Layer::Simulate) / 1000.0;
  M.McyclesPerS =
      SimS > 0 ? static_cast<double>(U->Counts.SimCycles) / SimS / 1e6 : 0;
  M.Counts = U->Counts;
  uint64_t Reqs = Traced.After.Requests - Traced.Before.Requests;
  uint64_t Reused = Traced.After.MemoHits - Traced.Before.MemoHits +
                    Traced.After.Coalesced - Traced.Before.Coalesced;
  M.ServiceRequests = static_cast<double>(Reqs);
  M.ReuseFrac =
      Reqs ? static_cast<double>(Reused) / static_cast<double>(Reqs) : 0;
  M.ServiceCompiles = static_cast<double>(U->WarmCompiles);
  M.QueueDepthMean =
      Traced.Items.empty()
          ? 0
          : Traced.QueueDepthSum / static_cast<double>(Traced.Items.size());
  double PathMs = M.ms(Layer::Queue) + M.ms(Layer::Make) +
                  M.ms(Layer::Fingerprint) + M.ms(Layer::Compile);
  M.CoveredFrac = WallMs > 0 ? PathMs * N / WallMs : 0;
  M.OverheadFrac = 1.0 - best(Traced.Samples.repetitions()).Rps /
                             best(Plain.Samples.repetitions()).Rps;
  M.TracedRequests = N;

  Out.Notes.push_back(
      "traced requests " + std::to_string(Traced.Samples.size()) +
      ", probed " + std::to_string(Probed) + ", window compiles " +
      std::to_string(Traced.After.Compiles - Traced.Before.Compiles) +
      ", dropped trace events " + std::to_string(trace::droppedEvents()));
  Out.Notes.push_back("sim/interp/compare: per hot program of the check "
                      "pass; not on the request path");
  addShares(M, N > 0 ? WallMs / N : 0,
            {Layer::Queue, Layer::Make, Layer::Fingerprint, Layer::Compile},
            Out);
  addLayerMetrics(M, Out);
  return Out;
}
