//===- TraceTests.cpp - Structured tracing layer tests ------------------------===//
//
// Part of warp-swp.
//
// The tracing layer's external contract: trace files are well-formed
// Chrome trace-event JSON (loadable in Perfetto), spans nest properly
// per thread track, the ring buffer degrades by counting drops rather
// than corrupting the file, and — the property everything else rests on —
// an active trace session changes nothing about what the compiler
// produces. The JSON checks use a small local syntax checker: the repo
// deliberately has no JSON dependency.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/Compiler.h"
#include "swp/DDG/DDGBuilder.h"
#include "swp/IR/Expansion.h"
#include "swp/IR/IRBuilder.h"
#include "swp/IR/Transforms.h"
#include "swp/Pipeliner/HierarchicalReducer.h"
#include "swp/Pipeliner/LoopUtils.h"
#include "swp/Pipeliner/ModuloScheduler.h"
#include "swp/Sim/Simulator.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Support/Trace.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace swp;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON syntax checker (RFC 8259 grammar, no semantics).
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : S(Text) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return I == S.size();
  }

private:
  const std::string &S;
  size_t I = 0;

  void skipWs() {
    while (I < S.size() &&
           (S[I] == ' ' || S[I] == '\t' || S[I] == '\n' || S[I] == '\r'))
      ++I;
  }

  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(I, N, L) != 0)
      return false;
    I += N;
    return true;
  }

  bool value() {
    if (I >= S.size())
      return false;
    switch (S[I]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return stringLit();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }

  bool object() {
    ++I; // '{'
    skipWs();
    if (I < S.size() && S[I] == '}') {
      ++I;
      return true;
    }
    for (;;) {
      skipWs();
      if (!stringLit())
        return false;
      skipWs();
      if (I >= S.size() || S[I] != ':')
        return false;
      ++I;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (I < S.size() && S[I] == ',') {
        ++I;
        continue;
      }
      break;
    }
    if (I >= S.size() || S[I] != '}')
      return false;
    ++I;
    return true;
  }

  bool array() {
    ++I; // '['
    skipWs();
    if (I < S.size() && S[I] == ']') {
      ++I;
      return true;
    }
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (I < S.size() && S[I] == ',') {
        ++I;
        continue;
      }
      break;
    }
    if (I >= S.size() || S[I] != ']')
      return false;
    ++I;
    return true;
  }

  bool stringLit() {
    if (I >= S.size() || S[I] != '"')
      return false;
    ++I;
    while (I < S.size() && S[I] != '"') {
      if (static_cast<unsigned char>(S[I]) < 0x20)
        return false; // Control characters must be escaped.
      if (S[I] == '\\') {
        ++I;
        if (I >= S.size())
          return false;
        if (S[I] == 'u') {
          for (int K = 0; K != 4; ++K) {
            ++I;
            if (I >= S.size() || !std::isxdigit(static_cast<unsigned char>(S[I])))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", S[I])) {
          return false;
        }
      }
      ++I;
    }
    if (I >= S.size())
      return false;
    ++I;
    return true;
  }

  bool number() {
    size_t Start = I;
    if (I < S.size() && S[I] == '-')
      ++I;
    if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I])))
      return false;
    while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
      ++I;
    if (I < S.size() && S[I] == '.') {
      ++I;
      if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I])))
        return false;
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
    }
    if (I < S.size() && (S[I] == 'e' || S[I] == 'E')) {
      ++I;
      if (I < S.size() && (S[I] == '+' || S[I] == '-'))
        ++I;
      if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I])))
        return false;
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
    }
    return I > Start;
  }
};

//===----------------------------------------------------------------------===//
// Line-level event extraction. The writer emits one event object per
// line, so a field probe per line is enough to check the Perfetto schema
// without a full JSON object model.
//===----------------------------------------------------------------------===//

struct TraceEvent {
  std::string Name;
  char Ph = 0;
  long Tid = -1;
  bool HasPid = false;
  bool HasTs = false;
  bool HasDur = false;
  double Ts = 0;
  double Dur = 0;
  std::string Raw;
};

bool findStringField(const std::string &Line, const std::string &Key,
                     std::string &Out) {
  std::string Pat = "\"" + Key + "\": \"";
  size_t P = Line.find(Pat);
  if (P == std::string::npos)
    return false;
  size_t Start = P + Pat.size();
  size_t End = Line.find('"', Start); // Probed keys carry no escapes.
  if (End == std::string::npos)
    return false;
  Out = Line.substr(Start, End - Start);
  return true;
}

bool findNumberField(const std::string &Line, const std::string &Key,
                     double &Out) {
  std::string Pat = "\"" + Key + "\": ";
  size_t P = Line.find(Pat);
  if (P == std::string::npos)
    return false;
  Out = std::strtod(Line.c_str() + P + Pat.size(), nullptr);
  return true;
}

std::vector<TraceEvent> parseEvents(const std::string &Text) {
  std::vector<TraceEvent> Events;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.find("\"ph\": \"") == std::string::npos)
      continue;
    TraceEvent E;
    E.Raw = Line;
    std::string Ph;
    if (findStringField(Line, "ph", Ph) && !Ph.empty())
      E.Ph = Ph[0];
    findStringField(Line, "name", E.Name);
    double V = 0;
    if (findNumberField(Line, "tid", V))
      E.Tid = static_cast<long>(V);
    E.HasPid = findNumberField(Line, "pid", V);
    E.HasTs = findNumberField(Line, "ts", E.Ts);
    E.HasDur = findNumberField(Line, "dur", E.Dur);
    Events.push_back(std::move(E));
  }
  return Events;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string tracePath(const char *Name) {
  return testing::TempDir() + Name;
}

/// A small loop that the compiler certainly pipelines: c[i] = a[i]*k + k.
void buildSaxpyLike(Program &P, unsigned &A, unsigned &C, VReg &K) {
  IRBuilder B(P);
  A = P.createArray("a", RegClass::Float, 64);
  C = P.createArray("c", RegClass::Float, 64);
  K = P.createVReg(RegClass::Float, "k", true);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(C, B.ix(L), B.fadd(B.fmul(B.fload(A, B.ix(L)), K), K));
  B.endFor();
}

/// Dependence graphs of every schedulable innermost Livermore loop,
/// prepared the way the compiler driver prepares them.
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

/// Compiles every Livermore kernel on \p Pool, one compile per task.
void compileLivermoreOn(ThreadPool &Pool, const MachineDescription &MD) {
  const std::vector<WorkloadSpec> &Kernels = livermoreKernels();
  Pool.parallelFor(Kernels.size(), [&](size_t I) {
    BuiltWorkload W = Kernels[I].Make();
    CompileResult CR = compileProgram(*W.Prog, MD, CompilerOptions{});
    EXPECT_TRUE(CR.Ok) << Kernels[I].Name << ": " << CR.Error;
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// Session lifecycle.
//===----------------------------------------------------------------------===//

TEST(Trace, SessionLifecycle) {
  ASSERT_TRUE(trace::compiledIn()) << "tests build with tracing compiled in";
  EXPECT_FALSE(trace::isActive());

  std::string Error;
  EXPECT_FALSE(trace::stop(&Error)) << "stop without start must fail";
  EXPECT_FALSE(Error.empty());

  std::string Path = tracePath("swp-trace-lifecycle.json");
  ASSERT_TRUE(trace::start(Path));
  EXPECT_TRUE(trace::isActive());
  EXPECT_FALSE(trace::start(Path)) << "second start while active must fail";

  { SWP_TRACE_SCOPE("lifecycle-span"); }
  ASSERT_TRUE(trace::stop(&Error)) << Error;
  EXPECT_FALSE(trace::isActive());

  std::string Text = readFile(Path);
  EXPECT_NE(Text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Text.find("lifecycle-span"), std::string::npos);

  // Outside a session spans are dead on arrival and args cost nothing.
  SWP_TRACE_SPAN(Dead, "dead-span");
  EXPECT_FALSE(Dead.active());
}

TEST(Trace, StopToUnwritablePathReportsError) {
  ASSERT_TRUE(trace::start("/nonexistent-dir-zz/trace.json"));
  std::string Error;
  EXPECT_FALSE(trace::stop(&Error));
  EXPECT_NE(Error.find("cannot write"), std::string::npos) << Error;
  EXPECT_FALSE(trace::isActive()) << "a failed flush still ends the session";
}

//===----------------------------------------------------------------------===//
// The compile pipeline emits a well-formed, Perfetto-loadable trace.
//===----------------------------------------------------------------------===//

TEST(Trace, CompileEmitsWellFormedPerfettoJson) {
  Program P;
  unsigned A, C;
  VReg K;
  buildSaxpyLike(P, A, C, K);
  MachineDescription MD = MachineDescription::warpCell();

  std::string Path = tracePath("swp-trace-compile.json");
  ASSERT_TRUE(trace::start(Path));
  trace::setThreadName("trace-test-main");
  CompileResult CR = compileProgram(P, MD, CompilerOptions{});
  ASSERT_TRUE(CR.Ok) << CR.Error;
  SimResult Sim = simulate(CR.Code, P, MD, ProgramInput{});
  std::string Error;
  ASSERT_TRUE(trace::stop(&Error)) << Error;
  ASSERT_TRUE(Sim.State.Ok) << Sim.State.Error;

  std::string Text = readFile(Path);
  ASSERT_FALSE(Text.empty());
  EXPECT_TRUE(JsonChecker(Text).valid()) << "trace file is not valid JSON";

  std::vector<TraceEvent> Events = parseEvents(Text);
  ASSERT_FALSE(Events.empty());

  std::set<std::string> Names;
  for (const TraceEvent &E : Events) {
    Names.insert(E.Name);
    EXPECT_TRUE(E.HasPid) << E.Raw;
    EXPECT_GE(E.Tid, 0) << E.Raw;
    EXPECT_TRUE(E.Ph == 'X' || E.Ph == 'i' || E.Ph == 'C' || E.Ph == 'M')
        << E.Raw;
    if (E.Ph != 'M') {
      EXPECT_TRUE(E.HasTs) << E.Raw;
    }
    if (E.Ph == 'X') {
      EXPECT_TRUE(E.HasDur) << E.Raw;
      EXPECT_GE(E.Dur, 0.0) << E.Raw;
    }
  }

  // The instrumented pipeline stages all show up.
  for (const char *Expected :
       {"compileProgram", "compileLoop", "moduloSchedule", "tryInterval",
        "sccClosureBuild", "mvePlan", "simulate"})
    EXPECT_EQ(Names.count(Expected), 1u) << "missing span: " << Expected;

  // The thread-name metadata landed and is attributed to this track.
  EXPECT_NE(Text.find("trace-test-main"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Span nesting: per thread track, complete events nest or are disjoint.
//===----------------------------------------------------------------------===//

TEST(Trace, SpansNestPerThread) {
  MachineDescription MD = MachineDescription::warpCell();
  std::string Path = tracePath("swp-trace-nesting.json");
  ASSERT_TRUE(trace::start(Path));
  compileLivermoreOn(ThreadPool::global(), MD);
  std::string Error;
  ASSERT_TRUE(trace::stop(&Error)) << Error;

  std::string Text = readFile(Path);
  ASSERT_TRUE(JsonChecker(Text).valid());
  EXPECT_EQ(trace::droppedEvents(), 0u)
      << "nesting check needs a complete event stream";

  std::map<long, std::vector<const TraceEvent *>> ByTid;
  std::vector<TraceEvent> Events = parseEvents(Text);
  for (const TraceEvent &E : Events)
    if (E.Ph == 'X')
      ByTid[E.Tid].push_back(&E);
  ASSERT_FALSE(ByTid.empty());

  // Timestamps are microseconds with ns precision; allow rounding slack.
  const double Eps = 0.0015;
  for (auto &[Tid, Spans] : ByTid) {
    std::stable_sort(Spans.begin(), Spans.end(),
                     [](const TraceEvent *A, const TraceEvent *B) {
                       if (A->Ts != B->Ts)
                         return A->Ts < B->Ts;
                       return A->Dur > B->Dur; // Parents before children.
                     });
    std::vector<std::pair<double, double>> Stack; // (start, end)
    for (const TraceEvent *E : Spans) {
      double Start = E->Ts, End = E->Ts + E->Dur;
      while (!Stack.empty() && Start >= Stack.back().second - Eps)
        Stack.pop_back();
      if (!Stack.empty()) {
        EXPECT_LE(End, Stack.back().second + Eps)
            << "span overlaps its enclosing span on tid " << Tid << ": "
            << E->Raw;
      }
      Stack.emplace_back(Start, End);
    }
  }
}

TEST(Trace, FailedAttemptsCarryStructuredCauses) {
  MachineDescription MD = MachineDescription::warpCell();
  std::vector<DepGraph> Graphs = livermoreLoopGraphs(MD);
  ASSERT_FALSE(Graphs.empty());

  std::string Path = tracePath("swp-trace-causes.json");
  ASSERT_TRUE(trace::start(Path));
  SchedulerStats Agg;
  for (const DepGraph &G : Graphs)
    Agg.merge(moduloSchedule(G, MD).Stats);
  std::string Error;
  ASSERT_TRUE(trace::stop(&Error)) << Error;
  ASSERT_GT(Agg.failedIntervals(), 0u)
      << "the Livermore sweep is known to reject intervals";

  // Every rejected tryInterval span names its cause and failing node;
  // the per-cause span tally matches the aggregate counters exactly.
  std::string Text = readFile(Path);
  ASSERT_TRUE(JsonChecker(Text).valid());
  uint64_t Rejected = 0, WithNode = 0;
  std::map<std::string, uint64_t> ByCause;
  for (const TraceEvent &E : parseEvents(Text)) {
    if (E.Name != "tryInterval" ||
        E.Raw.find("\"ok\": false") == std::string::npos)
      continue;
    ++Rejected;
    std::string Cause;
    ASSERT_TRUE(findStringField(E.Raw, "cause", Cause)) << E.Raw;
    ++ByCause[Cause];
    double Node = 0;
    if (findNumberField(E.Raw, "node", Node))
      ++WithNode;
  }
  EXPECT_EQ(Rejected, Agg.failedIntervals());
  EXPECT_EQ(WithNode, Rejected) << "every failure names its failing node";
  EXPECT_EQ(ByCause["precedence-range-empty"], Agg.FailPrecedence);
  EXPECT_EQ(ByCause["resource-conflict"], Agg.FailResource);
  EXPECT_EQ(ByCause["slot-abort"], Agg.FailSlotAbort);
  EXPECT_EQ(ByCause["stage-limit"], Agg.FailStageLimit);
}

TEST(Trace, PoolWorkersNameTheirTracks) {
  MachineDescription MD = MachineDescription::warpCell();
  std::string Path = tracePath("swp-trace-workers.json");
  ASSERT_TRUE(trace::start(Path));
  trace::setThreadName("trace-test-main");
  {
    ThreadPool Pool(4);
    compileLivermoreOn(Pool, MD);
  } // The workers exit here, before the flush.
  std::string Error;
  ASSERT_TRUE(trace::stop(&Error)) << Error;

  std::string Text = readFile(Path);
  ASSERT_TRUE(JsonChecker(Text).valid());

  // Pool workers name their tracks; their buffers outlive the pool, so
  // the flush sees them even though every worker has already exited.
  EXPECT_NE(Text.find("swp-worker-"), std::string::npos);

  std::set<long> Tids;
  for (const TraceEvent &E : parseEvents(Text))
    Tids.insert(E.Tid);
  EXPECT_GE(Tids.size(), 2u) << "expected main + worker tracks";
}

//===----------------------------------------------------------------------===//
// Ring-buffer overflow: drops are counted, the file stays valid.
//===----------------------------------------------------------------------===//

TEST(Trace, RingWrapCountsDropsAndKeepsFileValid) {
  std::string Path = tracePath("swp-trace-wrap.json");
  ASSERT_TRUE(trace::start(Path));
  // The per-thread ring holds 1<<16 events; push well past that.
  for (int I = 0; I != (1 << 16) + 5000; ++I)
    trace::instant("tick");
  std::string Error;
  ASSERT_TRUE(trace::stop(&Error)) << Error;

  EXPECT_GT(trace::droppedEvents(), 0u);
  std::string Text = readFile(Path);
  EXPECT_TRUE(JsonChecker(Text).valid())
      << "a wrapped ring must still flush valid JSON";
  size_t Ticks = 0;
  for (const TraceEvent &E : parseEvents(Text))
    if (E.Name == "tick")
      ++Ticks;
  EXPECT_EQ(Ticks, size_t(1) << 16) << "ring keeps exactly its capacity";

  // A fresh session resets the drop counter.
  ASSERT_TRUE(trace::start(Path));
  ASSERT_TRUE(trace::stop(&Error)) << Error;
  EXPECT_EQ(trace::droppedEvents(), 0u);
}

//===----------------------------------------------------------------------===//
// Args and event kinds render correctly.
//===----------------------------------------------------------------------===//

TEST(Trace, SpanArgsInstantsAndCounters) {
  std::string Path = tracePath("swp-trace-args.json");
  ASSERT_TRUE(trace::start(Path));
  {
    SWP_TRACE_SPAN(S, "unit-span");
    ASSERT_TRUE(S.active());
    S.args("\"ii\": 5, \"label\": \"q\\\"uote\"");
  }
  trace::instant("mark", "\"v\": 1");
  trace::counter("occupancy", "fmul", 0.75);
  std::string Error;
  ASSERT_TRUE(trace::stop(&Error)) << Error;

  std::string Text = readFile(Path);
  ASSERT_TRUE(JsonChecker(Text).valid());

  bool SawSpanArgs = false, SawInstant = false, SawCounter = false;
  for (const TraceEvent &E : parseEvents(Text)) {
    if (E.Name == "unit-span" && E.Raw.find("\"ii\": 5") != std::string::npos)
      SawSpanArgs = true;
    if (E.Name == "mark" && E.Ph == 'i' &&
        E.Raw.find("\"s\": \"t\"") != std::string::npos)
      SawInstant = true;
    if (E.Name == "occupancy" && E.Ph == 'C' &&
        E.Raw.find("fmul") != std::string::npos)
      SawCounter = true;
  }
  EXPECT_TRUE(SawSpanArgs);
  EXPECT_TRUE(SawInstant);
  EXPECT_TRUE(SawCounter);
}

//===----------------------------------------------------------------------===//
// Tracing must not change what the compiler produces.
//===----------------------------------------------------------------------===//

namespace {

/// Compiles the reference loop and returns (code text, report JSON with
/// wall-clock fields zeroed — times legitimately differ run to run).
std::pair<std::string, std::string> compileFingerprint(bool Traced,
                                                       const std::string &Path) {
  Program P;
  unsigned A, C;
  VReg K;
  buildSaxpyLike(P, A, C, K);
  MachineDescription MD = MachineDescription::warpCell();

  if (Traced) {
    EXPECT_TRUE(trace::start(Path));
  }
  CompilerOptions Opts;
  Opts.Explain = true;
  CompileResult CR = compileProgram(P, MD, Opts);
  if (Traced) {
    std::string Error;
    EXPECT_TRUE(trace::stop(&Error)) << Error;
  }
  EXPECT_TRUE(CR.Ok) << CR.Error;

  auto ZeroTimes = [](SchedulerStats &S) {
    S.ClosureBuildSeconds = S.Phase1Seconds = S.Phase2Seconds =
        S.TotalSeconds = 0;
  };
  for (LoopReport &L : CR.Report.Loops)
    ZeroTimes(L.Stats);
  ZeroTimes(CR.Report.SchedTotals);
  return {vliwProgramToString(CR.Code, MD), CR.Report.toJson()};
}

} // namespace

TEST(Trace, ActiveSessionIsBitIdenticalToDisabled) {
  std::string Path = tracePath("swp-trace-identity.json");
  auto [PlainCode, PlainReport] = compileFingerprint(false, "");
  auto [TracedCode, TracedReport] = compileFingerprint(true, Path);

  EXPECT_EQ(PlainCode, TracedCode)
      << "tracing changed the emitted VLIW program";
  EXPECT_EQ(PlainReport, TracedReport)
      << "tracing changed the compile report";
  EXPECT_NE(PlainReport.find("\"explain\""), std::string::npos);
}
