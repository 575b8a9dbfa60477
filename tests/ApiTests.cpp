//===- ApiTests.cpp - public Session / TargetRegistry API tests ----------------===//
//
// Part of warp-swp.
//
// The versioned public API's contract tests (ctest labels "api" and
// "parallel"; the tsan preset re-runs them under the race detector):
//
//  - TargetRegistry: the three built-ins are valid; the machine JSON
//    round-trips exactly (identical fingerprintMachine, identical
//    canonical JSON, bit-identical schedules); invalid machines, name
//    collisions, and malformed files are rejected with descriptions.
//  - Session: compileNow and async submit are bit-identical to bare
//    compileProgram; a mixed-target batch (one target loaded from the
//    checked-in JSON file) matches per-target serial references with
//    per-target memo keys; priorities order the pending queue; cancel
//    trips cooperatively; a throwing program factory resolves its handle
//    with an error; option incoherence comes back as typed OptionDiags;
//    N concurrent sessions stay bit-identical to serial.
//  - The response envelope JSON is locked by a golden snapshot
//    (tests/goldens/session-response.json, SWP_UPDATE_GOLDENS=1 to
//    update).
//
//===----------------------------------------------------------------------===//

#include "swp/API/Session.h"
#include "swp/Codegen/VLIWProgram.h"
#include "swp/Metrics/Metrics.h"
#include "swp/Support/Fingerprint.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Verify/RandomLoopGen.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace swp;

#ifndef SWP_GOLDEN_DIR
#error "SWP_GOLDEN_DIR must point at tests/goldens"
#endif
#ifndef SWP_SOURCE_DIR
#error "SWP_SOURCE_DIR must point at the source tree"
#endif

namespace {

/// Serial reference: bare compileProgram on a fresh instance of the
/// workload, rendered to text for bit-identity comparison.
std::string serialRef(const WorkloadSpec &Spec, const MachineDescription &MD,
                      const CompilerOptions &Opts = {}) {
  BuiltWorkload W = Spec.Make();
  CompileResult CR = compileProgram(*W.Prog, MD, Opts);
  EXPECT_TRUE(CR.Ok) << Spec.Name << ": " << CR.Error;
  return vliwProgramToString(CR.Code, MD);
}

std::string tempPath(const std::string &File) {
  return ::testing::TempDir() + File;
}

} // namespace

//===----------------------------------------------------------------------===//
// TargetRegistry
//===----------------------------------------------------------------------===//

TEST(TargetRegistry, BuiltinsRegisteredAndValid) {
  TargetRegistry Reg;
  TargetRegistry::registerBuiltins(Reg);
  std::vector<std::string> Names = Reg.names();
  ASSERT_EQ(Names.size(), 3u);
  EXPECT_EQ(Names[0], "toy-cell");
  EXPECT_EQ(Names[1], "warp-cell");
  EXPECT_EQ(Names[2], "warp-cell-x2");
  for (const std::string &N : Names) {
    const MachineDescription *MD = Reg.lookup(N);
    ASSERT_NE(MD, nullptr) << N;
    EXPECT_EQ(TargetRegistry::validateMachine(*MD), "") << N;
    EXPECT_EQ(MD->name(), N);
  }
  // The process-wide registry carries the same built-ins.
  for (const std::string &N : Names)
    EXPECT_NE(TargetRegistry::global().lookup(N), nullptr);
}

// The acceptance property of the JSON format: emit -> reload gives a
// machine with the identical fingerprint (so memo keys agree), the
// identical canonical JSON (so the form is a fixpoint), and bit-identical
// schedules for a nontrivial kernel.
TEST(TargetRegistry, JsonRoundTripIsExact) {
  TargetRegistry Reg;
  TargetRegistry::registerBuiltins(Reg);
  WorkloadSpec Spec = randomLoopSpec(7);
  for (const std::string &N : Reg.names()) {
    const MachineDescription &MD = *Reg.lookup(N);
    std::string Json = TargetRegistry::emitJson(MD);
    std::string Err;
    std::optional<MachineDescription> Re = TargetRegistry::parseJson(Json, Err);
    ASSERT_TRUE(Re.has_value()) << N << ": " << Err;
    EXPECT_TRUE(fingerprintMachine(MD) == fingerprintMachine(*Re))
        << N << ": reloaded machine fingerprint differs";
    EXPECT_EQ(TargetRegistry::emitJson(*Re), Json)
        << N << ": canonical JSON is not a fixpoint";
    EXPECT_EQ(serialRef(Spec, MD), serialRef(Spec, *Re))
        << N << ": reloaded machine schedules differently";
  }
}

TEST(TargetRegistry, RejectsInvalidMachinesAndCollisions) {
  // A default-constructed machine has no resources and no legal opcodes.
  MachineDescription Empty;
  EXPECT_NE(TargetRegistry::validateMachine(Empty), "");

  TargetRegistry Reg;
  TargetRegistry::registerBuiltins(Reg);
  EXPECT_NE(Reg.registerTarget("bad", Empty), "");
  EXPECT_EQ(Reg.lookup("bad"), nullptr);
  // Re-registering an existing name is refused (held pointers must stay
  // meaningful), and the original target is untouched.
  const MachineDescription *Before = Reg.lookup("warp-cell");
  EXPECT_NE(Reg.registerTarget("warp-cell", MachineDescription::warpCell()),
            "");
  EXPECT_EQ(Reg.lookup("warp-cell"), Before);
  EXPECT_NE(Reg.registerTarget("", MachineDescription::warpCell()), "");
  EXPECT_EQ(Reg.lookup("no-such-target"), nullptr);

  std::string Err;
  EXPECT_FALSE(TargetRegistry::parseJson("{", Err).has_value());
  EXPECT_NE(Err, "");
  EXPECT_FALSE(TargetRegistry::parseJson("[]", Err).has_value());
  EXPECT_FALSE(TargetRegistry::parseJson("{\"name\": \"x\"}", Err)
                   .has_value());
}

TEST(TargetRegistry, LoadFileRegistersUnderEmbeddedName) {
  // Rename a built-in in its JSON form and load it back from disk.
  std::string Json =
      TargetRegistry::emitJson(*TargetRegistry::global().lookup("toy-cell"));
  size_t At = Json.find("\"toy-cell\"");
  ASSERT_NE(At, std::string::npos);
  Json.replace(At, std::string("\"toy-cell\"").size(), "\"toy-fast\"");
  std::string Path = tempPath("swp_api_toy.json");
  {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good());
    Out << Json;
  }
  TargetRegistry Reg;
  std::string Name;
  ASSERT_EQ(Reg.loadFile(Path, &Name), "");
  EXPECT_EQ(Name, "toy-fast");
  ASSERT_NE(Reg.lookup("toy-fast"), nullptr);
  EXPECT_EQ(Reg.lookup("toy-fast")->name(), "toy-fast");

  EXPECT_NE(Reg.loadFile(tempPath("swp_api_missing.json")), "");
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

TEST(Session, CompileNowMatchesCompileProgram) {
  WorkloadSpec Spec = randomLoopSpec(11);
  std::string Ref = serialRef(Spec, MachineDescription::warpCell());

  Session Sess;
  ASSERT_EQ(Sess.configError(), "");
  EXPECT_NE(Sess.id(), 0u);
  BuiltWorkload W = Spec.Make();
  CompileResponse Resp = Sess.compileNow(*W.Prog, "warp-cell");
  ASSERT_TRUE(Resp.Ok) << Resp.Result.Error;
  EXPECT_EQ(Resp.Target, "warp-cell");
  EXPECT_EQ(Resp.SessionId, Sess.id());
  EXPECT_NE(Resp.RequestId, 0u);
  EXPECT_EQ(Resp.Result.Report.SessionId, Resp.SessionId);
  EXPECT_EQ(Resp.Result.Report.RequestId, Resp.RequestId);
  const MachineDescription &MD = *Sess.targets().lookup("warp-cell");
  EXPECT_EQ(vliwProgramToString(Resp.Result.Code, MD), Ref);
}

TEST(Session, SubmitAsyncMatchesSerial) {
  WorkloadSpec Spec = randomLoopSpec(12);
  std::string Ref = serialRef(Spec, MachineDescription::warpCell());

  Session Sess;
  CompileRequest Req;
  Req.Make = [&Spec] { return Spec.Make().Prog; };
  Req.Label = Spec.Name;
  CompileHandle H = Sess.submit(std::move(Req));
  ASSERT_TRUE(H.valid());
  const CompileResponse &Resp = H.get();
  ASSERT_TRUE(Resp.Ok) << Resp.Result.Error;
  EXPECT_EQ(Resp.RequestId, H.requestId());
  const MachineDescription &MD = *Sess.targets().lookup("warp-cell");
  EXPECT_EQ(vliwProgramToString(Resp.Result.Code, MD), Ref);
}

// The single-submitBatch acceptance check: one batch over two registered
// targets — one of them loaded from the checked-in JSON target file —
// matches per-target serial compileProgram references bit for bit, and
// every (kernel, target) pair really compiled (per-target memo keys never
// collide across machines).
TEST(Session, MixedTargetBatchMatchesSerial) {
  TargetRegistry Reg;
  TargetRegistry::registerBuiltins(Reg);
  std::string Name;
  ASSERT_EQ(Reg.loadFile(std::string(SWP_SOURCE_DIR) +
                             "/examples/targets/warp-cell-fast.json",
                         &Name),
            "");
  ASSERT_EQ(Name, "warp-cell-fast");
  const std::vector<std::string> Targets = {"warp-cell", "warp-cell-fast"};

  std::vector<WorkloadSpec> Specs;
  for (uint64_t S = 20; S != 24; ++S)
    Specs.push_back(randomLoopSpec(S));

  std::vector<std::string> Ref;
  for (const std::string &T : Targets)
    for (const WorkloadSpec &Spec : Specs)
      Ref.push_back(serialRef(Spec, *Reg.lookup(T)));

  SessionConfig Cfg;
  Cfg.Registry = &Reg;
  Session Sess(Cfg);
  std::vector<CompileRequest> Batch;
  for (const std::string &T : Targets)
    for (const WorkloadSpec &Spec : Specs) {
      CompileRequest Req;
      Req.Make = [&Spec] { return Spec.Make().Prog; };
      Req.Target = T;
      Req.Label = Spec.Name;
      Batch.push_back(std::move(Req));
    }
  std::vector<CompileHandle> Handles = Sess.submitBatch(std::move(Batch));
  ASSERT_EQ(Handles.size(), Ref.size());
  bool AnyDiffer = false;
  for (size_t I = 0; I != Handles.size(); ++I) {
    const CompileResponse &Resp = Handles[I].get();
    ASSERT_TRUE(Resp.Ok) << Resp.Result.Error;
    const std::string &T = Targets[I / Specs.size()];
    EXPECT_EQ(Resp.Target, T);
    EXPECT_EQ(vliwProgramToString(Resp.Result.Code, *Reg.lookup(T)), Ref[I])
        << "batch result differs from serial reference";
  }
  // The two machines genuinely schedule differently for at least one
  // kernel, so the bit-identity above discriminates between targets.
  for (size_t I = 0; I != Specs.size(); ++I)
    AnyDiffer |= Ref[I] != Ref[Specs.size() + I];
  EXPECT_TRUE(AnyDiffer);
  // Every pair compiled: no cross-target memo hit.
  EXPECT_EQ(Sess.stats().Compiles, Ref.size());
}

namespace {

/// Occupies every worker of \p Pool until release() is called, so tests
/// can submit against a deliberately saturated pool.
class PoolBlocker {
public:
  PoolBlocker(ThreadPool &Pool, unsigned Workers) {
    for (unsigned I = 0; I != Workers; ++I)
      Pool.enqueue(Group, [this] {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [this] { return Released; });
      });
  }
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Released = true;
    }
    Cv.notify_all();
  }

private:
  TaskGroup Group;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Released = false;
};

} // namespace

TEST(Session, CancelBeforeRunReportsCancelled) {
  ThreadPool Pool(1);
  PoolBlocker Blocker(Pool, 1);
  SessionConfig Cfg;
  Cfg.Pool = &Pool;
  Session Sess(Cfg);
  WorkloadSpec Spec = randomLoopSpec(13);
  CompileRequest Req;
  Req.Make = [&Spec] { return Spec.Make().Prog; };
  CompileHandle H = Sess.submit(std::move(Req));
  H.cancel(); // Trips before the queued request can start.
  Blocker.release();
  const CompileResponse &Resp = H.get();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_TRUE(Resp.Cancelled);
  EXPECT_NE(Resp.Result.Error, "");
  // Cancelling a finished request is a no-op.
  H.cancel();
}

TEST(Session, PriorityOrdersPendingQueue) {
  ThreadPool Pool(1);
  PoolBlocker Blocker(Pool, 1);
  SessionConfig Cfg;
  Cfg.Pool = &Pool;
  Session Sess(Cfg);
  WorkloadSpec Spec = randomLoopSpec(14);

  // The factory runs when the compile actually starts, so the order the
  // factories fire is the order the queue released the requests.
  std::mutex OrderMu;
  std::vector<char> Order;
  auto MakeTagged = [&](char Tag) {
    return [&, Tag] {
      {
        std::lock_guard<std::mutex> Lock(OrderMu);
        Order.push_back(Tag);
      }
      return Spec.Make().Prog;
    };
  };
  CompileRequest A, B, C;
  A.Make = MakeTagged('a');
  A.Priority = 0;
  B.Make = MakeTagged('b');
  B.Priority = 5;
  C.Make = MakeTagged('c');
  C.Priority = 5;
  std::vector<CompileHandle> Handles;
  Handles.push_back(Sess.submit(std::move(A)));
  Handles.push_back(Sess.submit(std::move(B)));
  Handles.push_back(Sess.submit(std::move(C)));
  Blocker.release();
  // Wait on the handles, not waitAll(): a group wait helps run queued
  // requests on this thread, which would race the worker for the queue.
  for (const CompileHandle &H : Handles)
    H.get();
  // Higher priority first; FIFO among equals; the earlier-submitted
  // low-priority request runs last.
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(std::string(Order.begin(), Order.end()), "bca");
}

TEST(Session, ThrowingFactoryResolvesWithError) {
  metrics::setEnabled(true);
  auto Recorded = [] {
    metrics::MetricsSnapshot S = metrics::MetricsRegistry::global().snapshot();
    const metrics::SnapshotCounter *Errors =
        S.counter("swp_session_outcomes_total", "outcome=\"error\"");
    const metrics::SnapshotHistogram *Latency =
        S.histogram("swp_session_latency_us", "priority=\"normal\"");
    return std::make_pair(Errors ? Errors->Value : 0,
                          Latency ? Latency->Count : 0);
  };
  auto Before = Recorded();

  Session Sess;
  CompileRequest Req;
  Req.Make = []() -> std::unique_ptr<Program> {
    throw std::runtime_error("source unavailable");
  };
  CompileHandle H = Sess.submit(std::move(Req));
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!H.ready() && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(H.ready()) << "the request never resolved";
  const CompileResponse *Resp = nullptr;
  ASSERT_NO_THROW(Resp = &H.get()) << "the handle must carry an error "
                                      "response, not an exception";
  EXPECT_FALSE(Resp->Ok);
  EXPECT_FALSE(Resp->Cancelled);
  EXPECT_NE(Resp->Result.Error.find("program factory failed: "
                                    "source unavailable"),
            std::string::npos)
      << Resp->Result.Error;

  // Exactly one outcome and one latency sample, like any failed request.
  auto After = Recorded();
  EXPECT_EQ(After.first - Before.first, 1u);
  EXPECT_EQ(After.second - Before.second, 1u);
}

TEST(Session, UnknownTargetFailsFast) {
  Session Sess;
  CompileRequest Req;
  WorkloadSpec Spec = randomLoopSpec(15);
  Req.Make = [&Spec] { return Spec.Make().Prog; };
  Req.Target = "no-such-cell";
  CompileHandle H = Sess.submit(std::move(Req));
  const CompileResponse &Resp = H.get();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Result.Error.find("no-such-cell"), std::string::npos);
  EXPECT_NE(Resp.Result.Error.find("warp-cell"), std::string::npos)
      << "the error should list the known targets";

  BuiltWorkload W = Spec.Make();
  CompileResponse Now = Sess.compileNow(*W.Prog, "no-such-cell");
  EXPECT_FALSE(Now.Ok);
}

TEST(Session, OptionRejectionsAreTyped) {
  Session Sess;
  WorkloadSpec Spec = randomLoopSpec(16);

  // Explain renders pipelined kernels; with pipelining off it is
  // contradictory.
  CompileRequest Req;
  Req.Make = [&Spec] { return Spec.Make().Prog; };
  CompilerOptions Bad;
  Bad.EnablePipelining = false;
  Bad.Explain = true;
  Req.Opts = Bad;
  CompileHandle H = Sess.submit(std::move(Req));
  const CompileResponse &Resp = H.get();
  EXPECT_FALSE(Resp.Ok);
  ASSERT_FALSE(Resp.OptionErrors.empty());
  EXPECT_EQ(Resp.OptionErrors[0].Kind,
            OptionErrorKind::ExplainWithoutPipelining);

  // Budget ceilings both per-request and inside Opts: DuplicateBudget.
  CompileRequest Req2;
  Req2.Make = [&Spec] { return Spec.Make().Prog; };
  Req2.Budget.MaxNodes = 100;
  CompilerOptions Dup;
  Dup.Budget.MaxNodes = 50;
  Req2.Opts = Dup;
  CompileHandle H2 = Sess.submit(std::move(Req2));
  const CompileResponse &Resp2 = H2.get();
  EXPECT_FALSE(Resp2.Ok);
  ASSERT_FALSE(Resp2.OptionErrors.empty());
  EXPECT_EQ(Resp2.OptionErrors[0].Kind, OptionErrorKind::DuplicateBudget);
}

TEST(Session, IncoherentConfigFailsEveryRequest) {
  // An injected service plus MemoizeResults = false would silently ignore
  // the memo setting; the session refuses instead.
  CompileService Svc;
  SessionConfig Cfg;
  Cfg.Service = &Svc;
  Cfg.MemoizeResults = false;
  EXPECT_NE(Cfg.validate(), "");
  Session Sess(Cfg);
  EXPECT_NE(Sess.configError(), "");
  WorkloadSpec Spec = randomLoopSpec(17);
  BuiltWorkload W = Spec.Make();
  CompileResponse Resp = Sess.compileNow(*W.Prog);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Result.Error, Sess.configError());

  SessionConfig Cfg2;
  Cfg2.DefaultTarget = "no-such-cell";
  Session Sess2(Cfg2);
  EXPECT_NE(Sess2.configError(), "");
}

// N independent sessions hammering the shared pool concurrently must
// stay bit-identical to serial references (the tsan preset re-runs this
// under the race detector).
TEST(Session, ConcurrentSessionsBitIdentical) {
  const unsigned NumSessions = 4;
  std::vector<WorkloadSpec> Specs;
  for (uint64_t S = 30; S != 36; ++S)
    Specs.push_back(randomLoopSpec(S));
  MachineDescription MD = MachineDescription::warpCell();
  std::vector<std::string> Ref;
  for (const WorkloadSpec &Spec : Specs)
    Ref.push_back(serialRef(Spec, MD));

  std::vector<std::unique_ptr<Session>> Sessions;
  std::vector<std::vector<CompileHandle>> Handles(NumSessions);
  for (unsigned I = 0; I != NumSessions; ++I)
    Sessions.push_back(std::make_unique<Session>());
  // All batches in flight before any result is collected.
  for (unsigned I = 0; I != NumSessions; ++I) {
    std::vector<CompileRequest> Batch;
    for (const WorkloadSpec &Spec : Specs) {
      CompileRequest Req;
      Req.Make = [&Spec] { return Spec.Make().Prog; };
      Req.Label = Spec.Name;
      Batch.push_back(std::move(Req));
    }
    Handles[I] = Sessions[I]->submitBatch(std::move(Batch));
  }
  for (unsigned I = 0; I != NumSessions; ++I)
    for (size_t J = 0; J != Handles[I].size(); ++J) {
      const CompileResponse &Resp = Handles[I][J].get();
      ASSERT_TRUE(Resp.Ok) << Resp.Result.Error;
      EXPECT_EQ(Resp.SessionId, Sessions[I]->id());
      EXPECT_EQ(vliwProgramToString(Resp.Result.Code, MD), Ref[J]);
    }
}

//===----------------------------------------------------------------------===//
// Response envelope golden
//===----------------------------------------------------------------------===//

namespace {

/// Scrubs the nondeterministic fields of a response envelope: timing
/// ("total_seconds") and the process-global session id. The request id
/// is deterministic (first request of a fresh session) and stays.
std::string canonicalizeEnvelope(std::string Json) {
  for (const std::string &Key :
       {std::string("\"total_seconds\": "), std::string("\"session_id\": ")}) {
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
  }
  return Json;
}

bool updateRequested() {
  const char *E = std::getenv("SWP_UPDATE_GOLDENS");
  return E && *E && std::string(E) != "0";
}

} // namespace

// Locks the versioned response envelope shape (and, transitively, the
// embedded CompileReport) against tests/goldens/session-response.json.
// Adding, removing, or renaming an envelope key is an API change that
// must be reviewed alongside an intentional golden update and a
// Version.h bump when it breaks consumers.
TEST(Session, ResponseJsonGolden) {
  WorkloadSpec Spec = randomLoopSpec(42);
  Session Sess;
  BuiltWorkload W = Spec.Make();
  CompileResponse Resp = Sess.compileNow(*W.Prog, "warp-cell");
  ASSERT_TRUE(Resp.Ok) << Resp.Result.Error;
  EXPECT_NE(Resp.toJson().find("\"api_version\": \"" +
                               std::string(api::versionString()) + "\""),
            std::string::npos);
  std::string Json = canonicalizeEnvelope(Resp.toJson());

  std::string Path = std::string(SWP_GOLDEN_DIR) + "/session-response.json";
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
      << "session response envelope drifted from its golden. If the "
         "change is intentional, rerun with SWP_UPDATE_GOLDENS=1, review "
         "the diff, and bump swp/API/Version.h when it breaks consumers.";
}
