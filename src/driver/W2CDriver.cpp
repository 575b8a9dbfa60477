//===- W2CDriver.cpp - the w2c driver as a library -----------------------------===//
//
// Part of warp-swp. See W2CDriver.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Driver/W2CDriver.h"

#include "swp/API/Session.h"
#include "swp/IR/Printer.h"
#include "swp/Lang/Lowering.h"
#include "swp/Metrics/Metrics.h"
#include "swp/Metrics/MetricsServer.h"
#include "swp/Sim/Simulator.h"
#include "swp/Support/Trace.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

using namespace swp;

namespace {

const char *DemoSource = R"((* clip-and-scale: a conditional loop *)
var x: float[256];
var y: float[256];
param limit: float;
param scale: float;
var v: float;
begin
  for i := 0 to 255 do begin
    v := x[i] * scale;
    if v > limit then
      v := limit + (v - limit) * 0.125;
    y[i] := v;
  end
end
)";

void printUsage(std::ostream &OS) {
  OS << "usage: w2c [--no-pipeline] [--code] [--verify] [--stats] "
        "[--json] [--explain] [--utilization] [--trace=FILE] [file.w2]\n"
        "  --no-pipeline  locally compacted code only\n"
        "  --code         dump the VLIW instruction stream\n"
        "  --verify       re-check emitted schedules with the independent "
        "verifier\n"
        "  --stats        include scheduler search counters in the report\n"
        "  --json         print the CompileReport as JSON (suppresses "
        "human output)\n"
        "  --explain      per-loop kernel schedule, modulo reservation "
        "table, and occupancy\n"
        "  --utilization  simulate the compiled program (zero-filled "
        "inputs) and report FU occupancy, issue fill, and stalls\n"
        "  --trace=FILE   write a Chrome trace-event JSON of the "
        "compilation (open in Perfetto / chrome://tracing)\n"
        "  --target=NAME       compile for a registered machine "
        "(default warp-cell; see --list-targets)\n"
        "  --target-file=F     register the machine described by the JSON "
        "file F (compiled with --target=<its name>, or alone as the "
        "target when no --target is given)\n"
        "  --list-targets      print every registered target name and "
        "exit\n"
        "  --budget-ms=N       compile wall-clock budget; on expiry loops "
        "degrade (exit 4) instead of hanging\n"
        "  --max-intervals=N   budget on candidate IIs tried across the "
        "compile\n"
        "  --max-nodes=N       budget on node placements across the "
        "compile\n"
        "  --min-rung=N        force the degradation ladder: 1 = at most "
        "the unrolled list schedule, 2 = sequential only\n"
        "  --chaos-seed=N      deterministic fault injection (testing; "
        "see swp/Support/FaultInject.h)\n"
        "  --batch             compile every input file through one "
        "compile session (identical files compile once)\n"
        "  --metrics           enable service telemetry and print the "
        "final snapshot as Prometheus text (with --json, requires "
        "--metrics-out)\n"
        "  --metrics-out=FILE  write the snapshot to FILE instead of "
        "stdout (implies --metrics)\n"
        "  --metrics-port=N    serve /metrics, /metrics.json, /healthz on "
        "127.0.0.1:N for the run's duration (0 picks an ephemeral port, "
        "printed to stderr)\n"
        "exit codes: 0 ok, 1 usage/IO, 2 frontend rejection, 3 compile "
        "failure, 4 ok-but-degraded\n";
}

/// Parses the N of a --flag=N argument; returns false (with a diagnostic)
/// unless the payload is a complete nonnegative decimal number.
bool parseCount(const std::string &Arg, size_t PrefixLen, const char *Flag,
                uint64_t Max, uint64_t &Out, std::ostream &Err) {
  const char *Payload = Arg.c_str() + PrefixLen;
  char *End = nullptr;
  unsigned long long N = std::strtoull(Payload, &End, 10);
  if (*Payload == '\0' || *End != '\0' || N > Max) {
    Err << "error: " << Flag << " needs a number in [0, " << Max << "]\n";
    return false;
  }
  Out = N;
  return true;
}

/// Emits the global metrics snapshot: Prometheus text to \p Path when
/// nonempty, otherwise appended to \p Out as an "=== metrics ===="
/// section. Returns false (with a diagnostic) on I/O failure.
bool emitMetricsSnapshot(const std::string &Path, std::ostream &Out,
                         std::ostream &Err) {
  std::string Text =
      metrics::MetricsRegistry::global().snapshot().toPrometheusText();
  if (Path.empty()) {
    Out << "\n=== metrics ===\n" << Text;
    return true;
  }
  std::ofstream F(Path);
  if (!F) {
    Err << "error: cannot open '" << Path << "' for --metrics-out\n";
    return false;
  }
  F << Text;
  return true;
}

/// Minimal JSON string escaping for file paths.
std::string jsonEscape(const std::string &S) {
  std::string R;
  for (char C : S) {
    if (C == '"' || C == '\\')
      R += '\\';
    R += C;
  }
  return R;
}

/// The --batch path: every input file goes through one Session
/// (identical files coalesce into one compile).
int runBatch(const std::vector<std::string> &Paths, TargetRegistry &Reg,
             const std::string &Target, const CompilerOptions &Opts,
             bool Stats, bool Json, bool Utilization,
             const std::string &TracePath, bool Metrics,
             const std::string &MetricsOut, std::ostream &Out,
             std::ostream &Err) {
  if (Paths.empty()) {
    Err << "error: --batch needs at least one input file\n";
    return W2CExitUsage;
  }
  if (Utilization) {
    Err << "error: --utilization is not supported with --batch\n";
    return W2CExitUsage;
  }

  // Read and front-end check every file up front, so frontend rejection
  // stays a distinct exit code and the factories below cannot fail.
  std::vector<std::string> Sources(Paths.size());
  for (size_t I = 0; I != Paths.size(); ++I) {
    std::ifstream File(Paths[I]);
    if (!File) {
      Err << "error: cannot open '" << Paths[I] << "'\n";
      return W2CExitUsage;
    }
    std::stringstream SS;
    SS << File.rdbuf();
    Sources[I] = SS.str();
    DiagnosticEngine DE;
    if (!compileW2Source(Sources[I], DE)) {
      Err << Paths[I] << ":\n" << DE.str();
      return W2CExitParse;
    }
  }

  if (!TracePath.empty()) {
    if (!trace::compiledIn()) {
      Err << "error: --trace requested but tracing was compiled out "
             "(rebuild with SWP_TRACE_ENABLED=1)\n";
      return W2CExitUsage;
    }
    trace::start(TracePath);
    trace::setThreadName("w2c-main");
  }

  SessionConfig SC;
  SC.DefaultTarget = Target;
  SC.Registry = &Reg;
  SC.DefaultOpts = Opts;
  Session Sess(SC);

  std::vector<CompileRequest> Reqs(Paths.size());
  for (size_t I = 0; I != Paths.size(); ++I) {
    Reqs[I].Label = Paths[I];
    Reqs[I].Make = [Source = Sources[I]]() {
      DiagnosticEngine DE;
      std::optional<W2Module> M = compileW2Source(Source, DE);
      return std::make_unique<Program>(std::move(M->Prog));
    };
  }
  std::vector<CompileHandle> Handles = Sess.submitBatch(std::move(Reqs));
  std::vector<const CompileResponse *> Responses;
  Responses.reserve(Handles.size());
  for (const CompileHandle &H : Handles)
    Responses.push_back(&H.get());

  if (!TracePath.empty()) {
    std::string TraceErr;
    if (!trace::stop(&TraceErr)) {
      Err << "error: writing trace: " << TraceErr << "\n";
      return W2CExitUsage;
    }
    if (!Json)
      Out << "(trace written to " << TracePath << ")\n";
  }

  bool AnyFailed = false;
  bool AnyDegraded = false;
  for (const CompileResponse *R : Responses) {
    if (!R->Ok) {
      AnyFailed = true;
      continue;
    }
    for (const LoopReport &L : R->Result.Report.Loops)
      AnyDegraded |= L.degraded();
  }

  if (Json) {
    // Keys in sorted order: files, service.
    Out << "{\"files\":[";
    for (size_t I = 0; I != Responses.size(); ++I) {
      if (I)
        Out << ",";
      Out << "{\"file\":\"" << jsonEscape(Paths[I])
          << "\",\"ok\":" << (Responses[I]->Ok ? "true" : "false")
          << ",\"report\":" << Responses[I]->Result.Report.toJson() << "}";
    }
    Out << "],\"service\":" << Sess.stats().toJson() << "}";
  } else {
    Out << "=== batch (" << Paths.size() << " files) ===\n";
    for (size_t I = 0; I != Responses.size(); ++I) {
      const CompileResponse &R = *Responses[I];
      if (!R.Ok) {
        Out << Paths[I] << ": FAILED: " << R.Result.Error << "\n";
        continue;
      }
      bool Degraded = false;
      for (const LoopReport &L : R.Result.Report.Loops)
        Degraded |= L.degraded();
      Out << Paths[I] << ": " << (Degraded ? "degraded" : "ok") << ", "
          << R.Result.Code.size() << " long instructions\n";
    }
    if (Stats) {
      ServiceStats SS = Sess.stats();
      Out << "service: " << SS.Requests << " requests, " << SS.Compiles
          << " compiles, " << SS.MemoHits << " memo hits, " << SS.Coalesced
          << " coalesced\n";
    }
  }
  if (Metrics && !emitMetricsSnapshot(MetricsOut, Out, Err))
    return W2CExitUsage;
  return AnyFailed ? W2CExitCompile
                   : (AnyDegraded ? W2CExitDegraded : W2CExitOk);
}

} // namespace

int swp::runW2C(const std::vector<std::string> &Args, std::ostream &Out,
                std::ostream &Err) {
  bool Pipeline = true;
  bool DumpCode = false;
  bool Verify = false;
  bool Stats = false;
  bool Json = false;
  bool Explain = false;
  bool Utilization = false;
  CompileBudget Budget;
  uint64_t ChaosSeed = 0;
  unsigned MinLadderRung = 0;
  bool Batch = false;
  bool Metrics = false;
  std::string MetricsOut;
  int MetricsPort = -1;
  std::string TracePath;
  std::string Target;
  std::vector<std::string> TargetFiles;
  bool ListTargets = false;
  std::vector<std::string> Paths;
  for (const std::string &Arg : Args) {
    uint64_t N = 0;
    if (Arg == "--no-pipeline") {
      Pipeline = false;
    } else if (Arg == "--code") {
      DumpCode = true;
    } else if (Arg == "--verify") {
      Verify = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--explain") {
      Explain = true;
    } else if (Arg == "--utilization") {
      Utilization = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
      if (TracePath.empty()) {
        Err << "error: --trace needs a file name (--trace=FILE)\n";
        return W2CExitUsage;
      }
    } else if (Arg.rfind("--target=", 0) == 0) {
      Target = Arg.substr(9);
      if (Target.empty()) {
        Err << "error: --target needs a name (--target=NAME)\n";
        return W2CExitUsage;
      }
    } else if (Arg.rfind("--target-file=", 0) == 0) {
      TargetFiles.push_back(Arg.substr(14));
      if (TargetFiles.back().empty()) {
        Err << "error: --target-file needs a path (--target-file=F.json)\n";
        return W2CExitUsage;
      }
    } else if (Arg == "--list-targets") {
      ListTargets = true;
    } else if (Arg.rfind("--budget-ms=", 0) == 0) {
      if (!parseCount(Arg, 12, "--budget-ms", UINT64_MAX, N, Err))
        return W2CExitUsage;
      Budget.WallMs = N;
    } else if (Arg.rfind("--max-intervals=", 0) == 0) {
      if (!parseCount(Arg, 16, "--max-intervals", UINT64_MAX, N, Err))
        return W2CExitUsage;
      Budget.MaxIntervals = N;
    } else if (Arg.rfind("--max-nodes=", 0) == 0) {
      if (!parseCount(Arg, 12, "--max-nodes", UINT64_MAX, N, Err))
        return W2CExitUsage;
      Budget.MaxNodes = N;
    } else if (Arg.rfind("--min-rung=", 0) == 0) {
      if (!parseCount(Arg, 11, "--min-rung", 2, N, Err))
        return W2CExitUsage;
      MinLadderRung = static_cast<unsigned>(N);
    } else if (Arg.rfind("--chaos-seed=", 0) == 0) {
      if (!parseCount(Arg, 13, "--chaos-seed", UINT64_MAX, N, Err))
        return W2CExitUsage;
      ChaosSeed = N;
    } else if (Arg == "--batch") {
      Batch = true;
    } else if (Arg == "--metrics") {
      Metrics = true;
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      MetricsOut = Arg.substr(14);
      if (MetricsOut.empty()) {
        Err << "error: --metrics-out needs a file name "
               "(--metrics-out=FILE)\n";
        return W2CExitUsage;
      }
      Metrics = true;
    } else if (Arg.rfind("--metrics-port=", 0) == 0) {
      if (!parseCount(Arg, 15, "--metrics-port", 65535, N, Err))
        return W2CExitUsage;
      MetricsPort = static_cast<int>(N);
    } else if (Arg == "--help") {
      printUsage(Out);
      return W2CExitOk;
    } else if (!Arg.empty() && Arg[0] == '-') {
      Err << "error: unknown option '" << Arg << "'\n";
      printUsage(Err);
      return W2CExitUsage;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (!Batch && Paths.size() > 1) {
    Err << "error: multiple input files ('" << Paths[0] << "' and '"
        << Paths[1] << "'); use --batch to compile several\n";
    return W2CExitUsage;
  }
  // Contradictory combos are usage errors here (exit 1), mirroring the
  // typed rejections CompilerOptions::validate() gives API callers.
  if (Explain && !Pipeline) {
    Err << "error: --explain renders pipelined kernels; it is "
           "contradictory with --no-pipeline\n";
    return W2CExitUsage;
  }
  if (Metrics || MetricsPort >= 0) {
    if (!metrics::compiledIn()) {
      Err << "error: --metrics requested but metrics were compiled out "
             "(rebuild with SWP_METRICS_ENABLED=1)\n";
      return W2CExitUsage;
    }
    if (Metrics && Json && MetricsOut.empty()) {
      Err << "error: --json prints a JSON document on stdout; --metrics "
             "needs --metrics-out=FILE to keep it parseable\n";
      return W2CExitUsage;
    }
    metrics::setEnabled(true);
  }
  // The scrape endpoint outlives the whole run: a scraper (or curl) can
  // watch counters move while the compile is in flight.
  std::optional<metrics::MetricsServer> Server;
  if (MetricsPort >= 0) {
    metrics::MetricsServer::Config MC;
    MC.Port = static_cast<uint16_t>(MetricsPort);
    Server.emplace(MC);
    if (!Server->ok()) {
      Err << "error: --metrics-port: " << Server->error() << "\n";
      return W2CExitUsage;
    }
    Err << "metrics: listening on 127.0.0.1:" << Server->port() << "\n";
  }

  // The target namespace for this invocation: the built-in cells plus
  // any --target-file machines. Private to the invocation so repeated
  // in-process runs (tests) can reload the same file without "already
  // registered" collisions.
  TargetRegistry Reg;
  TargetRegistry::registerBuiltins(Reg);
  std::string LoadedName;
  for (const std::string &F : TargetFiles) {
    std::string LoadErr = Reg.loadFile(F, &LoadedName);
    if (!LoadErr.empty()) {
      Err << "error: " << LoadErr << "\n";
      return W2CExitUsage;
    }
  }
  // No explicit --target: the last file loaded is what the user meant to
  // compile for; with no files either, the default cell.
  if (Target.empty())
    Target = LoadedName.empty() ? "warp-cell" : LoadedName;

  if (ListTargets) {
    for (const std::string &Name : Reg.names()) {
      const MachineDescription *MD = Reg.lookup(Name);
      Out << Name << "  (" << MD->numResources() << " resources, "
          << MD->clockMHz() << " MHz)\n";
    }
    return W2CExitOk;
  }

  if (!Reg.lookup(Target)) {
    Err << "error: unknown target '" << Target << "'; known:";
    for (const std::string &Name : Reg.names())
      Err << " " << Name;
    Err << "\n";
    return W2CExitUsage;
  }

  CompilerOptions Opts;
  Opts.EnablePipelining = Pipeline;
  Opts.ParanoidVerify = Verify;
  Opts.Explain = Explain;
  Opts.Budget = Budget;
  Opts.ChaosSeed = ChaosSeed;
  Opts.MinLadderRung = MinLadderRung;

  if (Batch)
    return runBatch(Paths, Reg, Target, Opts, Stats, Json, Utilization,
                    TracePath, Metrics, MetricsOut, Out, Err);

  std::string Source;
  if (Paths.empty()) {
    if (!Json)
      Out << "(no input file: compiling the built-in demo)\n";
    Source = DemoSource;
  } else {
    std::ifstream File(Paths[0]);
    if (!File) {
      Err << "error: cannot open '" << Paths[0] << "'\n";
      return W2CExitUsage;
    }
    std::stringstream SS;
    SS << File.rdbuf();
    Source = SS.str();
  }

  DiagnosticEngine DE;
  std::optional<W2Module> Mod = compileW2Source(Source, DE);
  if (!Mod) {
    Err << DE.str();
    return W2CExitParse;
  }
  if (DE.errorCount() == 0 && !DE.diagnostics().empty())
    Err << DE.str(); // Warnings.

  if (!Json) {
    Out << "=== IR ===\n";
    printProgram(Mod->Prog, Out);
  }

  if (!TracePath.empty()) {
    if (!trace::compiledIn()) {
      Err << "error: --trace requested but tracing was compiled out "
             "(rebuild with SWP_TRACE_ENABLED=1)\n";
      return W2CExitUsage;
    }
    trace::start(TracePath);
    trace::setThreadName("w2c-main");
  }

  // One session per invocation; the in-place compileNow path keeps the
  // mutated program available for --utilization's simulation.
  SessionConfig SC;
  SC.DefaultTarget = Target;
  SC.Registry = &Reg;
  Session Sess(SC);
  const MachineDescription &MD = *Reg.lookup(Target);
  CompileResponse Resp = Sess.compileNow(Mod->Prog, Target, &Opts, &DE);
  CompileResult &CR = Resp.Result;
  if (CR.Ok && Utilization) {
    // Dynamic occupancy: run the compiled code on the cycle-accurate
    // simulator with zero-filled arrays and scalars. Resource usage is
    // input-independent for these kernels; the report reflects the real
    // schedule the machine executes.
    SimResult SR = simulate(CR.Code, Mod->Prog, MD, ProgramInput{});
    if (!SR.State.Ok) {
      Err << "simulation error: " << SR.State.Error << "\n";
      return W2CExitCompile;
    }
    CR.Report.HasUtilization = true;
    CR.Report.Util = SR.Util;
  }
  if (!TracePath.empty()) {
    std::string TraceErr;
    if (!trace::stop(&TraceErr)) {
      Err << "error: writing trace: " << TraceErr << "\n";
      return W2CExitUsage;
    }
    if (!Json)
      Out << "(trace written to " << TracePath << ")\n";
  }
  if (!CR.Ok) {
    Err << "codegen error: " << CR.Error << "\n";
    for (const std::string &E : CR.Report.VerifyErrors)
      Err << "verifier: " << E << "\n";
    if (Metrics) // Snapshot the failure too; counters explain it.
      emitMetricsSnapshot(MetricsOut, Out, Err);
    return W2CExitCompile;
  }

  // The compile succeeded; distinguish "clean" from "correct but the
  // budget (or --min-rung) pushed loops down the degradation ladder".
  bool Degraded = false;
  for (const LoopReport &L : CR.Report.Loops)
    Degraded |= L.degraded();

  if (Json) {
    Out << CR.Report.toJson();
    if (Metrics && !emitMetricsSnapshot(MetricsOut, Out, Err))
      return W2CExitUsage;
    return Degraded ? W2CExitDegraded : W2CExitOk;
  }

  Out << "\n=== loops ===\n";
  CR.Report.print(Out, Stats);
  if (Explain) {
    for (const LoopReport &L : CR.Report.Loops)
      if (L.pipelined() && !L.ExplainText.empty())
        Out << "\n=== explain loop i" << L.LoopId << " ===\n"
            << L.ExplainText;
  }
  if (Verify)
    Out << "(all emitted schedules passed independent verification)\n";
  Out << "\n" << CR.Code.size() << " long instructions, "
      << CR.Code.FloatRegsUsed << " float / " << CR.Code.IntRegsUsed
      << " int registers\n";

  if (DumpCode) {
    Out << "\n=== VLIW code ===\n" << vliwProgramToString(CR.Code, MD);
  }
  if (Metrics && !emitMetricsSnapshot(MetricsOut, Out, Err))
    return W2CExitUsage;
  return Degraded ? W2CExitDegraded : W2CExitOk;
}
