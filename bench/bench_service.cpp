//===- bench_service.cpp - compile service reuse gate ---------------------===//
//
// Part of warp-swp.
//
// The reuse gate: measures the compile service (its whole-result memo)
// against serial compileProgram calls, and proves reuse can only change
// compile time, never code:
//
//  * warm-hit latency: a repeat request through a warm CompileService
//    must run >= 10x faster than the cold pass that populated it;
//  * batched throughput: a duplicate-heavy corpus of keyed compileOne
//    requests fanned over the global pool must beat one-at-a-time
//    compiles by >= 3x;
//  * bit-identity: memoized and batched compiles must match the serial
//    compileProgram code byte for byte, and the full differential harness
//    (interpreter vs simulator, pipelined vs not, ParanoidVerify on) must
//    pass on every workload (Livermore + Table 4-1 user programs);
//  * multi-target: one mixed-target Session batch matches serial
//    per-target compiles, with memo keys separated per machine.
//
// `--json [out [baseline]]` writes the gate report (default
// BENCH_service.json, baseline bench/baselines/BENCH_service_seed.json);
// running with no arguments does the same. Exit 0 iff every gate holds.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "swp/API/Session.h"
#include "swp/Service/CompileService.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Verify/Differential.h"
#include "swp/Workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace swp;

namespace {

/// Wall-clock milliseconds of one call to \p Fn.
template <typename Fn> double timeMs(Fn &&F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

CompileJob jobFor(const WorkloadSpec &Spec, const MachineDescription &MD,
                  const CompilerOptions &Opts) {
  CompileJob J;
  J.MD = &MD;
  J.Opts = Opts;
  J.Make = [&Spec] { return std::move(Spec.Make().Prog); };
  return J;
}

/// Extracts "cold_ms_min" from a previous run's JSON; 0 when absent.
double baselineColdMs(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return 0.0;
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  size_t Key = Text.find("\"cold_ms_min\"");
  if (Key == std::string::npos)
    return 0.0;
  size_t Colon = Text.find(':', Key);
  if (Colon == std::string::npos)
    return 0.0;
  return std::strtod(Text.c_str() + Colon + 1, nullptr);
}

int runGate(const std::string &OutPath, const std::string &BaselinePath) {
  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  MachineDescription MD = MachineDescription::warpCell();
  const std::vector<WorkloadSpec> &Kernels = livermoreKernels();
  CompilerOptions Opts; // defaults: pipelining on, no verify overhead

  // Serial reference: every kernel compiled directly, and the code each
  // one must reproduce byte for byte below. Job keys are precomputed here
  // — a service client knows its content hash — so warm requests measure
  // the pure lookup path.
  std::vector<std::string> RefCode(Kernels.size());
  std::vector<Fingerprint> Keys(Kernels.size());
  for (size_t I = 0; I != Kernels.size(); ++I) {
    BuiltWorkload W = Kernels[I].Make();
    Keys[I] = CompileService::jobKey(*W.Prog, MD, Opts);
    CompileResult R = compileProgram(*W.Prog, MD, Opts);
    if (!R.Ok) {
      std::fprintf(stderr, "reference compile failed: %s: %s\n",
                   Kernels[I].Name.c_str(), R.Error.c_str());
      return 1;
    }
    RefCode[I] = vliwProgramToString(R.Code, MD);
  }

  //===--------------------------------------------------------------------===//
  // Gate 1: warm-hit latency >= 10x below cold.
  //===--------------------------------------------------------------------===//

  // Min over repetitions (each rep a fresh service): the minimum is the
  // stable statistic on a shared machine.
  constexpr int Reps = 5;
  double ColdMs = 0.0, WarmMs = 0.0;
  bool BitIdentical = true;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    CompileService Service;
    std::vector<CompileResult> Cold(Kernels.size()), Warm(Kernels.size());
    double C = timeMs([&] {
      for (size_t I = 0; I != Kernels.size(); ++I) {
        CompileJob J = jobFor(Kernels[I], MD, Opts);
        J.Key = Keys[I];
        Cold[I] = Service.compileOne(J);
      }
    });
    double W = timeMs([&] {
      for (size_t I = 0; I != Kernels.size(); ++I) {
        CompileJob J = jobFor(Kernels[I], MD, Opts);
        J.Key = Keys[I];
        Warm[I] = Service.compileOne(J);
      }
    });
    for (size_t I = 0; I != Kernels.size(); ++I) {
      BitIdentical &= Cold[I].Ok && Warm[I].Ok;
      BitIdentical &= vliwProgramToString(Cold[I].Code, MD) == RefCode[I];
      BitIdentical &= vliwProgramToString(Warm[I].Code, MD) == RefCode[I];
    }
    if (Rep == 0 || C < ColdMs)
      ColdMs = C;
    if (Rep == 0 || W < WarmMs)
      WarmMs = W;
  }
  double WarmSpeedup = WarmMs > 0.0 ? ColdMs / WarmMs : 0.0;
  bool WarmOk = WarmSpeedup >= 10.0;

  //===--------------------------------------------------------------------===//
  // Gate 2: batched throughput >= 3x serial compiles on a duplicate-heavy
  // corpus (the service-traffic shape: many clients, few distinct loops).
  // The batch fans keyed compileOne requests over the global pool; the
  // memo is the only reuse, so a duplicate that misses while its twin
  // compiles compiles too.
  //===--------------------------------------------------------------------===//

  constexpr unsigned Dup = 6;
  std::vector<const WorkloadSpec *> Corpus;
  for (unsigned D = 0; D != Dup; ++D)
    for (const WorkloadSpec &Spec : Kernels)
      Corpus.push_back(&Spec);

  double SerialMs = 0.0, BatchMs = 0.0;
  ServiceStats BatchService;
  ThreadPool &Pool = ThreadPool::global();
  for (int Rep = 0; Rep != Reps; ++Rep) {
    double S = timeMs([&] {
      for (const WorkloadSpec *Spec : Corpus) {
        BuiltWorkload W = Spec->Make();
        CompileResult R = compileProgram(*W.Prog, MD, Opts);
        if (!R.Ok)
          BitIdentical = false;
      }
    });
    CompileService Service;
    std::vector<CompileJob> Jobs;
    Jobs.reserve(Corpus.size());
    for (size_t I = 0; I != Corpus.size(); ++I) {
      Jobs.push_back(jobFor(*Corpus[I], MD, Opts));
      Jobs.back().Key = Keys[I % Kernels.size()];
    }
    std::vector<CompileResult> Results(Jobs.size());
    double B = timeMs([&] {
      Pool.parallelFor(Jobs.size(), [&](size_t I) {
        Results[I] = Service.compileOne(Jobs[I]);
      });
    });
    for (size_t I = 0; I != Results.size(); ++I) {
      BitIdentical &= Results[I].Ok;
      BitIdentical &= vliwProgramToString(Results[I].Code, MD) ==
                      RefCode[I % Kernels.size()];
    }
    if (Rep == 0 || S < SerialMs)
      SerialMs = S;
    if (Rep == 0 || B < BatchMs)
      BatchMs = B;
    BatchService = Service.stats();
  }
  double BatchSpeedup = BatchMs > 0.0 ? SerialMs / BatchMs : 0.0;
  bool BatchOk = BatchSpeedup >= 3.0;

  //===--------------------------------------------------------------------===//
  // Gate 3: the differential harness passes on every workload.
  //===--------------------------------------------------------------------===//

  bool DifferentialOk = true;
  for (const std::vector<WorkloadSpec> *Suite :
       {&livermoreKernels(), &userPrograms()})
    for (const WorkloadSpec &Spec : *Suite) {
      DiffOutcome O = runDifferential(Spec, MD, Opts);
      if (!O.Ok) {
        DifferentialOk = false;
        std::fprintf(stderr, "differential failed: %s: %s\n",
                     Spec.Name.c_str(), O.Error.c_str());
      }
    }

  //===--------------------------------------------------------------------===//
  // Gate 4: one Session::submitBatch mixing targets — the built-in cell
  // and a machine loaded from a JSON target file — must reproduce serial
  // single-target compileProgram byte for byte per target, with memo
  // keys separated per target (every (kernel, target) pair compiles
  // exactly once; nothing is served across machines).
  //===--------------------------------------------------------------------===//

  bool MultiTargetOk = true;
  bool TargetsDiffer = false;
  {
    TargetRegistry Reg;
    TargetRegistry::registerBuiltins(Reg);
    std::string LoadErr;
#ifdef SWP_SOURCE_DIR
    LoadErr = Reg.loadFile(std::string(SWP_SOURCE_DIR) +
                           "/examples/targets/warp-cell-fast.json");
#else
    LoadErr = "bench built without SWP_SOURCE_DIR";
#endif
    if (!LoadErr.empty()) {
      std::fprintf(stderr, "target file load failed: %s\n", LoadErr.c_str());
      MultiTargetOk = false;
    } else {
      const std::vector<std::string> TargetNames = {"warp-cell",
                                                    "warp-cell-fast"};
      // Serial single-target reference, bare compileProgram.
      std::vector<std::string> Ref(TargetNames.size() * Kernels.size());
      for (size_t T = 0; T != TargetNames.size(); ++T) {
        const MachineDescription &TMD = *Reg.lookup(TargetNames[T]);
        for (size_t I = 0; I != Kernels.size(); ++I) {
          BuiltWorkload W = Kernels[I].Make();
          CompileResult R = compileProgram(*W.Prog, TMD, Opts);
          MultiTargetOk &= R.Ok;
          Ref[T * Kernels.size() + I] = vliwProgramToString(R.Code, TMD);
        }
      }

      SessionConfig SC;
      SC.Registry = &Reg;
      SC.DefaultOpts = Opts;
      Session Sess(SC);
      std::vector<CompileRequest> Reqs;
      Reqs.reserve(Ref.size());
      for (size_t T = 0; T != TargetNames.size(); ++T)
        for (size_t I = 0; I != Kernels.size(); ++I) {
          CompileRequest Req;
          Req.Target = TargetNames[T];
          Req.Label = Kernels[I].Name;
          Req.Make = [Spec = &Kernels[I]] {
            return std::move(Spec->Make().Prog);
          };
          Reqs.push_back(std::move(Req));
        }
      std::vector<CompileHandle> Handles = Sess.submitBatch(std::move(Reqs));
      for (size_t J = 0; J != Handles.size(); ++J) {
        const CompileResponse &R = Handles[J].get();
        const MachineDescription &TMD =
            *Reg.lookup(TargetNames[J / Kernels.size()]);
        MultiTargetOk &= R.Ok;
        MultiTargetOk &= vliwProgramToString(R.Result.Code, TMD) == Ref[J];
      }
      // Key separation: every (kernel, target) pair ran its own compile
      // (no bogus cross-target memo hit)...
      ServiceStats SS = Sess.stats();
      MultiTargetOk &= SS.Compiles == Ref.size();
      // ...and the machines genuinely schedule differently somewhere, so
      // the bit-identity above actually discriminates.
      for (size_t I = 0; I != Kernels.size() && !TargetsDiffer; ++I)
        TargetsDiffer = Ref[I] != Ref[Kernels.size() + I];
      MultiTargetOk &= TargetsDiffer;
    }
  }
  if (!MultiTargetOk)
    std::fprintf(stderr, "multi-target session gate failed\n");

  double Baseline = baselineColdMs(BaselinePath);
  bool AllOk =
      WarmOk && BatchOk && BitIdentical && DifferentialOk && MultiTargetOk;
  if (!WarmOk)
    std::fprintf(stderr, "warm gate failed: %.2fx < 10x (cold %.3fms, warm %.3fms)\n",
                 WarmSpeedup, ColdMs, WarmMs);
  if (!BatchOk)
    std::fprintf(stderr, "batch gate failed: %.2fx < 3x (serial %.3fms, batch %.3fms)\n",
                 BatchSpeedup, SerialMs, BatchMs);
  if (!BitIdentical)
    std::fprintf(stderr,
                 "service code is NOT bit-identical to serial compiles\n");

  char Buf[3072];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\n"
      "  \"bench\": \"service\",\n"
      "  \"suite\": \"livermore-kernels\",\n"
      "  \"kernels\": %zu,\n"
      "  \"corpus\": %zu,\n"
      "  \"reps\": %d,\n"
      "  \"cold_ms_min\": %.4f,\n"
      "  \"warm_ms_min\": %.4f,\n"
      "  \"warm_speedup\": %.2f,\n"
      "  \"warm_gate_ok\": %s,\n"
      "  \"serial_ms_min\": %.4f,\n"
      "  \"batch_ms_min\": %.4f,\n"
      "  \"batch_speedup\": %.2f,\n"
      "  \"batch_gate_ok\": %s,\n"
      "  \"bit_identical\": %s,\n"
      "  \"differential_ok\": %s,\n"
      "  \"multi_target_ok\": %s,\n"
      "  \"service\": %s,\n"
      "  \"baseline_cold_ms\": %.4f,\n"
      "  \"speedup_vs_baseline\": %.2f\n"
      "}\n",
      Kernels.size(), Corpus.size(), Reps, ColdMs, WarmMs, WarmSpeedup,
      WarmOk ? "true" : "false", SerialMs, BatchMs, BatchSpeedup,
      BatchOk ? "true" : "false", BitIdentical ? "true" : "false",
      DifferentialOk ? "true" : "false", MultiTargetOk ? "true" : "false",
      BatchService.toJson().c_str(), Baseline,
      Baseline > 0 ? Baseline / ColdMs : 0.0);
  Out << Buf;
  std::printf("%s", Buf);
  std::printf("wrote %s\n", OutPath.c_str());
  return AllOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  // Default outputs land in the build tree, never the source checkout.
#ifdef SWP_BINARY_DIR
  std::string Out = std::string(SWP_BINARY_DIR) + "/BENCH_service.json";
#else
  std::string Out = "BENCH_service.json";
#endif
  std::string Baseline;
#ifdef SWP_SOURCE_DIR
  Baseline = std::string(SWP_SOURCE_DIR) +
             "/bench/baselines/BENCH_service_seed.json";
#endif
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--json") {
      if (I + 1 < argc)
        Out = argv[I + 1];
      if (I + 2 < argc)
        Baseline = argv[I + 2];
      break;
    }
  }
  return runGate(Out, Baseline);
}
