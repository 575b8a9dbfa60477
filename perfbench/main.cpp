//===- perfbench/main.cpp - End-to-end benchmark entry point ----*- C++ -*-===//
//
// Part of warp-swp. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// swp_perfbench --workload <livermore|random-loops|service-repeat>
///               --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
///
/// Prints notes and one line per metric, then, as the last line of
/// standard output, one JSON object {"correct", "attempted", "failed",
/// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 the
/// per-layer ones, from a run that also writes a Perfetto trace. Exits 1
/// when any request failed or gave a wrong answer, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

using namespace perfbench;

namespace {

int usage(const std::string &Why) {
  std::cerr << "swp_perfbench: " << Why
            << "\nusage: swp_perfbench --workload "
               "<livermore|random-loops|service-repeat> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n";
  return 2;
}

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos ||
      S.size() > 19)
    return false;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return true;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  std::ostringstream OS;
  OS.precision(17);
  OS << V;
  return OS.str();
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage("missing value for " + Flag);
    std::string Val = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      O.Workload = Val;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Val, N))
        return usage("bad seed '" + Val + "'");
      O.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Val, N) || N == 0 || N > 600)
        return usage("bad seconds '" + Val + "' (1..600)");
      O.Seconds = static_cast<double>(N);
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        return usage("bad trace '" + Val + "' (0 or 1)");
      O.Trace = Val == "1";
      HaveTrace = true;
    } else if (Flag == "--trace-out") {
      O.TracePath = Val;
    } else {
      return usage("unknown flag " + Flag);
    }
  }
  if (!HaveSeed || !HaveTrace)
    return usage("--seed and --trace are required");
  if (O.TracePath.empty())
    O.TracePath = "perfbench-" + O.Workload + ".trace.json";

  Outcome Out;
  if (O.Workload == "livermore" || O.Workload == "random-loops")
    Out = runCompileVerify(O);
  else if (O.Workload == "service-repeat")
    Out = runServiceRepeat(O);
  else
    return usage("unknown workload '" + O.Workload + "'");

  std::cout << "workload " << O.Workload << ", seed " << O.Seed << ", "
            << O.Seconds << " s, trace " << (O.Trace ? 1 : 0) << "\n";
  for (const std::string &N : Out.Notes)
    std::cout << N << "\n";
  for (const Metric &M : Out.Metrics) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%-28s %18.6f %s", M.Name.c_str(),
                  M.Value, M.Unit.c_str());
    std::cout << Buf << "\n";
  }
  for (const std::string &E : Out.Errors)
    std::cerr << "FAILED: " << E << "\n";

  bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  std::ostringstream J;
  J << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Out.Attempted << ", \"failed\": " << Out.Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I != Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    J << (I ? ", " : "") << "\"" << M.Name << "\": {\"value\": "
      << jsonNumber(M.Value) << ", \"unit\": \"" << M.Unit << "\"}";
  }
  J << "}}";
  std::cout << J.str() << std::endl;
  return Correct ? 0 : 1;
}
