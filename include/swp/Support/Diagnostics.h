//===- swp/Support/Diagnostics.h - Error reporting --------------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal diagnostics engine shared by the mini-W2 frontend and the IR
/// verifier. Recoverable (user-input) errors are collected here with source
/// locations; programmatic errors use assert / unreachable.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_DIAGNOSTICS_H
#define SWP_SUPPORT_DIAGNOSTICS_H

#include <mutex>
#include <string>
#include <vector>

namespace swp {

/// A 1-based line/column position in a source buffer. Line 0 means "no
/// location" (e.g. diagnostics raised on programmatically built IR).
struct SourceLoc {
  int Line = 0;
  int Column = 0;

  bool isValid() const { return Line > 0; }
  std::string str() const;
};

/// Severity of a diagnostic.
enum class DiagKind { Error, Warning, Note };

/// One reported diagnostic.
struct Diagnostic {
  DiagKind Kind = DiagKind::Error;
  SourceLoc Loc;
  std::string Message;

  /// Renders "line:col: error: message" (location omitted when invalid).
  std::string str() const;
};

/// Collects diagnostics produced while processing one input. Thread-safe:
/// one engine may be shared by compiles running on several threads, so
/// every accessor serializes on an internal mutex. diagnostics() returns
/// a snapshot rather than a reference for the same reason.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Message) {
    std::lock_guard<std::mutex> Lock(Mu);
    Diags.push_back({DiagKind::Error, Loc, std::move(Message)});
    ++NumErrors;
  }
  void warning(SourceLoc Loc, std::string Message) {
    std::lock_guard<std::mutex> Lock(Mu);
    Diags.push_back({DiagKind::Warning, Loc, std::move(Message)});
  }
  void note(SourceLoc Loc, std::string Message) {
    std::lock_guard<std::mutex> Lock(Mu);
    Diags.push_back({DiagKind::Note, Loc, std::move(Message)});
  }

  bool hasErrors() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return NumErrors > 0;
  }
  unsigned errorCount() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return NumErrors;
  }
  std::vector<Diagnostic> diagnostics() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Diags;
  }

  /// All diagnostics rendered one per line.
  std::string str() const;

private:
  mutable std::mutex Mu;
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace swp

#endif // SWP_SUPPORT_DIAGNOSTICS_H
