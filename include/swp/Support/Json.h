//===- swp/Support/Json.h - JSON string escaping ----------------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md §12.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper. Every emitter that writes a JSON string
/// literal — CompileReport and UtilizationReport, the session response
/// envelope and trace-span args, TargetRegistry machine files, trace
/// files, and `w2c --batch --json` — escapes through jsonEscape(). Each
/// emitter keeps its own layout (goldens lock them); only the escaping is
/// shared.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_JSON_H
#define SWP_SUPPORT_JSON_H

#include <string>
#include <string_view>

namespace swp {

/// Escapes \p S for the inside of a JSON string literal (the quotes are
/// the caller's). `"`, `\`, newline, tab, carriage return, backspace and
/// form feed take their short escapes; every other byte below 0x20
/// becomes `\u00xx`; every other byte passes through, UTF-8 included.
std::string jsonEscape(std::string_view S);

} // namespace swp

#endif // SWP_SUPPORT_JSON_H
