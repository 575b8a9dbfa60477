//===- swp/API/Version.h - Public API version ------------------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md section 11.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The version of the public compile API (swp/API/*: Session,
/// TargetRegistry, and their request/response JSON envelopes).
///
/// Stability policy (see DESIGN.md section 11 for the full statement):
///
///   - the MAJOR version changes only when an existing field, flag, or
///     JSON key changes meaning or disappears — callers written against
///     major N keep compiling and keep meaning the same thing for every
///     N.x release;
///   - the MINOR version changes when something is added: new optional
///     request fields, new response keys, new OptionErrorKind values,
///     new built-in targets. Additions never change the meaning of what
///     was already there, and JSON consumers must ignore unknown keys;
///   - the response envelope (CompileResponse::toJson) always carries
///     "api_version", so a remote caller can check compatibility before
///     reading anything else. The envelope's exact shape is locked by a
///     golden snapshot under tests/goldens/.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_API_VERSION_H
#define SWP_API_VERSION_H

namespace swp {
namespace api {

/// Incompatible-change counter (see the stability policy above).
constexpr unsigned VersionMajor = 2;
/// Backward-compatible-addition counter.
constexpr unsigned VersionMinor = 0;

/// "MAJOR.MINOR" as carried by every response envelope.
constexpr const char *versionString() { return "2.0"; }

} // namespace api
} // namespace swp

#endif // SWP_API_VERSION_H
