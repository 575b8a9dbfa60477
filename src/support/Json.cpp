//===- Json.cpp - JSON string escaping ------------------------------------===//
//
// Part of warp-swp. See swp/Support/Json.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Support/Json.h"

std::string swp::jsonEscape(std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += "\\u00";
        Out += Hex[C >> 4];
        Out += Hex[C & 0xF];
      } else {
        Out += C;
      }
    }
  }
  return Out;
}
