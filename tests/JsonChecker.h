//===- JsonChecker.h - strict JSON syntax checker for tests -----*- C++ -*-===//
//
// Part of warp-swp.
//
// A minimal RFC 8259 syntax checker (grammar only, no object model) for
// the suites that check emitted JSON: trace files, compile reports,
// response envelopes, machine files and `w2c --json` output. Strict where
// emitters go wrong: a raw control byte inside a string, an unknown
// escape, or trailing text fails the check. The repo deliberately has no
// JSON dependency.
//
//===----------------------------------------------------------------------===//

#ifndef SWP_TESTS_JSONCHECKER_H
#define SWP_TESTS_JSONCHECKER_H

#include <cctype>
#include <cstring>
#include <string>

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
            if (I >= S.size() ||
                !std::isxdigit(static_cast<unsigned char>(S[I])))
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

#endif // SWP_TESTS_JSONCHECKER_H
