//===- TargetRegistry.cpp - Named machine targets -------------------------===//
//
// Part of warp-swp. See swp/API/TargetRegistry.h.
//
//===----------------------------------------------------------------------===//

#include "swp/API/TargetRegistry.h"

#include "swp/Support/Json.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace swp;

//===----------------------------------------------------------------------===//
// A minimal JSON reader, private to this file. Machine descriptions are
// small (a few KB), so a straightforward recursive-descent parse into a
// tree of values is plenty; no external dependency is taken.
//===----------------------------------------------------------------------===//

namespace {

struct JValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JValue> Arr;
  // Parse-order preserving; machine schemas are tiny so linear find is fine.
  std::vector<std::pair<std::string, JValue>> Obj;

  const JValue *field(const std::string &Name) const {
    for (const auto &KV : Obj)
      if (KV.first == Name)
        return &KV.second;
    return nullptr;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : S(Text) {}

  bool parse(JValue &Out, std::string &Err) {
    if (!value(Out, Err))
      return false;
    skipWs();
    if (At != S.size()) {
      Err = where() + "trailing characters after the document";
      return false;
    }
    return true;
  }

private:
  const std::string &S;
  size_t At = 0;

  std::string where() const {
    unsigned Line = 1;
    for (size_t I = 0; I < At && I < S.size(); ++I)
      if (S[I] == '\n')
        ++Line;
    return "JSON line " + std::to_string(Line) + ": ";
  }

  void skipWs() {
    while (At < S.size() && (S[At] == ' ' || S[At] == '\t' ||
                             S[At] == '\n' || S[At] == '\r'))
      ++At;
  }

  bool lit(const char *Word, std::string &Err) {
    size_t Len = std::char_traits<char>::length(Word);
    if (S.compare(At, Len, Word) != 0) {
      Err = where() + "expected '" + Word + "'";
      return false;
    }
    At += Len;
    return true;
  }

  bool value(JValue &Out, std::string &Err) {
    skipWs();
    if (At == S.size()) {
      Err = where() + "unexpected end of input";
      return false;
    }
    switch (S[At]) {
    case '{':
      return object(Out, Err);
    case '[':
      return array(Out, Err);
    case '"':
      Out.K = JValue::String;
      return string(Out.Str, Err);
    case 't':
      Out.K = JValue::Bool;
      Out.B = true;
      return lit("true", Err);
    case 'f':
      Out.K = JValue::Bool;
      Out.B = false;
      return lit("false", Err);
    case 'n':
      Out.K = JValue::Null;
      return lit("null", Err);
    default:
      return number(Out, Err);
    }
  }

  bool string(std::string &Out, std::string &Err) {
    ++At; // opening quote
    Out.clear();
    while (At < S.size() && S[At] != '"') {
      char C = S[At++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (At == S.size())
        break;
      char E = S[At++];
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        // \uXXXX is a UTF-16 code unit; a surrogate pair spells one code
        // point above U+FFFF. Either way the string gets its UTF-8 bytes.
        size_t EscAt = At - 2;
        unsigned Code = 0;
        if (!hex4(Code, Err))
          return false;
        if (Code >= 0xD800 && Code <= 0xDFFF) {
          unsigned Low = 0;
          if (Code >= 0xDC00 || S.compare(At, 2, "\\u") != 0)
            return loneSurrogate(EscAt, Err);
          At += 2;
          if (!hex4(Low, Err))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return loneSurrogate(EscAt, Err);
          Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        Err = where() + "bad escape '\\" + std::string(1, E) + "'";
        return false;
      }
    }
    if (At == S.size()) {
      Err = where() + "unterminated string";
      return false;
    }
    ++At; // closing quote
    return true;
  }

  /// Reads the four hex digits of a \u escape.
  bool hex4(unsigned &Code, std::string &Err) {
    Code = 0;
    for (int I = 0; I < 4; ++I, ++At) {
      char H = At < S.size() ? S[At] : '\0';
      if (!std::isxdigit(static_cast<unsigned char>(H))) {
        Err = where() + "bad \\u escape";
        return false;
      }
      Code = Code * 16 + (std::isdigit(static_cast<unsigned char>(H))
                              ? H - '0'
                              : std::tolower(H) - 'a' + 10);
    }
    return true;
  }

  bool loneSurrogate(size_t EscAt, std::string &Err) {
    Err = where() + "lone surrogate in \\u escape at offset " +
          std::to_string(EscAt);
    return false;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool number(JValue &Out, std::string &Err) {
    const char *Begin = S.c_str() + At;
    char *End = nullptr;
    double D = std::strtod(Begin, &End);
    if (End == Begin || !std::isfinite(D)) {
      Err = where() + "expected a value";
      return false;
    }
    Out.K = JValue::Number;
    Out.Num = D;
    At += static_cast<size_t>(End - Begin);
    return true;
  }

  bool array(JValue &Out, std::string &Err) {
    Out.K = JValue::Array;
    ++At; // '['
    skipWs();
    if (At < S.size() && S[At] == ']') {
      ++At;
      return true;
    }
    while (true) {
      JValue Elem;
      if (!value(Elem, Err))
        return false;
      Out.Arr.push_back(std::move(Elem));
      skipWs();
      if (At < S.size() && S[At] == ',') {
        ++At;
        continue;
      }
      if (At < S.size() && S[At] == ']') {
        ++At;
        return true;
      }
      Err = where() + "expected ',' or ']' in array";
      return false;
    }
  }

  bool object(JValue &Out, std::string &Err) {
    Out.K = JValue::Object;
    ++At; // '{'
    skipWs();
    if (At < S.size() && S[At] == '}') {
      ++At;
      return true;
    }
    while (true) {
      skipWs();
      if (At == S.size() || S[At] != '"') {
        Err = where() + "expected a key string in object";
        return false;
      }
      std::string Key;
      if (!string(Key, Err))
        return false;
      skipWs();
      if (At == S.size() || S[At] != ':') {
        Err = where() + "expected ':' after key \"" + Key + "\"";
        return false;
      }
      ++At;
      JValue Val;
      if (!value(Val, Err))
        return false;
      Out.Obj.emplace_back(std::move(Key), std::move(Val));
      skipWs();
      if (At < S.size() && S[At] == ',') {
        ++At;
        continue;
      }
      if (At < S.size() && S[At] == '}') {
        ++At;
        return true;
      }
      Err = where() + "expected ',' or '}' in object";
      return false;
    }
  }
};

/// Nonnegative integer field with a range check; returns false with Err.
bool readUnsigned(const JValue &Obj, const char *Key, unsigned Max,
                  unsigned &Out, std::string &Err, const std::string &Ctx) {
  const JValue *V = Obj.field(Key);
  if (!V || V->K != JValue::Number || V->Num < 0 ||
      V->Num != std::floor(V->Num) || V->Num > Max) {
    Err = Ctx + ": \"" + Key + "\" must be an integer in [0, " +
          std::to_string(Max) + "]";
    return false;
  }
  Out = static_cast<unsigned>(V->Num);
  return true;
}

const char *regClassName(RegClass RC) {
  switch (RC) {
  case RegClass::None:
    return "none";
  case RegClass::Float:
    return "float";
  case RegClass::Int:
    return "int";
  }
  return "none";
}

bool regClassFromName(const std::string &Name, RegClass &Out) {
  if (Name == "none")
    Out = RegClass::None;
  else if (Name == "float")
    Out = RegClass::Float;
  else if (Name == "int")
    Out = RegClass::Int;
  else
    return false;
  return true;
}

/// Mnemonic -> Opcode over the whole enum (opcodeName is total).
const std::map<std::string, Opcode> &opcodeByName() {
  static const std::map<std::string, Opcode> Map = [] {
    std::map<std::string, Opcode> M;
    for (unsigned I = 0; I != NumOpcodes; ++I)
      M[opcodeName(static_cast<Opcode>(I))] = static_cast<Opcode>(I);
    return M;
  }();
  return Map;
}

std::string formatDouble(double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

} // namespace

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

std::string TargetRegistry::validateMachine(const MachineDescription &MD) {
  if (MD.name().empty())
    return "machine has no name";
  if (MD.numResources() == 0)
    return "machine declares no resources";
  for (unsigned I = 0; I != MD.numResources(); ++I) {
    const Resource &R = MD.resource(I);
    if (R.Name.empty())
      return "resource " + std::to_string(I) + " has an empty name";
    if (R.Units == 0)
      return "resource \"" + R.Name + "\" has zero units";
    for (unsigned J = 0; J != I; ++J)
      if (MD.resource(J).Name == R.Name)
        return "duplicate resource name \"" + R.Name + "\"";
  }
  if (MD.registerFileSize(RegClass::Float) == 0 ||
      MD.registerFileSize(RegClass::Int) == 0)
    return "register files must have at least one register each";
  if (!(MD.clockMHz() > 0.0))
    return "clock rate must be positive";
  if (!MD.isLegal(Opcode::Nop))
    return "machine cannot issue nop (required for padding)";
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Opc = static_cast<Opcode>(I);
    if (!MD.isLegal(Opc))
      continue;
    const OpcodeInfo &Info = MD.opcodeInfoAllowIllegal(Opc);
    std::string Ctx = std::string("opcode \"") + opcodeName(Opc) + "\"";
    if (Info.Latency == 0)
      return Ctx + " has zero latency";
    for (const ResourceUse &U : Info.Uses) {
      if (U.ResId >= MD.numResources())
        return Ctx + " reserves unknown resource id " +
               std::to_string(U.ResId);
      if (U.Units == 0)
        return Ctx + " reserves zero units of \"" +
               MD.resource(U.ResId).Name + "\"";
      if (U.Units > MD.resource(U.ResId).Units)
        return Ctx + " reserves " + std::to_string(U.Units) + " units of \"" +
               MD.resource(U.ResId).Name + "\" but only " +
               std::to_string(MD.resource(U.ResId).Units) + " exist";
    }
  }
  return "";
}

//===----------------------------------------------------------------------===//
// JSON emit / parse
//===----------------------------------------------------------------------===//

std::string TargetRegistry::emitJson(const MachineDescription &MD) {
  std::ostringstream OS;
  // Top-level keys in sorted order: clock_mhz, name, opcodes, registers,
  // resources. The resources array's order is semantic (its index is the
  // resource id opcode reservations reference by name on reload).
  OS << "{\n  \"clock_mhz\": " << formatDouble(MD.clockMHz())
     << ",\n  \"name\": \"" << jsonEscape(MD.name()) << "\",\n"
     << "  \"opcodes\": {\n";
  bool FirstOp = true;
  // opcodeByName is sorted by mnemonic, making the rendering canonical.
  for (const auto &[Name, Opc] : opcodeByName()) {
    if (!MD.isLegal(Opc))
      continue;
    const OpcodeInfo &Info = MD.opcodeInfoAllowIllegal(Opc);
    if (!FirstOp)
      OS << ",\n";
    FirstOp = false;
    OS << "    \"" << Name << "\": {\"flop\": "
       << (Info.IsFlop ? "true" : "false")
       << ", \"latency\": " << Info.Latency
       << ", \"operands\": " << Info.NumOperands
       << ", \"result\": \"" << regClassName(Info.Result) << "\""
       << ", \"uses\": [";
    for (size_t I = 0; I != Info.Uses.size(); ++I) {
      const ResourceUse &U = Info.Uses[I];
      OS << (I ? ", " : "") << "{\"cycle\": " << U.Cycle
         << ", \"resource\": \"" << jsonEscape(MD.resource(U.ResId).Name)
         << "\", \"units\": " << U.Units << "}";
    }
    OS << "]}";
  }
  OS << "\n  },\n  \"registers\": {\"float\": "
     << MD.registerFileSize(RegClass::Float)
     << ", \"int\": " << MD.registerFileSize(RegClass::Int) << "},\n"
     << "  \"resources\": [";
  for (unsigned I = 0; I != MD.numResources(); ++I) {
    const Resource &R = MD.resource(I);
    OS << (I ? ", " : "") << "{\"name\": \"" << jsonEscape(R.Name)
       << "\", \"units\": " << R.Units << "}";
  }
  OS << "]\n}\n";
  return OS.str();
}

std::optional<MachineDescription>
TargetRegistry::parseJson(const std::string &Json, std::string &Err) {
  JValue Root;
  JsonParser P(Json);
  if (!P.parse(Root, Err))
    return std::nullopt;
  if (Root.K != JValue::Object) {
    Err = "machine description must be a JSON object";
    return std::nullopt;
  }

  MachineDescription MD;

  const JValue *Name = Root.field("name");
  if (!Name || Name->K != JValue::String || Name->Str.empty()) {
    Err = "\"name\" must be a nonempty string";
    return std::nullopt;
  }
  MD.setName(Name->Str);

  const JValue *Clock = Root.field("clock_mhz");
  if (!Clock || Clock->K != JValue::Number || !(Clock->Num > 0)) {
    Err = "\"clock_mhz\" must be a positive number";
    return std::nullopt;
  }
  MD.setClockMHz(Clock->Num);

  const JValue *Regs = Root.field("registers");
  if (!Regs || Regs->K != JValue::Object) {
    Err = "\"registers\" must be an object {\"float\": N, \"int\": N}";
    return std::nullopt;
  }
  unsigned FloatRegs = 0, IntRegs = 0;
  if (!readUnsigned(*Regs, "float", 1u << 20, FloatRegs, Err, "registers") ||
      !readUnsigned(*Regs, "int", 1u << 20, IntRegs, Err, "registers"))
    return std::nullopt;
  MD.setRegisterFileSizes(FloatRegs, IntRegs);

  const JValue *Resources = Root.field("resources");
  if (!Resources || Resources->K != JValue::Array || Resources->Arr.empty()) {
    Err = "\"resources\" must be a nonempty array";
    return std::nullopt;
  }
  std::map<std::string, unsigned> ResIdOf;
  for (const JValue &RV : Resources->Arr) {
    if (RV.K != JValue::Object) {
      Err = "each resource must be an object {\"name\", \"units\"}";
      return std::nullopt;
    }
    const JValue *RName = RV.field("name");
    unsigned Units = 0;
    if (!RName || RName->K != JValue::String || RName->Str.empty()) {
      Err = "resource \"name\" must be a nonempty string";
      return std::nullopt;
    }
    if (!readUnsigned(RV, "units", 1u << 16, Units, Err,
                      "resource \"" + RName->Str + "\"") ||
        Units == 0) {
      if (Err.empty())
        Err = "resource \"" + RName->Str + "\" needs units >= 1";
      return std::nullopt;
    }
    if (ResIdOf.count(RName->Str)) {
      Err = "duplicate resource name \"" + RName->Str + "\"";
      return std::nullopt;
    }
    ResIdOf[RName->Str] = MD.addResource(RName->Str, Units);
  }

  const JValue *Opcodes = Root.field("opcodes");
  if (!Opcodes || Opcodes->K != JValue::Object) {
    Err = "\"opcodes\" must be an object keyed by mnemonic";
    return std::nullopt;
  }
  for (const auto &[Mnemonic, OV] : Opcodes->Obj) {
    auto It = opcodeByName().find(Mnemonic);
    if (It == opcodeByName().end()) {
      Err = "unknown opcode \"" + Mnemonic + "\"";
      return std::nullopt;
    }
    if (OV.K != JValue::Object) {
      Err = "opcode \"" + Mnemonic + "\" must be an object";
      return std::nullopt;
    }
    std::string Ctx = "opcode \"" + Mnemonic + "\"";
    OpcodeInfo Info;
    if (!readUnsigned(OV, "latency", 1u << 16, Info.Latency, Err, Ctx) ||
        !readUnsigned(OV, "operands", 8, Info.NumOperands, Err, Ctx))
      return std::nullopt;
    const JValue *Result = OV.field("result");
    if (!Result || Result->K != JValue::String ||
        !regClassFromName(Result->Str, Info.Result)) {
      Err = Ctx + ": \"result\" must be \"none\", \"float\", or \"int\"";
      return std::nullopt;
    }
    const JValue *Flop = OV.field("flop");
    if (!Flop || Flop->K != JValue::Bool) {
      Err = Ctx + ": \"flop\" must be a boolean";
      return std::nullopt;
    }
    Info.IsFlop = Flop->B;
    const JValue *Uses = OV.field("uses");
    if (!Uses || Uses->K != JValue::Array) {
      Err = Ctx + ": \"uses\" must be an array";
      return std::nullopt;
    }
    for (const JValue &UV : Uses->Arr) {
      if (UV.K != JValue::Object) {
        Err = Ctx + ": each use must be an object";
        return std::nullopt;
      }
      const JValue *RName = UV.field("resource");
      if (!RName || RName->K != JValue::String ||
          !ResIdOf.count(RName->Str)) {
        Err = Ctx + ": use references unknown resource" +
              (RName && RName->K == JValue::String
                   ? " \"" + RName->Str + "\""
                   : "");
        return std::nullopt;
      }
      ResourceUse U;
      U.ResId = ResIdOf[RName->Str];
      if (!readUnsigned(UV, "cycle", 1u << 16, U.Cycle, Err, Ctx) ||
          !readUnsigned(UV, "units", 1u << 16, U.Units, Err, Ctx))
        return std::nullopt;
      Info.Uses.push_back(U);
    }
    MD.setOpcodeInfo(It->second, std::move(Info));
  }

  std::string Invalid = validateMachine(MD);
  if (!Invalid.empty()) {
    Err = "invalid machine: " + Invalid;
    return std::nullopt;
  }
  return MD;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

void TargetRegistry::registerBuiltins(TargetRegistry &R) {
  std::string Err;
  Err = R.registerTarget("warp-cell", MachineDescription::warpCell());
  assert(Err.empty() && "built-in warp-cell must validate");
  Err = R.registerTarget("toy-cell", MachineDescription::toyCell());
  assert(Err.empty() && "built-in toy-cell must validate");
  Err = R.registerTarget("warp-cell-x2", MachineDescription::scaledWarpCell(2));
  assert(Err.empty() && "built-in warp-cell-x2 must validate");
  (void)Err;
}

TargetRegistry &TargetRegistry::global() {
  static TargetRegistry *R = [] {
    auto *Reg = new TargetRegistry();
    registerBuiltins(*Reg);
    return Reg;
  }();
  return *R;
}

std::string TargetRegistry::registerTarget(const std::string &Name,
                                           MachineDescription MD) {
  if (Name.empty())
    return "target name must be nonempty";
  std::string Invalid = validateMachine(MD);
  if (!Invalid.empty())
    return "target \"" + Name + "\": " + Invalid;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = std::lower_bound(
      Targets.begin(), Targets.end(), Name,
      [](const auto &Entry, const std::string &N) { return Entry.first < N; });
  if (It != Targets.end() && It->first == Name)
    return "target \"" + Name + "\" is already registered";
  Targets.emplace(It, Name,
                  std::make_unique<MachineDescription>(std::move(MD)));
  return "";
}

const MachineDescription *
TargetRegistry::lookup(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = std::lower_bound(
      Targets.begin(), Targets.end(), Name,
      [](const auto &Entry, const std::string &N) { return Entry.first < N; });
  if (It == Targets.end() || It->first != Name)
    return nullptr;
  return It->second.get();
}

std::vector<std::string> TargetRegistry::names() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::string> Names;
  Names.reserve(Targets.size());
  for (const auto &Entry : Targets)
    Names.push_back(Entry.first);
  return Names;
}

std::string TargetRegistry::loadFile(const std::string &Path,
                                     std::string *NameOut) {
  std::ifstream In(Path);
  if (!In)
    return "cannot open target file '" + Path + "'";
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Err;
  std::optional<MachineDescription> MD = parseJson(SS.str(), Err);
  if (!MD)
    return Path + ": " + Err;
  std::string Name = MD->name();
  std::string RegErr = registerTarget(Name, std::move(*MD));
  if (!RegErr.empty())
    return Path + ": " + RegErr;
  if (NameOut)
    *NameOut = Name;
  return "";
}
