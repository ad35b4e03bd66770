//===- Json.cpp - Minimal JSON reader/writer -------------------------------===//

#include "service/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace xsa;

JsonRef JsonValue::null() { return std::make_shared<JsonValue>(); }

JsonRef JsonValue::boolean(bool B) {
  auto V = std::make_shared<JsonValue>();
  V->Ty = Type::Bool;
  V->B = B;
  return V;
}

JsonRef JsonValue::number(double N) {
  auto V = std::make_shared<JsonValue>();
  V->Ty = Type::Number;
  V->Num = N;
  return V;
}

JsonRef JsonValue::string(std::string S) {
  auto V = std::make_shared<JsonValue>();
  V->Ty = Type::String;
  V->Str = std::move(S);
  return V;
}

JsonRef JsonValue::array() {
  auto V = std::make_shared<JsonValue>();
  V->Ty = Type::Array;
  return V;
}

JsonRef JsonValue::object() {
  auto V = std::make_shared<JsonValue>();
  V->Ty = Type::Object;
  return V;
}

bool JsonValue::asBool(bool Default) const {
  return Ty == Type::Bool ? B : Default;
}

double JsonValue::asNumber(double Default) const {
  return Ty == Type::Number ? Num : Default;
}

const std::string &JsonValue::asString() const {
  static const std::string Empty;
  return Ty == Type::String ? Str : Empty;
}

JsonRef JsonValue::get(const std::string &Key) const {
  for (const auto &[K, V] : Members)
    if (K == Key)
      return V;
  return null();
}

void JsonValue::set(const std::string &Key, JsonRef V) {
  for (auto &[K, Old] : Members)
    if (K == Key) {
      Old = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

std::string JsonValue::str(const std::string &Key,
                           const std::string &Default) const {
  JsonRef V = get(Key);
  return V->type() == Type::String ? V->asString() : Default;
}

bool JsonValue::has(const std::string &Key) const {
  for (const auto &[K, V] : Members)
    if (K == Key)
      return true;
  return false;
}

std::string xsa::jsonQuote(const std::string &S) {
  std::string Out = "\"";
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
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        // Remaining control characters get the \u form. Format from the
        // unsigned value: char may be signed, and a sign-extended int
        // would print as 8 hex digits.
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        // Bytes >= 0x20 — including DEL and non-ASCII (UTF-8) bytes —
        // are legal in JSON strings and pass through verbatim, so
        // multi-byte sequences round-trip untouched.
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

std::string JsonValue::dump() const {
  switch (Ty) {
  case Type::Null:
    return "null";
  case Type::Bool:
    return B ? "true" : "false";
  case Type::Number: {
    // JSON has no infinities (strtod turns "1e400" into one); print
    // them as null, as JavaScript does, rather than as invalid JSON.
    if (!std::isfinite(Num))
      return "null";
    // Integers (the common case: counters, ids) print without a point.
    // Range first: casting a double past long long's range is undefined.
    if (std::fabs(Num) < 0x1p63 &&
        Num == static_cast<double>(static_cast<long long>(Num))) {
      std::ostringstream OS;
      OS << static_cast<long long>(Num);
      return OS.str();
    }
    std::ostringstream OS;
    OS << Num;
    return OS.str();
  }
  case Type::String:
    return jsonQuote(Str);
  case Type::Array: {
    std::string Out = "[";
    for (size_t I = 0; I < Items.size(); ++I) {
      if (I)
        Out += ',';
      Out += Items[I]->dump();
    }
    return Out + "]";
  }
  case Type::Object: {
    std::string Out = "{";
    bool First = true;
    for (const auto &[K, V] : Members) {
      if (!First)
        Out += ',';
      First = false;
      Out += jsonQuote(K) + ":" + V->dump();
    }
    return Out + "}";
  }
  }
  return "null";
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string &Error, size_t *ErrorByte)
      : Text(Text), Error(Error), ErrorByte(ErrorByte) {}

  JsonRef parse() {
    JsonRef V = value();
    if (!V)
      return nullptr;
    skipWs();
    if (Pos != Text.size()) {
      fail("trailing characters after JSON value");
      return nullptr;
    }
    return V;
  }

private:
  const std::string &Text;
  std::string &Error;
  size_t *ErrorByte;
  size_t Pos = 0;

  void fail(const std::string &Msg) {
    if (Error.empty()) {
      Error = Msg + " at offset " + std::to_string(Pos);
      if (ErrorByte)
        *ErrorByte = Pos;
    }
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t N = std::string(Lit).size();
    if (Text.compare(Pos, N, Lit) == 0) {
      Pos += N;
      return true;
    }
    return false;
  }

  JsonRef value() {
    skipWs();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    char C = Text[Pos];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == 't') {
      if (literal("true"))
        return JsonValue::boolean(true);
      fail("invalid literal");
      return nullptr;
    }
    if (C == 'f') {
      if (literal("false"))
        return JsonValue::boolean(false);
      fail("invalid literal");
      return nullptr;
    }
    if (C == 'n') {
      if (literal("null"))
        return JsonValue::null();
      fail("invalid literal");
      return nullptr;
    }
    return number();
  }

  JsonRef object() {
    ++Pos; // '{'
    JsonRef O = JsonValue::object();
    skipWs();
    if (consume('}'))
      return O;
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        fail("expected object key");
        return nullptr;
      }
      JsonRef K = string();
      if (!K)
        return nullptr;
      if (!consume(':')) {
        fail("expected ':'");
        return nullptr;
      }
      JsonRef V = value();
      if (!V)
        return nullptr;
      O->set(K->asString(), V);
      if (consume(','))
        continue;
      if (consume('}'))
        return O;
      fail("expected ',' or '}'");
      return nullptr;
    }
  }

  JsonRef array() {
    ++Pos; // '['
    JsonRef A = JsonValue::array();
    skipWs();
    if (consume(']'))
      return A;
    while (true) {
      JsonRef V = value();
      if (!V)
        return nullptr;
      A->push(V);
      if (consume(','))
        continue;
      if (consume(']'))
        return A;
      fail("expected ',' or ']'");
      return nullptr;
    }
  }

  JsonRef string() {
    ++Pos; // '"'
    std::string Out;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return JsonValue::string(std::move(Out));
      if (C == '\\') {
        if (Pos >= Text.size())
          break;
        char E = Text[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 > Text.size()) {
            fail("truncated \\u escape");
            return nullptr;
          }
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code += H - '0';
            else if (H >= 'a' && H <= 'f')
              Code += H - 'a' + 10;
            else if (H >= 'A' && H <= 'F')
              Code += H - 'A' + 10;
            else {
              fail("invalid \\u escape");
              return nullptr;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two separate 3-byte sequences; good enough for
          // the batch protocol, which is ASCII in practice).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape");
          return nullptr;
        }
      } else {
        Out += C;
      }
    }
    fail("unterminated string");
    return nullptr;
  }

  JsonRef number() {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      fail("expected a JSON value");
      return nullptr;
    }
    char *End = nullptr;
    std::string Num = Text.substr(Start, Pos - Start);
    double D = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0') {
      fail("malformed number");
      return nullptr;
    }
    return JsonValue::number(D);
  }
};

} // namespace

JsonRef xsa::parseJson(const std::string &Text, std::string &Error,
                       size_t *ErrorByte) {
  Error.clear();
  Parser P(Text, Error, ErrorByte);
  return P.parse();
}
