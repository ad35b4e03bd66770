//===- Json.h - Minimal JSON reader/writer -----------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON value type with a recursive-descent
/// parser and a serializer — just enough for the JSON-lines batch
/// protocol of the service layer (objects, arrays, strings with the
/// standard escapes, numbers, booleans, null). Not a general-purpose
/// library: no comments, no trailing commas, doubles only.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_JSON_H
#define XSA_SERVICE_JSON_H

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace xsa {

class JsonValue;
using JsonRef = std::shared_ptr<JsonValue>;

class JsonValue {
public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type() const { return Ty; }
  bool isNull() const { return Ty == Type::Null; }

  static JsonRef null();
  static JsonRef boolean(bool B);
  static JsonRef number(double N);
  static JsonRef string(std::string S);
  static JsonRef array();
  static JsonRef object();

  bool asBool(bool Default = false) const;
  double asNumber(double Default = 0) const;
  const std::string &asString() const; ///< "" unless a String

  /// Array access ([] out of range → null).
  const std::vector<JsonRef> &items() const { return Items; }
  void push(JsonRef V) { Items.push_back(std::move(V)); }

  /// Object access (missing key → null ref, safe to chain).
  JsonRef get(const std::string &Key) const;
  void set(const std::string &Key, JsonRef V);
  const std::vector<std::pair<std::string, JsonRef>> &members() const {
    return Members;
  }

  /// Convenience accessors for the batch protocol.
  std::string str(const std::string &Key,
                  const std::string &Default = "") const;
  bool has(const std::string &Key) const;

  /// Compact single-line serialization.
  std::string dump() const;

private:
  Type Ty = Type::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonRef> Items;
  /// Insertion-ordered, as emitted.
  std::vector<std::pair<std::string, JsonRef>> Members;
};

/// Parses one JSON document from \p Text. Returns null and sets
/// \p Error on malformed input (trailing garbage is an error). When
/// \p ErrorByte is non-null it receives the byte offset into \p Text at
/// which parsing failed — what the batch protocol's structured
/// bad_request responses report alongside the line number.
JsonRef parseJson(const std::string &Text, std::string &Error,
                  size_t *ErrorByte = nullptr);

/// Escapes \p S as a JSON string literal including the quotes.
std::string jsonQuote(const std::string &S);

/// \p V truncated toward zero and clamped to T's range, with NaN reading
/// as T's minimum. Numbers from clients go through this before an
/// integer cast: a plain static_cast of a value outside the target's
/// range — such as the infinity that "1e400" parses to — is undefined.
template <typename T> T clampedInteger(double V) {
  constexpr T Lo = std::numeric_limits<T>::min();
  constexpr T Hi = std::numeric_limits<T>::max();
  if (!(V > static_cast<double>(Lo)))
    return Lo;
  if (V >= static_cast<double>(Hi))
    return Hi;
  return static_cast<T>(V);
}

} // namespace xsa

#endif // XSA_SERVICE_JSON_H
