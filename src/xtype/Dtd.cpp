//===- Dtd.cpp - DTD parsing -----------------------------------------------===//

#include "xtype/Dtd.h"

#include <cctype>

using namespace xsa;

void Dtd::declare(Symbol Element, ContentRef C) {
  if (!Content.count(Element))
    Elements.push_back(Element);
  Content[Element] = std::move(C);
  if (Root == ~0u)
    Root = Element;
}

namespace {

class DtdParser {
public:
  DtdParser(std::string_view In, Dtd &D, std::string &Error)
      : In(In), D(D), Error(Error) {}

  bool run() {
    for (;;) {
      skipMisc();
      if (Pos >= In.size())
        return true;
      if (startsWith("<!ENTITY")) {
        if (!parseEntity())
          return false;
        continue;
      }
      if (startsWith("<!ELEMENT")) {
        if (!parseElement())
          return false;
        continue;
      }
      if (startsWith("<!ATTLIST")) {
        skipDeclaration();
        continue;
      }
      return fail("unexpected content in DTD");
    }
  }

private:
  bool fail(const std::string &Msg) {
    Error = "dtd parse error at offset " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  bool startsWith(std::string_view S) const {
    return In.substr(Pos, S.size()) == S;
  }

  void skipWs() {
    while (Pos < In.size() && std::isspace(static_cast<unsigned char>(In[Pos])))
      ++Pos;
  }

  void skipMisc() {
    for (;;) {
      skipWs();
      if (startsWith("<!--")) {
        size_t End = In.find("-->", Pos + 4);
        Pos = End == std::string_view::npos ? In.size() : End + 3;
        continue;
      }
      if (startsWith("<?")) {
        size_t End = In.find("?>", Pos);
        Pos = End == std::string_view::npos ? In.size() : End + 2;
        continue;
      }
      return;
    }
  }

  void skipDeclaration() {
    size_t End = In.find('>', Pos);
    Pos = End == std::string_view::npos ? In.size() : End + 1;
  }

  static bool isNameChar(char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '-' ||
           C == '_' || C == '.' || C == ':';
  }

  std::string parseName() {
    skipWs();
    size_t Start = Pos;
    while (Pos < In.size() && isNameChar(In[Pos]))
      ++Pos;
    return std::string(In.substr(Start, Pos - Start));
  }

  /// <!ENTITY % name "replacement">
  bool parseEntity() {
    Pos += 8; // "<!ENTITY"
    skipWs();
    if (Pos >= In.size() || In[Pos] != '%')
      // General entities are irrelevant for structure: skip.
      return skipDeclaration(), true;
    ++Pos;
    std::string Name = parseName();
    if (Name.empty())
      return fail("expected parameter entity name");
    skipWs();
    if (Pos >= In.size() || (In[Pos] != '"' && In[Pos] != '\''))
      return fail("expected quoted entity value");
    char Quote = In[Pos++];
    size_t Start = Pos;
    while (Pos < In.size() && In[Pos] != Quote)
      ++Pos;
    if (Pos >= In.size())
      return fail("unterminated entity value");
    Entities[Name] = std::string(In.substr(Start, Pos - Start));
    ++Pos;
    skipWs();
    if (Pos < In.size() && In[Pos] == '>')
      ++Pos;
    return true;
  }

  /// Expands %name; references (iteratively, entities may nest).
  bool expandEntities(std::string &S) {
    for (int Guard = 0; Guard < 64; ++Guard) {
      size_t P = S.find('%');
      if (P == std::string::npos)
        return true;
      size_t E = S.find(';', P);
      if (E == std::string::npos)
        return fail("malformed parameter entity reference");
      std::string Name = S.substr(P + 1, E - P - 1);
      auto It = Entities.find(Name);
      if (It == Entities.end())
        return fail("undefined parameter entity %" + Name + ";");
      S = S.substr(0, P) + " " + It->second + " " + S.substr(E + 1);
    }
    return fail("parameter entities nested too deeply");
  }

  /// <!ELEMENT name content>
  bool parseElement() {
    Pos += 9; // "<!ELEMENT"
    skipWs();
    std::string RawName = parseName();
    if (RawName.empty())
      return fail("expected element name");
    // The element name itself may be an entity reference in real DTDs;
    // we only support literal names.
    size_t End = In.find('>', Pos);
    if (End == std::string_view::npos)
      return fail("unterminated <!ELEMENT>");
    std::string Body(In.substr(Pos, End - Pos));
    Pos = End + 1;
    if (!expandEntities(Body))
      return false;
    ContentRef C = parseContentModel(Body);
    if (!C)
      return false;
    D.declare(RawName, C);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Content model sub-parser (operates on the entity-expanded body).
  //===--------------------------------------------------------------------===//

  struct CMParser {
    std::string_view S;
    size_t P = 0;
    std::string Err;

    void skipWs() {
      while (P < S.size() && std::isspace(static_cast<unsigned char>(S[P])))
        ++P;
    }
    bool starts(std::string_view W) { return S.substr(P, W.size()) == W; }
    std::string name() {
      skipWs();
      size_t Start = P;
      while (P < S.size() && isNameChar(S[P]))
        ++P;
      return std::string(S.substr(Start, P - Start));
    }

    ContentRef postfix(ContentRef C) {
      skipWs();
      if (P < S.size()) {
        if (S[P] == '*') {
          ++P;
          return ContentModel::star(std::move(C));
        }
        if (S[P] == '+') {
          ++P;
          return ContentModel::plus(std::move(C));
        }
        if (S[P] == '?') {
          ++P;
          return ContentModel::opt(std::move(C));
        }
      }
      return C;
    }

    ContentRef primary() {
      skipWs();
      if (P < S.size() && S[P] == '(') {
        ++P;
        ContentRef C = group();
        if (!C)
          return nullptr;
        skipWs();
        if (P >= S.size() || S[P] != ')') {
          Err = "expected ')' in content model";
          return nullptr;
        }
        ++P;
        return postfix(std::move(C));
      }
      if (starts("#PCDATA")) {
        P += 7;
        return ContentModel::eps();
      }
      std::string N = name();
      if (N.empty()) {
        Err = "expected a name in content model";
        return nullptr;
      }
      return postfix(ContentModel::sym(N));
    }

    /// group := item ((',' item)* | ('|' item)*)
    ContentRef group() {
      ContentRef L = primary();
      if (!L)
        return nullptr;
      skipWs();
      if (P < S.size() && S[P] == ',') {
        while (P < S.size() && S[P] == ',') {
          ++P;
          ContentRef R = primary();
          if (!R)
            return nullptr;
          L = ContentModel::seq(std::move(L), std::move(R));
          skipWs();
        }
        return L;
      }
      while (P < S.size() && S[P] == '|') {
        ++P;
        ContentRef R = primary();
        if (!R)
          return nullptr;
        // Mixed content (#PCDATA | a | ...): ε | a ≡ a? at the sequence
        // level; the enclosing * handles repetition. ε as a choice
        // operand is simply dropped in favor of optionality.
        if (L->K == ContentModel::Eps)
          L = ContentModel::opt(std::move(R));
        else if (R->K == ContentModel::Eps)
          L = ContentModel::opt(std::move(L));
        else
          L = ContentModel::choice(std::move(L), std::move(R));
        skipWs();
      }
      return L;
    }

    ContentRef run() {
      skipWs();
      if (starts("EMPTY")) {
        P += 5;
        return ContentModel::eps();
      }
      if (starts("ANY")) {
        P += 3;
        Err = "#ANY"; // resolved by the caller against all elements
        return nullptr;
      }
      ContentRef C = group();
      if (!C)
        return nullptr;
      skipWs();
      if (P != S.size()) {
        Err = "trailing content in content model";
        return nullptr;
      }
      return C;
    }
  };

  ContentRef parseContentModel(const std::string &Body) {
    CMParser CP;
    CP.S = Body;
    ContentRef C = CP.run();
    if (!C) {
      if (CP.Err == "#ANY") {
        // None of the DTDs this project targets (Wikipedia, SMIL 1.0,
        // XHTML 1.0 Strict) uses ANY; reject it with a clear message
        // rather than approximating.
        fail("ANY content models are not supported");
        return nullptr;
      }
      fail(CP.Err);
      return nullptr;
    }
    return C;
  }

  std::string_view In;
  size_t Pos = 0;
  Dtd &D;
  std::string &Error;
  std::unordered_map<std::string, std::string> Entities;
};

} // namespace

bool xsa::parseDtd(std::string_view Input, Dtd &D, std::string &Error) {
  Error.clear();
  DtdParser P(Input, D, Error);
  if (!P.run())
    return false;
  // A type needs a root, and every element a content model names needs a
  // model of its own. Declarations may come in any order, so this is
  // checked once the whole DTD is read.
  if (D.elements().empty()) {
    Error = "dtd error: no element is declared";
    return false;
  }
  for (Symbol E : D.elements())
    for (Symbol Child : contentSymbols(D.content(E)))
      if (!D.isDeclared(Child)) {
        Error = "dtd error: element '" + symbolName(Child) +
                "' is used in the content model of '" + symbolName(E) +
                "' but never declared";
        return false;
      }
  return true;
}
