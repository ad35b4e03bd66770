//===- BuiltinDtds.cpp - DTDs used in the paper's experiments --------------===//

#include "xtype/BuiltinDtds.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace xsa;

namespace {

/// Reads the regular file \p Path whole into \p Text; see loadDtd.
bool readDtdFile(const std::string &Path, std::string &Text,
                 std::string &Error) {
  auto Fail = [&](const std::string &Why) {
    Error = "cannot read DTD " + Path + ": " + Why;
    return false;
  };
  auto Errno = [] { return std::generic_category().message(errno); };
  int Fd = ::open(Path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (Fd < 0)
    return Fail(Errno());
  struct stat St;
  bool Ok = true;
  if (::fstat(Fd, &St) != 0)
    Ok = Fail(Errno());
  else if (!S_ISREG(St.st_mode))
    Ok = Fail("not a regular file");
  char Buf[1 << 16];
  while (Ok) {
    ssize_t N = ::read(Fd, Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      Ok = Fail(Errno());
    else if (N == 0)
      break;
    else if (Text.size() + static_cast<size_t>(N) > MaxDtdFileBytes)
      Ok = Fail("larger than " + std::to_string(MaxDtdFileBytes) + " bytes");
    else
      Text.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  return Ok;
}

const Dtd &parseBuiltin(const char *Name, const char *Text, const char *Root) {
  auto *D = new Dtd(); // intentionally immortal (function-local static use)
  std::string Error;
  if (!parseDtd(Text, *D, Error)) {
    std::fprintf(stderr, "internal error: builtin DTD %s: %s\n", Name,
                 Error.c_str());
    std::abort();
  }
  D->setRoot(Root);
  return *D;
}

// Figure 12 of the paper, verbatim.
const char WikipediaDtdText[] = R"dtd(
<!ELEMENT article (meta, (text | redirect))>
<!ELEMENT meta (title, status?, interwiki*, history?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT interwiki (#PCDATA)>
<!ELEMENT status (#PCDATA)>
<!ELEMENT history (edit)+>
<!ELEMENT edit (status?, interwiki*, (text | redirect)?)>
<!ELEMENT redirect EMPTY>
<!ELEMENT text (#PCDATA)>
)dtd";

// SMIL 1.0 (W3C REC-smil-19980615), structure only. 19 element symbols.
const char Smil10DtdText[] = R"dtd(
<!ENTITY % content-control "(switch)">
<!ENTITY % media-object "(audio | video | text | img | animation | textstream | ref)">
<!ENTITY % schedule "(par | seq | %media-object;)">
<!ENTITY % inline-link "(a)">
<!ENTITY % assoc-link "(anchor)">
<!ENTITY % container-content "(%schedule; | %content-control; | %inline-link;)">

<!ELEMENT smil (head?, body?)>
<!ELEMENT head (meta*, (layout | switch)?, meta*)>
<!ELEMENT layout (region | root-layout)*>
<!ELEMENT region EMPTY>
<!ELEMENT root-layout EMPTY>
<!ELEMENT meta EMPTY>
<!ELEMENT body (%container-content;)*>
<!ELEMENT par (%container-content;)*>
<!ELEMENT seq (%container-content;)*>
<!ELEMENT switch (%container-content; | layout)*>
<!ELEMENT a (%schedule; | %content-control;)*>
<!ELEMENT audio (%assoc-link; | %content-control;)*>
<!ELEMENT video (%assoc-link; | %content-control;)*>
<!ELEMENT text (%assoc-link; | %content-control;)*>
<!ELEMENT img (%assoc-link; | %content-control;)*>
<!ELEMENT animation (%assoc-link; | %content-control;)*>
<!ELEMENT textstream (%assoc-link; | %content-control;)*>
<!ELEMENT ref (%assoc-link; | %content-control;)*>
<!ELEMENT anchor EMPTY>
)dtd";

// XHTML 1.0 Strict (W3C xhtml1-strict.dtd), structure only, parameter
// entities inlined as in the original. 77 element symbols. Note that the
// content of <a> excludes <a> directly (a.content has no %inline;), while
// nested anchors remain expressible through, e.g., <span> — the property
// probed by the paper's query e8 = descendant::a[ancestor::a].
const char Xhtml10StrictDtdText[] = R"dtd(
<!ENTITY % special.pre "br | span | bdo | map">
<!ENTITY % special "%special.pre; | object | img">
<!ENTITY % fontstyle "tt | i | b | big | small">
<!ENTITY % phrase "em | strong | dfn | code | q | samp | kbd | var | cite | abbr | acronym | sub | sup">
<!ENTITY % inline.forms "input | select | textarea | label | button">
<!ENTITY % misc.inline "ins | del | script">
<!ENTITY % misc "noscript | %misc.inline;">
<!ENTITY % inline "a | %special; | %fontstyle; | %phrase; | %inline.forms;">
<!ENTITY % Inline "(#PCDATA | %inline; | %misc.inline;)*">
<!ENTITY % heading "h1|h2|h3|h4|h5|h6">
<!ENTITY % lists "ul | ol | dl">
<!ENTITY % blocktext "pre | hr | blockquote | address">
<!ENTITY % block "p | %heading; | div | %lists; | %blocktext; | fieldset | table">
<!ENTITY % Block "(%block; | form | %misc;)*">
<!ENTITY % Flow "(#PCDATA | %block; | form | %inline; | %misc;)*">
<!ENTITY % a.content "(#PCDATA | %special; | %fontstyle; | %phrase; | %inline.forms; | %misc.inline;)*">
<!ENTITY % pre.content "(#PCDATA | a | %fontstyle; | %phrase; | %special.pre; | %misc.inline; | %inline.forms;)*">
<!ENTITY % form.content "(%block; | %misc;)*">
<!ENTITY % button.content "(#PCDATA | p | %heading; | div | %lists; | %blocktext; | table | %special; | %fontstyle; | %phrase; | %misc;)*">
<!ENTITY % head.misc "(script|style|meta|link|object)*">

<!ELEMENT html (head, body)>
<!ELEMENT head (%head.misc;, ((title, %head.misc;, (base, %head.misc;)?) | (base, %head.misc;, (title, %head.misc;))))>
<!ELEMENT title (#PCDATA)>
<!ELEMENT base EMPTY>
<!ELEMENT meta EMPTY>
<!ELEMENT link EMPTY>
<!ELEMENT style (#PCDATA)>
<!ELEMENT script (#PCDATA)>
<!ELEMENT noscript %Block;>
<!ELEMENT body %Block;>
<!ELEMENT div %Flow;>
<!ELEMENT p %Inline;>
<!ELEMENT h1 %Inline;>
<!ELEMENT h2 %Inline;>
<!ELEMENT h3 %Inline;>
<!ELEMENT h4 %Inline;>
<!ELEMENT h5 %Inline;>
<!ELEMENT h6 %Inline;>
<!ELEMENT ul (li)+>
<!ELEMENT ol (li)+>
<!ELEMENT li %Flow;>
<!ELEMENT dl (dt|dd)+>
<!ELEMENT dt %Inline;>
<!ELEMENT dd %Flow;>
<!ELEMENT address %Inline;>
<!ELEMENT hr EMPTY>
<!ELEMENT pre %pre.content;>
<!ELEMENT blockquote %Block;>
<!ELEMENT ins %Flow;>
<!ELEMENT del %Flow;>
<!ELEMENT a %a.content;>
<!ELEMENT span %Inline;>
<!ELEMENT bdo %Inline;>
<!ELEMENT br EMPTY>
<!ELEMENT em %Inline;>
<!ELEMENT strong %Inline;>
<!ELEMENT dfn %Inline;>
<!ELEMENT code %Inline;>
<!ELEMENT samp %Inline;>
<!ELEMENT kbd %Inline;>
<!ELEMENT var %Inline;>
<!ELEMENT cite %Inline;>
<!ELEMENT abbr %Inline;>
<!ELEMENT acronym %Inline;>
<!ELEMENT q %Inline;>
<!ELEMENT sub %Inline;>
<!ELEMENT sup %Inline;>
<!ELEMENT tt %Inline;>
<!ELEMENT i %Inline;>
<!ELEMENT b %Inline;>
<!ELEMENT big %Inline;>
<!ELEMENT small %Inline;>
<!ELEMENT object (#PCDATA | param | %block; | form | %inline; | %misc;)*>
<!ELEMENT param EMPTY>
<!ELEMENT img EMPTY>
<!ELEMENT map ((%block; | form | %misc;)+ | area+)>
<!ELEMENT area EMPTY>
<!ELEMENT form %form.content;>
<!ELEMENT label %Inline;>
<!ELEMENT input EMPTY>
<!ELEMENT select (optgroup|option)+>
<!ELEMENT optgroup (option)+>
<!ELEMENT option (#PCDATA)>
<!ELEMENT textarea (#PCDATA)>
<!ELEMENT fieldset (#PCDATA | legend | %block; | form | %inline; | %misc;)*>
<!ELEMENT legend %Inline;>
<!ELEMENT button %button.content;>
<!ELEMENT table (caption?, (col*|colgroup*), thead?, tfoot?, (tbody+|tr+))>
<!ELEMENT caption %Inline;>
<!ELEMENT thead (tr)+>
<!ELEMENT tfoot (tr)+>
<!ELEMENT tbody (tr)+>
<!ELEMENT colgroup (col)*>
<!ELEMENT col EMPTY>
<!ELEMENT tr (th|td)+>
<!ELEMENT th %Flow;>
<!ELEMENT td %Flow;>
)dtd";

} // namespace

const Dtd &xsa::wikipediaDtd() {
  static const Dtd &D = parseBuiltin("wikipedia", WikipediaDtdText, "article");
  return D;
}

const Dtd &xsa::smil10Dtd() {
  static const Dtd &D = parseBuiltin("smil-1.0", Smil10DtdText, "smil");
  return D;
}

const Dtd &xsa::xhtml10StrictDtd() {
  static const Dtd &D =
      parseBuiltin("xhtml-1.0-strict", Xhtml10StrictDtdText, "html");
  return D;
}

const Dtd *xsa::loadDtd(const std::string &Name, Dtd &Storage,
                        std::string &Error) {
  if (Name == "wikipedia")
    return &wikipediaDtd();
  if (Name == "smil")
    return &smil10Dtd();
  if (Name == "xhtml")
    return &xhtml10StrictDtd();
  std::string Text;
  if (!readDtdFile(Name, Text, Error) || !parseDtd(Text, Storage, Error))
    return nullptr;
  return &Storage;
}
