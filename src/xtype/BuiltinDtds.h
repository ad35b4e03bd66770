//===- BuiltinDtds.h - DTDs used in the paper's experiments ------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three document types used in the paper, and the one loader that
/// resolves a DTD name — builtin or file — for every front end.
///
/// The builtins:
///
///  * the Wikipedia DTD fragment of Figure 12 (verbatim);
///  * SMIL 1.0 (19 element symbols — Table 1), transcribed from the W3C
///    DTD with attribute declarations dropped;
///  * XHTML 1.0 Strict (77 element symbols — Table 1), transcribed from
///    the W3C DTD with parameter entities inlined as entities and
///    attribute declarations dropped. Crucially for the paper's e8
///    experiment, `a` excludes itself *directly* from its content but
///    nested anchors remain reachable through other inline elements.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_XTYPE_BUILTINDTDS_H
#define XSA_XTYPE_BUILTINDTDS_H

#include "xtype/Dtd.h"

namespace xsa {

/// Figure 12: the Wikipedia encyclopedia DTD fragment (root: article).
const Dtd &wikipediaDtd();

/// SMIL 1.0 structure (root: smil).
const Dtd &smil10Dtd();

/// XHTML 1.0 Strict structure (root: html).
const Dtd &xhtml10StrictDtd();

/// Longest DTD file loadDtd reads, in bytes.
constexpr size_t MaxDtdFileBytes = size_t(1) << 20;

/// The DTD \p Name names: a builtin ("wikipedia", "smil", "xhtml"), or
/// else a file path, parsed into \p Storage. Requests name paths on
/// behalf of remote clients, so a file is opened non-blocking and read
/// only when it is a regular file, and at most MaxDtdFileBytes of it,
/// counted while reading: a FIFO or a device is refused at once instead
/// of blocking the caller or reading without end. Returns null with
/// \p Error naming the path and the reason when the file is refused,
/// unreadable or not a valid DTD.
const Dtd *loadDtd(const std::string &Name, Dtd &Storage, std::string &Error);

} // namespace xsa

#endif // XSA_XTYPE_BUILTINDTDS_H
