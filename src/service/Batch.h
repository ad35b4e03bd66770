//===- Batch.h - Batch request pipeline --------------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch entry points of the service layer. A batch is a sequence of
/// AnalysisRequests answered against one AnalysisSession, so shared
/// sub-work is paid once per batch (and per session):
///
///  * each distinct XPath source string is parsed once per context;
///  * each distinct DTD is loaded and compiled to Lµ once per context,
///    no matter how many requests name it;
///  * each semantically distinct satisfiability problem reaches the BDD
///    fixpoint once *per session* — repeated or α-equivalent formulas
///    (duplicate requests, shared containment operands, equivalence
///    directions already asked separately) are answered from the shared
///    sharded result cache, across all workers.
///
/// Every batch runs on the session's worker pool (service/Session.h),
/// one AnalysisContext per worker, at any job count. Responses always
/// come back in input order, and the semantic payload of every response
/// (verdict, model, lean size) is deterministic — independent of the
/// worker count and of the dispatch interleaving — because every
/// context derives the same canonical problems and the solver itself is
/// deterministic. The `cache`, `time_ms`, `iterations` and
/// `iterations_replayed` fields describe *execution* (who hit the shared
/// cache, how long the winning run took, how much of the fixpoint was
/// replayed) and may differ between a parallel and a serial cold run. A
/// request textually identical to one still in flight waits for it and
/// then hits the result cache, so duplicates are reported exactly as a
/// serial run reports them (first one solves, the rest are cache hits).
/// On a warm session every field, timing included, is byte-identical at
/// any job count.
///
/// The JSON-lines front end maps one request object per input line to
/// one response object per output line; see README.md for the schema.
/// Each answer is written, and the stream flushed, as soon as every line
/// before it is answered, so a client that waits for one answer before
/// sending the next line works at any job count. A control line
/// {"op":"config","jobs":N} switches the worker count mid-stream.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_BATCH_H
#define XSA_SERVICE_BATCH_H

#include "service/Json.h"
#include "service/Request.h"
#include "service/Session.h"

#include <atomic>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

namespace xsa {

/// Answers one request against a solver context. Never throws; malformed
/// requests come back with Ok == false and an Error.
AnalysisResponse runRequest(AnalysisContext &Ctx, const AnalysisRequest &Req);

/// Convenience: answers against the session's main context on the
/// calling thread (the serial API; see service/Session.h).
AnalysisResponse runRequest(AnalysisSession &Session,
                            const AnalysisRequest &Req);

/// Answers a whole batch on the session's workers, in input order (see
/// the file comment for the determinism guarantee). The workers are idle
/// again when it returns.
std::vector<AnalysisResponse> runBatch(AnalysisSession &Session,
                                       const std::vector<AnalysisRequest> &Reqs);

/// Decodes a JSON request object:
///   {"op":"contains","id":"q1","e1":"/a//b","e2":"//b","dtd":"xhtml"}
/// Fields: op (sat|empty|contains|overlap|cover|equiv|typecheck|
/// optimize), id, f (Lµ formula, sat), e1/e2 (XPath), others (array of
/// XPath, cover), dtd/dtd1, dtd2, out (typecheck). Returns false and
/// sets \p Error on an unusable request.
bool requestFromJson(const JsonValue &Obj, AnalysisRequest &Req,
                     std::string &Error);

/// Encodes a response as a JSON object (id, ok, error, holds,
/// satisfiable, cache, lean, iterations, iterations_replayed, time_ms,
/// model; optimize responses instead carry optimized, cost_before,
/// cost_after, rewrites and the proof trace). `error` —
/// present exactly when ok is false — is a structured object
/// {"code":...,"message":...}, extended with the 1-based input line and
/// byte offset for protocol-level failures (malformed JSON, oversized
/// lines); see errorObjectJson. With
/// \p IncludeVolatile false the execution-dependent fields (cache,
/// iterations, iterations_replayed, time_ms — in trace entries too) are
/// omitted — the remaining payload is deterministic, which is what
/// `xsolve batch --stable` uses to make output byte-comparable across
/// job counts and runs.
JsonRef responseToJson(const AnalysisResponse &Resp,
                       bool IncludeVolatile = true);

/// Encodes cumulative session statistics.
JsonRef statsToJson(const SessionStats &S);

/// Builds the structured error object every ok=false response carries:
/// {"code":C,"message":M} plus the optional input position. Exposed so
/// the socket server builds its protocol-level rejections (overloaded,
/// deadline_exceeded, draining) through the same encoder.
JsonRef errorObjectJson(const std::string &Code, const std::string &Message,
                        size_t Line = 0, long Byte = -1);

/// The head of a control-op answer, {"id":...,"ok":Ok} (no "id" when
/// \p Req has none); the op appends its own fields.
JsonRef controlResponseJson(const JsonValue &Req, bool Ok = true);

/// Longest accepted namespace name, in bytes: xsolved keeps every
/// namespace, and its metrics series, for its whole life.
constexpr size_t MaxNamespaceBytes = 128;

/// The settings one {"op":"config"} line carries; keys the line leaves
/// out stay unset.
struct ConfigLine {
  std::optional<size_t> Jobs;
  std::optional<bool> Stable;
  std::optional<std::string> Ns;
};

/// Decodes a {"op":"config"} line for `xsolve batch` and xsolved alike.
/// \p Keys names the config keys the caller accepts (a subset of jobs,
/// stable and ns) besides "op" and "id". jobs must be an integer in
/// [0, 2^64), stable a boolean, ns a non-empty string of at most
/// MaxNamespaceBytes bytes. Returns null with
/// \p Out filled when the whole line is valid; otherwise the ok=false
/// response to send (see configErrorJson), with code unknown_config_key
/// or invalid_config_value and the offending key and value, so a
/// rejected line applies nothing.
/// \p Line (1-based; 0 = none) is reported in the error.
JsonRef decodeConfigLine(const JsonValue &Obj,
                         std::initializer_list<const char *> Keys,
                         ConfigLine &Out, size_t Line = 0);

/// The ok=false response to a config line: the line's id, then
/// {"error":{"code","message","line"?,"key","value"?}}. An empty \p Value
/// is left out.
JsonRef configErrorJson(const JsonValue &Obj, const std::string &Code,
                        const std::string &Message, const std::string &Key,
                        const std::string &Value = "", size_t Line = 0);

/// Knobs of the JSON-lines stream driver.
struct BatchStreamOptions {
  /// Deterministic response encoding (see responseToJson).
  bool Stable = false;
  /// Longest accepted input line, in bytes. Longer lines are consumed
  /// and discarded, answered by {"error":{"code":"bad_request",...}}
  /// with the line number. 0 means unbounded.
  size_t MaxLineBytes = size_t(1) << 20;
  /// When non-null and set (e.g. by a SIGINT/SIGTERM handler), the
  /// driver stops reading input at the next line boundary, answers every
  /// line already read, and returns. The caller's normal exit path
  /// (cache save, stats) then runs as usual: an interrupted batch
  /// drains, it does not abort.
  const std::atomic<bool> *Stop = nullptr;
};

/// One input line of a JSON-lines front end (`xsolve batch`, xsolved),
/// decoded by decodeInputLine.
struct InputLine {
  enum class Kind {
    Skip,    ///< blank or #-comment: no answer
    Answer,  ///< a protocol error; Answer holds the response line
    Control, ///< an op of the caller's control set; Obj holds the line
    Request, ///< an analysis request: Req, decoded from Obj
  };
  Kind K = Kind::Skip;
  /// Set for Control and Request, and for an Answer to an object that
  /// did not decode as a request.
  JsonRef Obj;
  AnalysisRequest Req;
  std::string Answer;
};

/// Decodes line \p LineNo (1-based) of a JSON-lines stream; \p Truncated
/// marks a line cut at \p MaxLineBytes. Objects whose op is in
/// \p ControlOps are left to the caller; every other object is decoded
/// as a request. The protocol errors — an over-long line, bad JSON (with
/// line and byte), an undecodable request (with its id and line) — come
/// back encoded as responseToJson encodes them, volatile fields left out
/// when \p Stable.
InputLine decodeInputLine(const std::string &Line, size_t LineNo,
                          bool Truncated, size_t MaxLineBytes, bool Stable,
                          std::initializer_list<std::string_view> ControlOps);

/// JSON-lines driver: reads one request object per non-empty line of
/// \p In, writes one response object per line to \p Out (in input
/// order), each as soon as every line before it is answered. Requests
/// run on the session's workers; at most 4,096 answers wait for an
/// earlier one, and reading pauses while that many do. Unparseable lines
/// produce an {"ok":false} response line, not a stop. A
/// {"op":"config","jobs":N} line answers {"ok":true,"jobs":N} once every
/// line before it is answered, and applies to all subsequent requests;
/// an {"op":"metrics"} line waits the same way. Returns the number of
/// lines answered successfully; \p Failed (when non-null) receives the
/// number that were not (an empty batch is 0/0; config lines count as
/// answered).
size_t runBatchJsonLines(AnalysisSession &Session, std::istream &In,
                         std::ostream &Out, size_t *Failed = nullptr,
                         const BatchStreamOptions &Opts = {});

} // namespace xsa

#endif // XSA_SERVICE_BATCH_H
