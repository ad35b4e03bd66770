//===- Batch.cpp - Batch request pipeline ----------------------------------===//

#include "service/Batch.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/KeyEncoding.h"

#include "logic/CycleFree.h"
#include "logic/Parser.h"
#include "tree/Xml.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <unordered_map>

using namespace xsa;

bool xsa::parseRequestKind(const std::string &Name, RequestKind &Kind) {
  if (Name == "sat")
    Kind = RequestKind::Sat;
  else if (Name == "empty")
    Kind = RequestKind::Emptiness;
  else if (Name == "contains")
    Kind = RequestKind::Containment;
  else if (Name == "overlap")
    Kind = RequestKind::Overlap;
  else if (Name == "cover")
    Kind = RequestKind::Coverage;
  else if (Name == "equiv")
    Kind = RequestKind::Equivalence;
  else if (Name == "typecheck")
    Kind = RequestKind::TypeCheck;
  else if (Name == "optimize")
    Kind = RequestKind::Optimize;
  else
    return false;
  return true;
}

const char *xsa::requestKindName(RequestKind K) {
  switch (K) {
  case RequestKind::Sat:
    return "sat";
  case RequestKind::Emptiness:
    return "empty";
  case RequestKind::Containment:
    return "contains";
  case RequestKind::Overlap:
    return "overlap";
  case RequestKind::Coverage:
    return "cover";
  case RequestKind::Equivalence:
    return "equiv";
  case RequestKind::TypeCheck:
    return "typecheck";
  case RequestKind::Optimize:
    return "optimize";
  }
  return "?";
}

namespace {

AnalysisResponse errorResponse(const AnalysisRequest &Req, std::string Msg) {
  AnalysisResponse R;
  R.Kind = Req.Kind;
  R.Id = Req.Id;
  R.Ok = false;
  R.Error = std::move(Msg);
  return R;
}

/// Resolves a query string through the context memo, or fails.
bool resolveQuery(AnalysisContext &Ctx, const std::string &Src,
                  const char *Which, ExprRef &E, std::string &Error) {
  if (Src.empty()) {
    Error = std::string("missing query ") + Which;
    return false;
  }
  std::string ParseError;
  E = Ctx.query(Src, ParseError);
  if (!E) {
    Error = std::string(Which) + ": " + ParseError;
    return false;
  }
  return true;
}

bool resolveContext(AnalysisContext &Ctx, const std::string &Name,
                    Formula &Chi, std::string &Error) {
  std::string DtdError;
  Chi = Ctx.typeContext(Name, DtdError);
  if (!Chi) {
    Error = DtdError;
    return false;
  }
  return true;
}

/// \p HoldsWhenUnsat mirrors Analyzer::fromSolver: for the unsat-style
/// problems the property holds when the underlying formula is
/// unsatisfiable, for overlap when it is satisfiable.
void fillFromAnalysis(AnalysisResponse &R, const AnalysisResult &A,
                      bool HoldsWhenUnsat) {
  R.Ok = true;
  R.Holds = A.Holds;
  R.Satisfiable = HoldsWhenUnsat ? !A.Holds : A.Holds;
  R.FromCache = A.FromCache;
  R.Stats = A.Stats;
  if (A.Tree)
    R.ModelXml = printXml(*A.Tree, A.Target);
}

/// Identity of a request up to textual equality of every field that can
/// influence the answer (everything but Id). A request identical to one
/// still in flight waits for it and then hits the result cache, exactly
/// as in a serial run (see OrderedRun::solve).
std::string requestSignature(const AnalysisRequest &Req) {
  // Fields are length-prefixed, so the signature is injective for
  // arbitrary field bytes — even malformed requests (whose text the
  // parser will reject, but which must not collide with a well-formed
  // request's signature before that happens). Well-formed XPath cannot
  // contain control characters (the parser rejects them in quoted
  // names), but the signature does not rely on it.
  std::string S;
  S += static_cast<char>('0' + static_cast<int>(Req.Kind));
  auto Add = [&S](const std::string &F) { appendLengthPrefixed(S, F); };
  Add(Req.Formula);
  Add(Req.Query1);
  Add(Req.Query2);
  Add(Req.Dtd1);
  Add(Req.Dtd2);
  Add(Req.OutDtd);
  for (const std::string &O : Req.Others)
    Add(O);
  return S;
}

/// The uninstrumented request dispatch — the wrapper below brackets it
/// with the request span, stage aggregation, and latency metrics.
AnalysisResponse runRequestImpl(AnalysisContext &Ctx,
                                const AnalysisRequest &Req) {
  AnalysisResponse R;
  R.Kind = Req.Kind;
  R.Id = Req.Id;
  std::string Error;

  if (Req.Kind == RequestKind::Sat) {
    Formula F = parseFormula(Ctx.factory(), Req.Formula, Error);
    if (!F)
      return errorResponse(Req, "formula: " + Error);
    if (!isCycleFree(F))
      return errorResponse(Req, "formula is not cycle free");
    SolverResult SR = Ctx.satisfiable(F);
    R.Ok = true;
    R.Satisfiable = SR.Satisfiable;
    R.Holds = SR.Satisfiable;
    R.FromCache = SR.FromCache;
    R.Stats = SR.Stats;
    if (SR.Model)
      R.ModelXml = printXml(*SR.Model);
    return R;
  }

  // Optimize requests report the solver-verified rewrite itself, with
  // its proof trace.
  if (Req.Kind == RequestKind::Optimize) {
    if (Req.Query1.empty())
      return errorResponse(Req, "missing query e1");
    const auto OE = Ctx.optimized(Req.Query1, Req.Dtd1);
    if (!OE->Ok)
      return errorResponse(Req, OE->Error);
    R.Ok = true;
    R.Optimized = OE->Result.text();
    R.CostBefore = OE->Result.OriginalCost;
    R.CostAfter = OE->Result.OptimizedCost;
    R.Trace = OE->Result.Trace;
    return R;
  }

  ExprRef E1;
  if (!resolveQuery(Ctx, Req.Query1, "e1", E1, Error))
    return errorResponse(Req, Error);
  Formula Chi1;
  if (!resolveContext(Ctx, Req.Dtd1, Chi1, Error))
    return errorResponse(Req, Error);
  // An absent dtd2 inherits dtd1: the common "same schema on both sides"
  // case.
  const std::string &Dtd2 = Req.Dtd2.empty() ? Req.Dtd1 : Req.Dtd2;

  Analyzer &An = Ctx.analyzer();
  switch (Req.Kind) {
  case RequestKind::Sat:
  case RequestKind::Optimize:
    break; // handled above
  case RequestKind::Emptiness:
    fillFromAnalysis(R, An.emptiness(E1, Chi1), /*HoldsWhenUnsat=*/true);
    break;
  case RequestKind::Containment:
  case RequestKind::Overlap:
  case RequestKind::Equivalence: {
    ExprRef E2;
    if (!resolveQuery(Ctx, Req.Query2, "e2", E2, Error))
      return errorResponse(Req, Error);
    Formula Chi2;
    if (!resolveContext(Ctx, Dtd2, Chi2, Error))
      return errorResponse(Req, Error);
    if (Req.Kind == RequestKind::Containment)
      fillFromAnalysis(R, An.containment(E1, Chi1, E2, Chi2),
                       /*HoldsWhenUnsat=*/true);
    else if (Req.Kind == RequestKind::Overlap)
      fillFromAnalysis(R, An.overlap(E1, Chi1, E2, Chi2),
                       /*HoldsWhenUnsat=*/false);
    else
      fillFromAnalysis(R, An.equivalence(E1, Chi1, E2, Chi2),
                       /*HoldsWhenUnsat=*/true);
    break;
  }
  case RequestKind::Coverage: {
    if (Req.Others.empty())
      return errorResponse(Req, "cover needs a non-empty 'others' array");
    std::vector<ExprRef> Others;
    std::vector<Formula> OtherChis;
    for (const std::string &Other : Req.Others) {
      ExprRef E;
      if (!resolveQuery(Ctx, Other, "others", E, Error))
        return errorResponse(Req, Error);
      Others.push_back(E);
      OtherChis.push_back(Chi1);
    }
    fillFromAnalysis(R, An.coverage(E1, Chi1, Others, OtherChis),
                     /*HoldsWhenUnsat=*/true);
    break;
  }
  case RequestKind::TypeCheck: {
    if (Req.OutDtd.empty())
      return errorResponse(Req, "typecheck needs an output type 'out'");
    std::string DtdError;
    Formula OutType = Ctx.typeFormula(Req.OutDtd, DtdError);
    if (!OutType)
      return errorResponse(Req, DtdError);
    fillFromAnalysis(R, An.staticTypeCheck(E1, Chi1, OutType),
                     /*HoldsWhenUnsat=*/true);
    break;
  }
  }
  return R;
}

/// Per-kind request tallies: `xsa_requests_total{op="..."}`. Registered
/// once; the per-request path is one relaxed fetch_add.
Counter &requestCounter(RequestKind K) {
  static const std::array<Counter *, 8> ByKind = [] {
    std::array<Counter *, 8> A{};
    for (size_t I = 0; I < A.size(); ++I)
      A[I] = &MetricRegistry::global().counter(
          labeledMetricName("xsa_requests_total", "op",
                            requestKindName(static_cast<RequestKind>(I))),
          "Requests answered, by operation");
    return A;
  }();
  return *ByKind[static_cast<size_t>(K)];
}

} // namespace

AnalysisResponse xsa::runRequest(AnalysisContext &Ctx,
                                 const AnalysisRequest &Req) {
  static Histogram &Latency = MetricRegistry::global().histogram(
      "xsa_request_latency_ms",
      "End-to-end per-request latency including cache hits");
  static Counter &ErrorsTotal = MetricRegistry::global().counter(
      "xsa_request_errors_total", "Requests answered with ok=false");
  auto T0 = std::chrono::steady_clock::now();
  AnalysisResponse R;
  Tracer &T = Tracer::global();
  if (T.enabled() || T.stageCaptureEnabled()) {
    // The request span's own total doubles as the wall-time row of the
    // per-request breakdown; nested spans add their stage rows. In
    // stage-capture mode (the server's always-on slow-query recorder)
    // the same structure accumulates totals without buffering events.
    StageTotals Totals;
    {
      StageScope Scope(Totals);
      Span ReqSpan("request");
      ReqSpan.arg("op", requestKindName(Req.Kind));
      if (!Req.TraceId.empty())
        ReqSpan.arg("rid", Req.TraceId);
      R = runRequestImpl(Ctx, Req);
      ReqSpan.arg("ok", R.Ok ? 1 : 0);
    }
    R.StageMs = Totals.toMs();
  } else {
    R = runRequestImpl(Ctx, Req);
  }
  R.Rid = Req.TraceId;
  Latency.observe(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count());
  requestCounter(Req.Kind).add();
  if (!R.Ok)
    ErrorsTotal.add();
  return R;
}

AnalysisResponse xsa::runRequest(AnalysisSession &Session,
                                 const AnalysisRequest &Req) {
  return runRequest(Session.mainContext(), Req);
}

namespace {

/// Most answers a batch holds back at once, waiting for an earlier line's
/// answer: the reader blocks for room beyond this.
constexpr size_t MaxUnanswered = 4096;

/// One batch on the session's workers. The reader reserves an output
/// position for each line that gets an answer, in input order, then
/// either answers it at once or hands its request to solve(). Answers
/// are released in input order: whichever thread completes the one at
/// the head emits it and every later one already complete, so output
/// streams at any job count.
template <typename Answer> class OrderedRun {
public:
  using EncodeFn = std::function<Answer(AnalysisResponse)>;
  /// Receives answers in input order, one call at a time.
  using EmitFn = std::function<void(std::vector<Answer> &)>;

  OrderedRun(AnalysisSession &Session, EncodeFn Encode, EmitFn Emit)
      : Session(Session), Encode(std::move(Encode)), Emit(std::move(Emit)) {}
  /// Workers hold its address.
  OrderedRun(const OrderedRun &) = delete;
  OrderedRun &operator=(const OrderedRun &) = delete;

  /// The next output position; waits while MaxUnanswered are pending.
  size_t reserve() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Slots.size() < MaxUnanswered; });
    Slots.emplace_back();
    return Released + Slots.size() - 1;
  }

  void answer(size_t Pos, Answer A) {
    std::unique_lock<std::mutex> L(M);
    Slots[Pos - Released] = std::move(A);
    if (Emitting)
      return; // the emitting thread picks it up
    Emitting = true;
    std::vector<Answer> Ready;
    while (!Slots.empty() && Slots.front()) {
      while (!Slots.empty() && Slots.front()) {
        Ready.push_back(std::move(*Slots.front()));
        Slots.pop_front();
        ++Released;
      }
      L.unlock();
      Emit(Ready);
      Ready.clear();
      L.lock();
    }
    Emitting = false;
    // Under the lock: once drain() sees the run idle it may destroy it.
    Cv.notify_all();
  }

  /// Answers position \p Pos with \p Req's response, computed on a
  /// worker. A request textually identical to one still in flight waits
  /// for it, then runs on the same context and hits the result cache:
  /// the first occurrence solves and the rest report a hit, as serially.
  void solve(size_t Pos, AnalysisRequest Req) {
    std::string Sig = requestSignature(Req);
    {
      std::lock_guard<std::mutex> L(M);
      auto [It, First] = InFlight.try_emplace(Sig);
      if (!First) {
        It->second.emplace_back(Pos, std::move(Req));
        return;
      }
    }
    // Kept for the answer to a refused job, once Req has moved into it.
    RequestKind Kind = Req.Kind;
    std::string Id = Req.Id;
    auto Job = [this, Pos, Sig, Req = std::move(Req)](AnalysisContext &Ctx) {
      Answer A = Encode(runRequest(Ctx, Req));
      std::vector<std::pair<size_t, AnalysisRequest>> Waiting;
      {
        std::lock_guard<std::mutex> L(M);
        auto It = InFlight.find(Sig);
        Waiting = std::move(It->second);
        InFlight.erase(It);
      }
      // Nothing of this run is touched after the last answer.
      answer(Pos, std::move(A));
      for (auto &[WaitPos, WaitReq] : Waiting)
        answer(WaitPos, Encode(runRequest(Ctx, WaitReq)));
    };
    if (Session.submit(std::move(Job)) != AnalysisSession::Admission::Queued) {
      {
        std::lock_guard<std::mutex> L(M);
        InFlight.erase(Sig);
      }
      AnalysisResponse R;
      R.Kind = Kind;
      R.Id = std::move(Id);
      R.Error = "the session is closed";
      answer(Pos, Encode(std::move(R)));
    }
  }

  /// Returns once every reserved position has been emitted.
  void drain() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Slots.empty() && !Emitting; });
  }

  /// drain(), then waits for the workers to go idle: what they recorded
  /// (stats, spans) happens-before the return.
  void finish() {
    drain();
    Session.quiesce();
  }

private:
  AnalysisSession &Session;
  EncodeFn Encode;
  EmitFn Emit;

  std::mutex M;
  std::condition_variable Cv;
  /// Positions [Released, Released + Slots.size()), answered or not.
  std::deque<std::optional<Answer>> Slots;
  size_t Released = 0;
  bool Emitting = false;
  /// Requests in flight by signature, with the identical ones that wait
  /// for them.
  std::unordered_map<std::string,
                     std::vector<std::pair<size_t, AnalysisRequest>>>
      InFlight;
};

} // namespace

std::vector<AnalysisResponse>
xsa::runBatch(AnalysisSession &Session,
              const std::vector<AnalysisRequest> &Reqs) {
  std::vector<AnalysisResponse> Out;
  Out.reserve(Reqs.size());
  OrderedRun<AnalysisResponse> Run(
      Session, [](AnalysisResponse R) { return R; },
      [&Out](std::vector<AnalysisResponse> &Ready) {
        for (AnalysisResponse &R : Ready)
          Out.push_back(std::move(R));
      });
  for (const AnalysisRequest &Req : Reqs)
    Run.solve(Run.reserve(), Req);
  Run.finish();
  return Out;
}

bool xsa::requestFromJson(const JsonValue &Obj, AnalysisRequest &Req,
                          std::string &Error) {
  if (Obj.type() != JsonValue::Type::Object) {
    Error = "request must be a JSON object";
    return false;
  }
  Req = AnalysisRequest();
  Req.Id = Obj.str("id");
  std::string Op = Obj.str("op");
  if (Op.empty()) {
    Error = "missing 'op'";
    return false;
  }
  if (!parseRequestKind(Op, Req.Kind)) {
    Error = "unknown op '" + Op + "'";
    return false;
  }
  Req.Formula = Obj.str("f");
  Req.Query1 = Obj.str("e1", Obj.str("e"));
  Req.Query2 = Obj.str("e2");
  Req.Dtd1 = Obj.str("dtd1", Obj.str("dtd"));
  Req.Dtd2 = Obj.str("dtd2");
  Req.OutDtd = Obj.str("out");
  JsonRef Others = Obj.get("others");
  if (!Others->isNull()) {
    if (Others->type() != JsonValue::Type::Array) {
      Error = "'others' must be an array of XPath strings";
      return false;
    }
    for (const JsonRef &V : Others->items()) {
      if (V->type() != JsonValue::Type::String) {
        Error = "'others' must be an array of XPath strings";
        return false;
      }
      Req.Others.push_back(V->asString());
    }
  }
  return true;
}

JsonRef xsa::responseToJson(const AnalysisResponse &Resp,
                            bool IncludeVolatile) {
  JsonRef O = JsonValue::object();
  if (!Resp.Id.empty())
    O->set("id", JsonValue::string(Resp.Id));
  // The propagated request/trace id is volatile: the server generates
  // one when the client sent no "id", and generated ids depend on
  // connection/sequence numbering — not on the workload alone.
  if (IncludeVolatile && !Resp.Rid.empty())
    O->set("rid", JsonValue::string(Resp.Rid));
  O->set("ok", JsonValue::boolean(Resp.Ok));
  // Stage breakdown (populated only under tracing) and everything else
  // execution-dependent rides the volatile side: scheduling, cache and
  // store state vary run to run, and `--stable` promises byte-stable
  // bytes.
  auto EmitStages = [&] {
    if (!IncludeVolatile || Resp.StageMs.empty())
      return;
    JsonRef St = JsonValue::object();
    for (const auto &[Name, Ms] : Resp.StageMs)
      St->set(Name, JsonValue::number(Ms));
    O->set("stages", St);
  };
  if (!Resp.Ok) {
    O->set("error", errorObjectJson(Resp.ErrorCode.empty() ? "bad_request"
                                                           : Resp.ErrorCode,
                                    Resp.Error, Resp.ErrorLine,
                                    Resp.ErrorByte));
    EmitStages();
    return O;
  }
  if (Resp.Kind == RequestKind::Optimize) {
    // Optimize responses: the rewritten query, the cost-model estimate,
    // and the proof trace — one entry per solver-checked candidate.
    O->set("optimized", JsonValue::string(Resp.Optimized));
    O->set("cost_before", JsonValue::number(Resp.CostBefore));
    O->set("cost_after", JsonValue::number(Resp.CostAfter));
    size_t Accepted = 0;
    JsonRef Trace = JsonValue::array();
    for (const RewriteStep &S : Resp.Trace) {
      Accepted += S.Accepted;
      JsonRef T = JsonValue::object();
      T->set("rule", JsonValue::string(S.Rule));
      T->set("from", JsonValue::string(S.From));
      T->set("to", JsonValue::string(S.To));
      T->set("note", JsonValue::string(S.Note));
      T->set("check", JsonValue::string(S.Check));
      T->set("verdict", JsonValue::string(S.Accepted ? "proved" : "refuted"));
      if (IncludeVolatile) {
        T->set("cache", JsonValue::string(S.FromCache ? "hit" : "miss"));
        T->set("time_ms", JsonValue::number(S.TimeMs));
      }
      Trace->push(T);
    }
    O->set("rewrites", JsonValue::number(static_cast<double>(Accepted)));
    O->set("checks",
           JsonValue::number(static_cast<double>(Resp.Trace.size())));
    O->set("trace", Trace);
    EmitStages();
    return O;
  }
  O->set("holds", JsonValue::boolean(Resp.Holds));
  O->set("satisfiable", JsonValue::boolean(Resp.Satisfiable));
  if (IncludeVolatile)
    O->set("cache", JsonValue::string(Resp.FromCache ? "hit" : "miss"));
  O->set("lean", JsonValue::number(static_cast<double>(Resp.Stats.LeanSize)));
  if (IncludeVolatile) {
    // Round counts stay on the volatile side. iterations_replayed
    // depends on what the shared fixpoint store held when this request
    // ran, which is scheduling-dependent at jobs > 1. iterations is a
    // function of the request alone, but --stable output has left it
    // out since a config switch could change it, and moving it back
    // would change the --stable bytes that consumers compare against.
    O->set("iterations",
           JsonValue::number(static_cast<double>(Resp.Stats.Iterations)));
    O->set("iterations_replayed",
           JsonValue::number(
               static_cast<double>(Resp.Stats.IterationsReplayed)));
    O->set("time_ms", JsonValue::number(Resp.Stats.TimeMs));
  }
  if (!Resp.ModelXml.empty())
    O->set("model", JsonValue::string(Resp.ModelXml));
  EmitStages();
  return O;
}

JsonRef xsa::errorObjectJson(const std::string &Code,
                             const std::string &Message, size_t Line,
                             long Byte) {
  JsonRef E = JsonValue::object();
  E->set("code", JsonValue::string(Code));
  E->set("message", JsonValue::string(Message));
  if (Line)
    E->set("line", JsonValue::number(static_cast<double>(Line)));
  if (Byte >= 0)
    E->set("byte", JsonValue::number(static_cast<double>(Byte)));
  return E;
}

JsonRef xsa::controlResponseJson(const JsonValue &Req, bool Ok) {
  JsonRef O = JsonValue::object();
  std::string Id = Req.str("id");
  if (!Id.empty())
    O->set("id", JsonValue::string(Id));
  O->set("ok", JsonValue::boolean(Ok));
  return O;
}

JsonRef xsa::configErrorJson(const JsonValue &Obj, const std::string &Code,
                             const std::string &Message,
                             const std::string &Key, const std::string &Value,
                             size_t Line) {
  JsonRef O = controlResponseJson(Obj, /*Ok=*/false);
  JsonRef E = errorObjectJson(Code, Message, Line);
  E->set("key", JsonValue::string(Key));
  if (!Value.empty())
    E->set("value", JsonValue::string(Value));
  O->set("error", E);
  return O;
}

JsonRef xsa::decodeConfigLine(const JsonValue &Obj,
                              std::initializer_list<const char *> Keys,
                              ConfigLine &Out, size_t Line) {
  Out = ConfigLine();
  for (const auto &[K, V] : Obj.members()) {
    if (K == "op" || K == "id")
      continue;
    auto Fail = [&](const char *Code, const std::string &Message) {
      return configErrorJson(Obj, Code, Message, K, V->dump(), Line);
    };
    // Unknown keys are rejected rather than ignored: a misspelled key
    // ("stabel") must not read as an applied one.
    if (std::find(Keys.begin(), Keys.end(), K) == Keys.end())
      return Fail("unknown_config_key", "unknown config key '" + K + "'");
    if (K == "jobs") {
      // Range before the cast: converting a double past size_t's range
      // is undefined.
      double N = V->asNumber();
      if (V->type() != JsonValue::Type::Number || !(N >= 0 && N < 0x1p64) ||
          N != static_cast<double>(static_cast<size_t>(N)))
        return Fail("invalid_config_value",
                    "jobs must be a non-negative integer");
      Out.Jobs = static_cast<size_t>(N);
    } else if (K == "ns") {
      if (V->type() != JsonValue::Type::String || V->asString().empty() ||
          V->asString().size() > MaxNamespaceBytes)
        return Fail("invalid_config_value",
                    "ns must be a non-empty string of at most " +
                        std::to_string(MaxNamespaceBytes) + " bytes");
      Out.Ns = V->asString();
    } else if (V->type() != JsonValue::Type::Bool) {
      return Fail("invalid_config_value", K + " must be a boolean");
    } else {
      Out.Stable = V->asBool();
    }
  }
  return nullptr;
}

JsonRef xsa::statsToJson(const SessionStats &S) {
  JsonRef O = JsonValue::object();
  JsonRef C = JsonValue::object();
  C->set("hits", JsonValue::number(static_cast<double>(S.Cache.Hits)));
  C->set("misses", JsonValue::number(static_cast<double>(S.Cache.Misses)));
  C->set("insertions",
         JsonValue::number(static_cast<double>(S.Cache.Insertions)));
  C->set("evictions",
         JsonValue::number(static_cast<double>(S.Cache.Evictions)));
  C->set("size", JsonValue::number(static_cast<double>(S.Cache.Size)));
  O->set("cache", C);
  O->set("solves", JsonValue::number(static_cast<double>(S.Solves)));
  O->set("solver_iterations",
         JsonValue::number(static_cast<double>(S.SolverIterations)));
  O->set("solver_time_ms", JsonValue::number(S.SolverTimeMs));
  O->set("queries_parsed",
         JsonValue::number(static_cast<double>(S.QueriesParsed)));
  O->set("query_cache_hits",
         JsonValue::number(static_cast<double>(S.QueryCacheHits)));
  O->set("dtd_compilations",
         JsonValue::number(static_cast<double>(S.DtdCompilations)));
  O->set("dtd_cache_hits",
         JsonValue::number(static_cast<double>(S.DtdCacheHits)));
  O->set("queries_optimized",
         JsonValue::number(static_cast<double>(S.QueriesOptimized)));
  O->set("optimize_cache_hits",
         JsonValue::number(static_cast<double>(S.OptimizeCacheHits)));
  O->set("rewrite_checks",
         JsonValue::number(static_cast<double>(S.RewriteChecks)));
  O->set("rewrites_accepted",
         JsonValue::number(static_cast<double>(S.RewritesAccepted)));
  JsonRef F = JsonValue::object();
  F->set("hits", JsonValue::number(static_cast<double>(S.Fixpoints.Hits)));
  F->set("misses", JsonValue::number(static_cast<double>(S.Fixpoints.Misses)));
  F->set("publishes",
         JsonValue::number(static_cast<double>(S.Fixpoints.Insertions)));
  F->set("size", JsonValue::number(static_cast<double>(S.Fixpoints.Size)));
  F->set("seeded_runs",
         JsonValue::number(static_cast<double>(S.FixpointSeededRuns)));
  F->set("iterations_replayed", JsonValue::number(static_cast<double>(
                                    S.FixpointIterationsReplayed)));
  O->set("fixpoints", F);
  return O;
}

namespace {

/// Reads one input line into \p Line, bounded by \p MaxBytes (0 =
/// unbounded). An overlong line is consumed to its newline but only the
/// first MaxBytes land in \p Line, with \p Truncated set — the caller
/// answers it with a structured bad_request instead of buffering an
/// arbitrarily large request. Returns false at end of input (or on a
/// stream error, e.g. a read interrupted by a non-restarting signal
/// handler) with nothing read.
bool readLineBounded(std::istream &In, std::string &Line, size_t MaxBytes,
                     bool &Truncated) {
  Line.clear();
  Truncated = false;
  char C;
  while (In.get(C)) {
    if (C == '\n')
      return true;
    if (MaxBytes && Line.size() >= MaxBytes) {
      Truncated = true;
      while (In.get(C))
        if (C == '\n')
          return true;
      return true;
    }
    Line += C;
  }
  return !Line.empty();
}

} // namespace

InputLine xsa::decodeInputLine(
    const std::string &Line, size_t LineNo, bool Truncated,
    size_t MaxLineBytes, bool Stable,
    std::initializer_list<std::string_view> ControlOps) {
  InputLine L;
  auto Answer = [&](std::string Error, long Byte = -1) {
    AnalysisResponse R;
    R.Id = L.Obj ? L.Obj->str("id") : "";
    R.Error = std::move(Error);
    R.ErrorLine = LineNo;
    R.ErrorByte = Byte;
    L.K = InputLine::Kind::Answer;
    L.Answer = responseToJson(R, /*IncludeVolatile=*/!Stable)->dump();
    return std::move(L);
  };
  if (Truncated)
    return Answer("input line exceeds " + std::to_string(MaxLineBytes) +
                      " bytes",
                  static_cast<long>(MaxLineBytes));
  // Skip blank lines and #-comments so hand-written batch files can be
  // annotated.
  size_t First = Line.find_first_not_of(" \t\r");
  if (First == std::string::npos || Line[First] == '#')
    return L;
  std::string Error;
  size_t ErrByte = 0;
  L.Obj = parseJson(Line, Error, &ErrByte);
  if (!L.Obj)
    return Answer("bad JSON: " + Error, static_cast<long>(ErrByte));
  if (std::find(ControlOps.begin(), ControlOps.end(), L.Obj->str("op")) !=
      ControlOps.end()) {
    L.K = InputLine::Kind::Control;
    return L;
  }
  if (!requestFromJson(*L.Obj, L.Req, Error))
    return Answer(Error);
  L.K = InputLine::Kind::Request;
  return L;
}

size_t xsa::runBatchJsonLines(AnalysisSession &Session, std::istream &In,
                              std::ostream &Out, size_t *Failed,
                              const BatchStreamOptions &Opts) {
  struct Encoded {
    std::string Text;
    bool Ok = false;
  };
  size_t Answered = 0, Errors = 0;
  auto Encode = [Stable = Opts.Stable](AnalysisResponse R) {
    return Encoded{responseToJson(R, /*IncludeVolatile=*/!Stable)->dump(),
                   R.Ok};
  };
  OrderedRun<Encoded> Run(Session, Encode, [&](std::vector<Encoded> &Ready) {
    for (const Encoded &E : Ready) {
      ++(E.Ok ? Answered : Errors);
      Out << E.Text << "\n";
    }
    Out.flush();
  });
  auto AnswerNow = [&](Encoded E) { Run.answer(Run.reserve(), std::move(E)); };
  // Workers write Out while this thread reads In. A tie (std::cin's to
  // std::cout) would flush Out from this thread as well; every emit
  // flushes, so the tie is dropped for the run.
  std::ostream *Tied = In.tie(nullptr);

  std::string Line;
  size_t LineNo = 0;
  bool Truncated = false;
  while (!(Opts.Stop && Opts.Stop->load(std::memory_order_relaxed)) &&
         readLineBounded(In, Line, Opts.MaxLineBytes, Truncated)) {
    InputLine L = decodeInputLine(Line, ++LineNo, Truncated,
                                  Opts.MaxLineBytes, Opts.Stable,
                                  {"config", "metrics"});
    if (L.K == InputLine::Kind::Skip)
      continue;
    if (L.K == InputLine::Kind::Answer) {
      AnswerNow({std::move(L.Answer), false});
      continue;
    }
    if (L.K == InputLine::Kind::Request) {
      Run.solve(Run.reserve(), std::move(L.Req));
      continue;
    }
    // Control line: answered after every line before it, applied to
    // everything after it.
    Run.drain();
    const JsonValue &Obj = *L.Obj;
    if (Obj.str("op") == "config") {
      ConfigLine Cfg;
      if (JsonRef Err = decodeConfigLine(Obj, {"jobs"}, Cfg, LineNo)) {
        AnswerNow({Err->dump(), false});
        continue;
      }
      if (!Cfg.Jobs) {
        AnalysisResponse R;
        R.Id = Obj.str("id");
        R.ErrorLine = LineNo;
        R.Error = "config needs 'jobs' (a non-negative integer)";
        AnswerNow(Encode(std::move(R)));
        continue;
      }
      Session.setJobs(*Cfg.Jobs);
      JsonRef O = controlResponseJson(Obj);
      O->set("jobs", JsonValue::number(static_cast<double>(Session.jobs())));
      AnswerNow({O->dump(), true});
    } else {
      // {"op":"metrics"}: the process-wide metric registry as JSON, once
      // every request before it is counted. The registry's members
      // (schema version first) are spliced into the response object, so
      // clients key on response["schema"].
      JsonRef O = controlResponseJson(Obj);
      JsonRef M = MetricRegistry::global().toJson(
          /*IncludeVolatile=*/!Opts.Stable);
      for (const auto &[K, V] : M->members())
        O->set(K, V);
      AnswerNow({O->dump(), true});
    }
  }
  Run.finish();
  In.tie(Tied);
  if (Failed)
    *Failed = Errors;
  return Answered;
}
