//===- service_test.cpp - Analysis service subsystem ----------------------===//
//
// Tests the session layer: canonical (α-invariant) formula hashing, the
// session's semantic result cache (hits on structurally identical
// queries), batch deduplication of repeated operands and shared DTD
// contexts, the stats counters, and the JSON-lines batch protocol —
// including the acceptance scenario that a repeated-query batch reports
// cache hits with results identical to a cold run.
//
// The parallel engine is covered too: the session's worker pool
// (priority order, admission limit, close, quiesce, resizing with warm
// contexts, and the in-flight rule that hands an item to the worker
// running its key), a stream that answers each line before the next is
// read, DTD files read bounded (a FIFO and an oversized file refused),
// the sharded thread-safe result cache (including a single-shard stress
// test meant to run under TSan), determinism of multi-worker batches — a
// warm N-thread batch must produce byte-identical JSON to the 1-thread
// run, and cold runs must agree on every deterministic field — and the
// persistent cache warm-up across sessions.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "service/Batch.h"
#include "service/Session.h"

#include "logic/Parser.h"
#include "xpath/Compile.h"
#include "xpath/Parser.h"
#include "xtype/BuiltinDtds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <thread>

#include <sys/stat.h>

using namespace xsa;

namespace {

Formula parse(FormulaFactory &FF, const std::string &S) {
  std::string Err;
  Formula F = parseFormula(FF, S, Err);
  EXPECT_NE(F, nullptr) << Err << " in: " << S;
  return F;
}

ExprRef xp(const std::string &S) {
  std::string Err;
  ExprRef E = parseXPath(S, Err);
  EXPECT_NE(E, nullptr) << Err << " in: " << S;
  return E;
}

//===----------------------------------------------------------------------===//
// Canonicalization
//===----------------------------------------------------------------------===//

std::string canonical(FormulaFactory &FF, Formula F) {
  return *FF.canonicalText(F);
}

TEST(Canonicalize, AlphaEquivalentFormulasShareOneText) {
  FormulaFactory FF;
  Formula A = parse(FF, "let $X = a | <1>$X in $X");
  Formula B = parse(FF, "let $Y = a | <1>$Y in $Y");
  EXPECT_NE(A, B) << "distinct binder names intern differently";
  EXPECT_EQ(canonical(FF, A), canonical(FF, B));
}

TEST(Canonicalize, DistinctFormulasStayDistinct) {
  FormulaFactory FF;
  Formula A = parse(FF, "let $X = a | <1>$X in $X");
  Formula C = parse(FF, "let $X = b | <1>$X in $X");
  EXPECT_NE(canonical(FF, A), canonical(FF, C));
}

TEST(Canonicalize, NestedBindersAndFreeVariables) {
  FormulaFactory FF;
  Formula A = parse(FF, "let $X = <1>(let $Y = a | <2>$Y in $Y) in $X");
  Formula B = parse(FF, "let $U = <1>(let $V = a | <2>$V in $V) in $U");
  EXPECT_EQ(canonical(FF, A), canonical(FF, B));
  // A free variable keeps its name.
  EXPECT_EQ(canonical(FF, FF.var("Z")), "$Z");
}

TEST(Canonicalize, AlphaVariantOperandsStayTwo) {
  // Renamed, the two operands of the disjunction print the same; the key
  // must keep both, as the formula does, and not merge them into the key
  // of the single copy, whose lean is smaller.
  FormulaFactory FF;
  Formula Twice = parse(FF, "(let $X = a | <1>$X in $X) | "
                            "(let $Y = a | <1>$Y in $Y)");
  Formula Once = parse(FF, "let $X = a | <1>$X in $X");
  EXPECT_NE(canonical(FF, Twice), canonical(FF, Once));
  EXPECT_EQ(canonical(FF, Twice), "(" + canonical(FF, Once) + ") | (" +
                                     canonical(FF, Once) + ")");
}

TEST(Canonicalize, CanonicalTextIsMemoizedAndSurvivesAClear) {
  FormulaFactory FF;
  const std::string Src = "let $X = a | <1>$X in $X";
  Formula A = parse(FF, Src);
  std::shared_ptr<const std::string> Text = FF.canonicalText(A);
  EXPECT_EQ(*Text, "let $%c0_0 = a | <1>$%c0_0 in $%c0_0");
  EXPECT_EQ(FF.canonicalText(A), Text) << "served from the memo";
  // clear() drops the memo with the formulas; a held text outlives it,
  // and the formula built again in the new epoch prints the same text.
  FF.clear();
  EXPECT_EQ(*Text, "let $%c0_0 = a | <1>$%c0_0 in $%c0_0");
  std::shared_ptr<const std::string> Again = FF.canonicalText(parse(FF, Src));
  EXPECT_NE(Again, Text) << "printed again after the clear";
  EXPECT_EQ(*Again, *Text);
}

TEST(Canonicalize, RepeatedXPathCompilationsCanonicalizeEqual) {
  // compileXPath draws fresh µ-variables each time, so two compilations
  // of the same query are α-variants — exactly what the semantic cache
  // must identify.
  FormulaFactory FF;
  Formula F1 = compileXPath(FF, xp("/a//b[c]"), FF.trueF());
  Formula F2 = compileXPath(FF, xp("/a//b[c]"), FF.trueF());
  EXPECT_NE(F1, F2);
  EXPECT_EQ(canonical(FF, F1), canonical(FF, F2));
  Formula Other = compileXPath(FF, xp("/a//b[d]"), FF.trueF());
  EXPECT_NE(canonical(FF, F1), canonical(FF, Other));
}

//===----------------------------------------------------------------------===//
// Session cache behaviour
//===----------------------------------------------------------------------===//

TEST(AnalysisSession, CacheHitOnStructurallyIdenticalQueries) {
  AnalysisSession Session;
  ExprRef E1 = xp("/a/b");
  ExprRef E2 = xp("//b");
  Formula Top = Session.factory().trueF();

  Analyzer &An = Session.analyzer();
  AnalysisResult Cold = An.containment(E1, Top, E2, Top);
  EXPECT_TRUE(Cold.Holds);
  EXPECT_FALSE(Cold.FromCache);

  // Same operands again — even via freshly parsed (structurally
  // identical) expressions.
  AnalysisResult Warm = An.containment(xp("/a/b"), Top, xp("//b"), Top);
  EXPECT_TRUE(Warm.FromCache);
  EXPECT_EQ(Warm.Holds, Cold.Holds);

  SessionStats S = Session.stats();
  EXPECT_EQ(S.Cache.Hits, 1u);
  EXPECT_EQ(S.Cache.Misses, 1u);
  EXPECT_EQ(S.Solves, 1u);
}

TEST(AnalysisSession, RawAndAnalyzerOptionsDoNotCrossContaminate) {
  // The same formula solved raw (hedge models allowed) and through the
  // Analyzer (single-rooted models) must not share cache entries: the
  // options fingerprint differs.
  SolverOptions Raw;
  SolverOptions Single = Raw;
  Single.RequireSingleRoot = true;
  EXPECT_NE(solverOptionsKey(Raw), solverOptionsKey(Single));
}

TEST(AnalysisSession, QueryAndDtdMemoization) {
  AnalysisSession Session;
  AnalysisContext &Ctx = Session.mainContext();
  std::string Err;
  ExprRef E1 = Ctx.query("//b", Err);
  ASSERT_NE(E1, nullptr);
  ExprRef E2 = Ctx.query("//b", Err);
  EXPECT_EQ(E1.get(), E2.get()) << "memoized parse returns the same AST";

  Formula T1 = Session.typeContext("wikipedia", Err);
  ASSERT_NE(T1, nullptr);
  Formula T2 = Session.typeContext("wikipedia", Err);
  EXPECT_EQ(T1, T2);

  SessionStats S = Session.stats();
  EXPECT_EQ(S.QueriesParsed, 1u);
  EXPECT_EQ(S.QueryCacheHits, 1u);
  EXPECT_EQ(S.DtdCompilations, 1u);
  EXPECT_EQ(S.DtdCacheHits, 1u);

  // Parse failures are memoized too, with the error preserved.
  EXPECT_EQ(Ctx.query("///", Err), nullptr);
  EXPECT_FALSE(Err.empty());
  std::string Err2;
  EXPECT_EQ(Ctx.query("///", Err2), nullptr);
  EXPECT_EQ(Err, Err2);
}

//===----------------------------------------------------------------------===//
// Batch pipeline
//===----------------------------------------------------------------------===//

AnalysisRequest containsReq(const std::string &Id, const std::string &E1,
                            const std::string &E2) {
  AnalysisRequest R;
  R.Id = Id;
  R.Kind = RequestKind::Containment;
  R.Query1 = E1;
  R.Query2 = E2;
  return R;
}

/// \p N distinct requests of the shapes perfbench's server-cold stream
/// sends (ProblemStream in perfbench/runner.cpp): in every 32, seven
/// each of two containments, an overlap and an untyped emptiness, and
/// four emptiness checks under wikipedia. Every request has labels of
/// its own, so none is a cache hit.
std::vector<AnalysisRequest> coldShapedRequests(size_t N) {
  std::vector<AnalysisRequest> Reqs;
  for (size_t I = 0; I < N; ++I) {
    std::string Tag = std::to_string(I);
    std::string A = "a" + Tag, B = "b" + Tag, C = "c" + Tag;
    AnalysisRequest R;
    R.Id = "k" + Tag;
    size_t Pos = I % 32;
    switch (Pos < 28 ? Pos % 4 : 4) {
    case 0:
      R = containsReq(R.Id, "/" + A + "/" + B, "//" + B);
      break;
    case 1:
      R = containsReq(R.Id, "//" + B, "/" + A + "/" + B);
      break;
    case 2:
      R.Kind = RequestKind::Overlap;
      R.Query1 = "//" + A + "/" + B;
      R.Query2 = "//" + B + "[" + C + "]";
      break;
    case 3:
      R.Kind = RequestKind::Emptiness;
      R.Query1 = A + "/" + B + "[parent::" + C + "]";
      break;
    default:
      R.Kind = RequestKind::Emptiness;
      R.Query1 = "//history/edit[z" + Tag + "]";
      R.Dtd1 = "wikipedia";
      break;
    }
    Reqs.push_back(std::move(R));
  }
  return Reqs;
}

/// Each response of a run, stable-encoded, by id.
std::map<std::string, std::string>
stableLinesById(const std::vector<AnalysisResponse> &Resps) {
  std::map<std::string, std::string> Lines;
  for (const AnalysisResponse &R : Resps)
    Lines[R.Id] = responseToJson(R, /*IncludeVolatile=*/false)->dump();
  return Lines;
}

TEST(Batch, DedupsRepeatedContainmentOperands) {
  AnalysisSession Session;
  // Four requests over two distinct problems; the duplicates must be
  // answered from the cache with identical verdicts.
  std::vector<AnalysisRequest> Reqs = {
      containsReq("a", "/a/b", "//b"),
      containsReq("b", "//b", "/a/b"),
      containsReq("a2", "/a/b", "//b"),
      containsReq("b2", "//b", "/a/b"),
  };
  std::vector<AnalysisResponse> Resps = runBatch(Session, Reqs);
  ASSERT_EQ(Resps.size(), 4u);
  for (const AnalysisResponse &R : Resps)
    EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(Resps[0].FromCache);
  EXPECT_FALSE(Resps[1].FromCache);
  EXPECT_TRUE(Resps[2].FromCache);
  EXPECT_TRUE(Resps[3].FromCache);
  EXPECT_EQ(Resps[2].Holds, Resps[0].Holds);
  EXPECT_EQ(Resps[3].Holds, Resps[1].Holds);

  SessionStats S = Session.stats();
  EXPECT_EQ(S.Solves, 2u) << "two distinct problems, two solver runs";
  EXPECT_EQ(S.Cache.Hits, 2u);
  // The operand strings were parsed once each.
  EXPECT_EQ(S.QueriesParsed, 2u);
  EXPECT_GE(S.QueryCacheHits, 6u);
}

TEST(Batch, WarmRequestsDoNotGrowTheFormulaArena) {
  // A fully-warm repeated request must be allocation-stable: the query
  // memo returns the same AST, the Analyzer's compile memo the same
  // formula, and the canonical memo the same cache key — so the factory
  // arena stops growing no matter how often the request repeats.
  AnalysisSession Session;
  std::vector<AnalysisRequest> Reqs = {containsReq("a", "/a/b", "//b")};
  runBatch(Session, Reqs);
  runBatch(Session, Reqs); // warm once, so every memo is populated
  size_t Nodes = Session.factory().numNodes();
  for (int I = 0; I < 5; ++I)
    runBatch(Session, Reqs);
  EXPECT_EQ(Session.factory().numNodes(), Nodes);

  // The same holds for a working set of 512 server-cold-shaped problems,
  // which fits the result cache and stays below the context's budget:
  // no pass collects, and only the first one builds formulas.
  AnalysisSession Warm;
  std::vector<AnalysisRequest> WorkingSet = coldShapedRequests(512);
  runBatch(Warm, WorkingSet);
  size_t AfterFirst = Warm.factory().numNodes();
  EXPECT_LT(AfterFirst, AnalysisContext::Budget);
  for (int Pass = 2; Pass <= 3; ++Pass) {
    for (const AnalysisResponse &R : runBatch(Warm, WorkingSet))
      EXPECT_TRUE(R.FromCache) << R.Id;
    EXPECT_EQ(Warm.factory().numNodes(), AfterFirst) << "pass " << Pass;
  }
  EXPECT_EQ(Warm.stats().FormulaCollections, 0u);
}

TEST(Batch, CollectionsAreInvisible) {
  // Enough distinct server-cold-shaped requests to cross the budget on
  // one context: the serial runs start new epochs mid-stream, at
  // different requests forward and reversed, and four workers at others
  // again (or not at all). No answer may change.
  std::vector<AnalysisRequest> Reqs = coldShapedRequests(1600);
  AnalysisSession Forward;
  std::map<std::string, std::string> Expected =
      stableLinesById(runBatch(Forward, Reqs));
  EXPECT_GE(Forward.stats().FormulaCollections, 1u);

  std::vector<AnalysisRequest> Reversed(Reqs.rbegin(), Reqs.rend());
  AnalysisSession Backward;
  EXPECT_EQ(stableLinesById(runBatch(Backward, Reversed)), Expected);
  EXPECT_GE(Backward.stats().FormulaCollections, 1u);

  SessionOptions Four;
  Four.Jobs = 4;
  AnalysisSession Parallel(Four);
  EXPECT_EQ(stableLinesById(runBatch(Parallel, Reqs)), Expected);

  for (const auto &[Id, Line] : Expected)
    EXPECT_NE(Line.find("\"ok\":true"), std::string::npos) << Line;
}

TEST(Context, ErrorEntriesAreBounded) {
  // Distinct unparseable queries build no formula, but each one is a
  // query memo entry: the budget counts those too, so the memo cannot
  // grow without bound.
  AnalysisSession Session;
  AnalysisRequest R;
  R.Kind = RequestKind::Emptiness;
  for (size_t I = 0; I <= AnalysisContext::Budget; ++I) {
    R.Query1 = "/a[" + std::to_string(I);
    ASSERT_FALSE(runRequest(Session, R).Ok) << R.Query1;
  }
  EXPECT_GE(Session.stats().FormulaCollections, 1u);
}

TEST(Batch, SharedDtdCompiledOnce) {
  AnalysisSession Session;
  std::vector<AnalysisRequest> Reqs;
  for (int I = 0; I < 3; ++I) {
    AnalysisRequest R;
    R.Id = "e" + std::to_string(I);
    R.Kind = RequestKind::Emptiness;
    R.Query1 = "//unknown" + std::to_string(I);
    R.Dtd1 = "wikipedia";
    Reqs.push_back(R);
  }
  std::vector<AnalysisResponse> Resps = runBatch(Session, Reqs);
  for (const AnalysisResponse &R : Resps)
    EXPECT_TRUE(R.Ok) << R.Error;
  SessionStats S = Session.stats();
  EXPECT_EQ(S.DtdCompilations, 1u);
  EXPECT_EQ(S.DtdCacheHits, 2u);
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(Json, ParseAndDumpRoundTrip) {
  std::string Err;
  JsonRef V = parseJson(
      R"({"op":"cover","id":"qA","others":["//a","//b"],"n":3,"t":true,)"
      R"("big":-1e300,"inf":1e400})",
      Err);
  ASSERT_NE(V, nullptr) << Err;
  EXPECT_EQ(V->str("op"), "cover");
  EXPECT_EQ(V->str("id"), "qA");
  EXPECT_EQ(V->get("others")->items().size(), 2u);
  EXPECT_EQ(V->get("n")->asNumber(), 3);
  EXPECT_TRUE(V->get("t")->asBool());
  EXPECT_TRUE(V->get("missing")->isNull());

  // dump() emits valid JSON that re-parses to the same shape. JSON has
  // no infinity, so the one "1e400" parses to dumps as null.
  JsonRef Again = parseJson(V->dump(), Err);
  ASSERT_NE(Again, nullptr) << Err;
  EXPECT_EQ(Again->dump(), V->dump());
  EXPECT_EQ(Again->get("big")->asNumber(), -1e300);
  EXPECT_TRUE(Again->get("inf")->isNull());
}

TEST(Json, EscapeRoundTripsEverySingleByte) {
  // jsonQuote must emit a valid JSON string literal for any byte
  // content — control characters escaped, DEL and non-ASCII (UTF-8)
  // bytes passed through — and the parser must read it back verbatim.
  for (unsigned B = 0; B < 256; ++B) {
    std::string S(1, static_cast<char>(B));
    std::string Quoted = jsonQuote(S);
    std::string Err;
    JsonRef V = parseJson(Quoted, Err);
    ASSERT_NE(V, nullptr) << "byte " << B << ": " << Err;
    EXPECT_EQ(V->asString(), S) << "byte " << B;
  }
}

TEST(Json, EscapeControlAndMultiByte) {
  // Short escapes for the named controls, \u for the rest.
  EXPECT_EQ(jsonQuote("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(jsonQuote("\n\r\t\b\f"), R"("\n\r\t\b\f")");
  EXPECT_EQ(jsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(jsonQuote(std::string(1, '\x1f')), "\"\\u001f\"");
  // DEL is legal unescaped.
  EXPECT_EQ(jsonQuote("\x7f"), "\"\x7f\"");
  // Multi-byte UTF-8 passes through and round-trips as a unit (this is
  // what model XML with non-ASCII element names relies on).
  std::string Utf8 = "caf\xc3\xa9 \xe2\x88\x80x";
  std::string Err;
  JsonRef V = parseJson(jsonQuote(Utf8), Err);
  ASSERT_NE(V, nullptr) << Err;
  EXPECT_EQ(V->asString(), Utf8);
  // Mixed content with embedded NUL survives too.
  std::string Mixed = std::string("a\0b", 3) + "\x1e" + "\xff";
  JsonRef M = parseJson(jsonQuote(Mixed), Err);
  ASSERT_NE(M, nullptr) << Err;
  EXPECT_EQ(M->asString(), Mixed);
}

TEST(Json, ParsesStandardEscapesAndUnicode) {
  std::string Err;
  JsonRef V = parseJson(R"("Aé∀\/\b\f")", Err);
  ASSERT_NE(V, nullptr) << Err;
  EXPECT_EQ(V->asString(), "A\xc3\xa9\xe2\x88\x80/\b\f");
  EXPECT_EQ(parseJson(R"("\u12")", Err), nullptr);
  EXPECT_EQ(parseJson(R"("\u12zz")", Err), nullptr);
  EXPECT_EQ(parseJson(R"("\q")", Err), nullptr);
}

TEST(Json, Errors) {
  std::string Err;
  EXPECT_EQ(parseJson("{\"a\":}", Err), nullptr);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(parseJson("{} trailing", Err), nullptr);
  EXPECT_EQ(parseJson("\"unterminated", Err), nullptr);
  EXPECT_EQ(parseJson("", Err), nullptr);
}

TEST(Json, RequestDecoding) {
  std::string Err;
  JsonRef Obj = parseJson(
      R"({"id":"t1","op":"typecheck","e1":"//p","dtd":"xhtml","out":"smil"})",
      Err);
  ASSERT_NE(Obj, nullptr);
  AnalysisRequest Req;
  ASSERT_TRUE(requestFromJson(*Obj, Req, Err)) << Err;
  EXPECT_EQ(Req.Kind, RequestKind::TypeCheck);
  EXPECT_EQ(Req.Id, "t1");
  EXPECT_EQ(Req.Query1, "//p");
  EXPECT_EQ(Req.Dtd1, "xhtml");
  EXPECT_EQ(Req.OutDtd, "smil");

  JsonRef Bad = parseJson(R"({"id":"x","op":"nope"})", Err);
  ASSERT_NE(Bad, nullptr);
  EXPECT_FALSE(requestFromJson(*Bad, Req, Err));
}

//===----------------------------------------------------------------------===//
// JSON-lines end-to-end (the acceptance scenario)
//===----------------------------------------------------------------------===//

/// Runs the JSON-lines batch and returns the raw output text.
std::string runLinesRaw(AnalysisSession &Session, const std::string &Input,
                        bool Stable = false) {
  std::istringstream In(Input);
  std::ostringstream Out;
  BatchStreamOptions Opts;
  Opts.Stable = Stable;
  runBatchJsonLines(Session, In, Out, nullptr, Opts);
  return Out.str();
}

/// Runs the JSON-lines batch and returns one parsed response per line.
std::vector<JsonRef> runLines(AnalysisSession &Session,
                              const std::string &Input) {
  std::vector<JsonRef> Resps;
  std::istringstream Parse(runLinesRaw(Session, Input));
  std::string Line;
  while (std::getline(Parse, Line)) {
    std::string Err;
    JsonRef V = parseJson(Line, Err);
    EXPECT_NE(V, nullptr) << Err << " in: " << Line;
    Resps.push_back(V);
  }
  return Resps;
}

TEST(BatchJsonLines, AnswersDistinctDecisionProblems) {
  // ≥3 distinct decision problems in one batch.
  const std::string Input =
      R"({"id":"q1","op":"contains","e1":"/a/b","e2":"//b"})" "\n"
      R"({"id":"q2","op":"overlap","e1":"//a","e2":"//b"})" "\n"
      R"({"id":"q3","op":"empty","e1":"a/b[parent::c]"})" "\n"
      R"({"id":"q4","op":"cover","e1":"/a/b","others":["//b","//c"]})" "\n"
      R"({"id":"q5","op":"sat","f":"<1>a & ~<1>T"})" "\n";
  AnalysisSession Session;
  std::vector<JsonRef> Resps = runLines(Session, Input);
  ASSERT_EQ(Resps.size(), 5u);
  for (const JsonRef &R : Resps)
    EXPECT_TRUE(R->get("ok")->asBool()) << R->dump();

  EXPECT_TRUE(Resps[0]->get("holds")->asBool());   // /a/b ⊆ //b
  EXPECT_FALSE(Resps[1]->get("holds")->asBool());  // //a ∩ //b = ∅
  EXPECT_TRUE(Resps[2]->get("holds")->asBool());   // b below a-root with c parent
  EXPECT_TRUE(Resps[3]->get("holds")->asBool());   // /a/b ⊆ //b ∪ //c
  EXPECT_FALSE(Resps[4]->get("holds")->asBool());  // contradiction unsat
}

TEST(BatchJsonLines, RepeatedBatchHitsCacheWithIdenticalResults) {
  const std::string Input =
      R"({"id":"q1","op":"contains","e1":"/a/b","e2":"//b"})" "\n"
      R"({"id":"q2","op":"overlap","e1":"//a","e2":"//b"})" "\n"
      R"({"id":"q3","op":"empty","e1":"a/b[parent::c]"})" "\n";

  // Cold run: fresh session, no hits.
  AnalysisSession ColdSession;
  std::vector<JsonRef> Cold = runLines(ColdSession, Input);
  ASSERT_EQ(Cold.size(), 3u);
  EXPECT_EQ(ColdSession.stats().Cache.Hits, 0u);

  // Warm run: same session answers the same batch again, entirely from
  // the cache, with identical verdicts.
  std::vector<JsonRef> Warm = runLines(ColdSession, Input);
  ASSERT_EQ(Warm.size(), 3u);
  SessionStats S = ColdSession.stats();
  EXPECT_GT(S.Cache.Hits, 0u);
  EXPECT_EQ(S.Cache.Hits, 3u);
  EXPECT_EQ(S.Solves, 3u) << "no new solver runs in the warm batch";
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Warm[I]->get("holds")->asBool(), Cold[I]->get("holds")->asBool());
    EXPECT_EQ(Warm[I]->get("satisfiable")->asBool(),
              Cold[I]->get("satisfiable")->asBool());
    EXPECT_EQ(Warm[I]->str("cache"), "hit");
    EXPECT_EQ(Cold[I]->str("cache"), "miss");
    // The model (when present) is byte-identical too.
    EXPECT_EQ(Warm[I]->str("model"), Cold[I]->str("model"));
  }

  // And a second cold session agrees with the cached answers.
  AnalysisSession Fresh;
  std::vector<JsonRef> Fresh2 = runLines(Fresh, Input);
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(Fresh2[I]->get("holds")->asBool(),
              Cold[I]->get("holds")->asBool());
}

TEST(BatchJsonLines, AlphaVariantOperandsKeepTheirOwnCacheEntry) {
  // XPath compilation draws fresh µ-variables per step, so the operands
  // of `//a[b] | //a[b]` are α-variants. Its key must differ from the key
  // of `//a[b]`: the two leans differ (32 and 23 bits), and a shared
  // entry would answer both with the lean of whichever solved first.
  const std::string Once =
      R"({"id":"once","op":"empty","e1":"//a[b]"})" "\n";
  const std::string Twice =
      R"({"id":"twice","op":"empty","e1":"//a[b] | //a[b]"})" "\n";
  auto Lines = [](const std::string &Out) {
    std::vector<std::string> Ls;
    std::istringstream In(Out);
    for (std::string L; std::getline(In, L);)
      Ls.push_back(L);
    return Ls;
  };
  AnalysisSession Forward, Reverse;
  std::vector<std::string> F =
      Lines(runLinesRaw(Forward, Once + Twice, /*Stable=*/true));
  std::vector<std::string> R =
      Lines(runLinesRaw(Reverse, Twice + Once, /*Stable=*/true));
  ASSERT_EQ(F.size(), 2u);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(F[0], R[1]);
  EXPECT_EQ(F[1], R[0]);
  EXPECT_NE(F[0].find(R"("id":"once")"), std::string::npos) << F[0];
  EXPECT_NE(F[0].find(R"("lean":23,)"), std::string::npos) << F[0];
  EXPECT_NE(F[1].find(R"("lean":32,)"), std::string::npos) << F[1];
}

TEST(BatchJsonLines, MalformedLinesDoNotAbortTheBatch) {
  const std::string Input =
      "this is not json\n"
      R"({"id":"ok1","op":"empty","e1":"//b"})" "\n"
      R"({"id":"bad","op":"contains","e1":"//b"})" "\n"; // missing e2
  AnalysisSession Session;
  std::vector<JsonRef> Resps = runLines(Session, Input);
  ASSERT_EQ(Resps.size(), 3u);
  EXPECT_FALSE(Resps[0]->get("ok")->asBool());
  EXPECT_TRUE(Resps[1]->get("ok")->asBool());
  EXPECT_FALSE(Resps[2]->get("ok")->asBool());
  EXPECT_EQ(Resps[2]->str("id"), "bad");
}

/// A client that sends one line and waits for its answer before sending
/// the next, as a pair of streams: the input hands out a line, then
/// blocks until the output has received one answer line per line handed
/// out. A watchdog ends the input instead if an answer takes over 10 s.
class LockstepClient {
public:
  explicit LockstepClient(std::vector<std::string> Lines)
      : InBuf(*this, std::move(Lines)), OutBuf(*this), In(&InBuf),
        Out(&OutBuf) {}

  std::istream &in() { return In; }
  std::ostream &out() { return Out; }
  bool timedOut() const { return TimedOut; }
  std::string written() {
    std::lock_guard<std::mutex> L(Mu);
    return Text;
  }

private:
  struct Input : std::streambuf {
    Input(LockstepClient &C, std::vector<std::string> Lines)
        : C(C), Lines(std::move(Lines)) {}
    int_type underflow() override {
      if (Next == Lines.size())
        return traits_type::eof();
      std::unique_lock<std::mutex> L(C.Mu);
      if (!C.Cv.wait_for(L, std::chrono::seconds(10),
                         [&] { return C.Answers >= Next; })) {
        C.TimedOut = true;
        return traits_type::eof();
      }
      Cur = Lines[Next++] + "\n";
      setg(Cur.data(), Cur.data(), Cur.data() + Cur.size());
      return traits_type::to_int_type(Cur[0]);
    }
    LockstepClient &C;
    std::vector<std::string> Lines;
    size_t Next = 0;
    std::string Cur;
  };
  struct Output : std::streambuf {
    explicit Output(LockstepClient &C) : C(C) {}
    int_type overflow(int_type Ch) override {
      if (traits_type::eq_int_type(Ch, traits_type::eof()))
        return traits_type::not_eof(Ch);
      std::lock_guard<std::mutex> L(C.Mu);
      C.Text += traits_type::to_char_type(Ch);
      if (Ch == '\n') {
        ++C.Answers;
        C.Cv.notify_all();
      }
      return Ch;
    }
    LockstepClient &C;
  };

  std::mutex Mu;
  std::condition_variable Cv;
  size_t Answers = 0; ///< guarded by Mu
  std::string Text;   ///< guarded by Mu
  bool TimedOut = false;
  Input InBuf;
  Output OutBuf;
  std::istream In;
  std::ostream Out;
};

TEST(BatchJsonLines, AnswersEachLineBeforeTheNextIsRead) {
  // An interactive client waits for each answer before it sends the next
  // line; the stream must answer it at any job count.
  for (size_t Jobs : {1, 4}) {
    SCOPED_TRACE(Jobs);
    LockstepClient Client({
        R"({"id":"q1","op":"contains","e1":"/a/b","e2":"//b"})",
        "not json",
        R"({"id":"q2","op":"contains","e1":"/a/b","e2":"//b"})",
        R"({"id":"cfg","op":"config","jobs":2})",
        R"({"id":"q3","op":"empty","e1":"a/b[parent::c]"})",
    });
    SessionOptions Opts;
    Opts.Jobs = Jobs;
    AnalysisSession Session(Opts);
    size_t Failed = 0;
    size_t Answered =
        runBatchJsonLines(Session, Client.in(), Client.out(), &Failed);
    EXPECT_FALSE(Client.timedOut()) << "a line went unanswered until the "
                                       "next one was sent";
    EXPECT_EQ(Answered, 4u);
    EXPECT_EQ(Failed, 1u);
    std::istringstream Lines(Client.written());
    std::vector<std::string> Ids;
    for (std::string Line; std::getline(Lines, Line);) {
      std::string Err;
      JsonRef R = parseJson(Line, Err);
      ASSERT_NE(R, nullptr) << Err;
      Ids.push_back(R->str("id"));
    }
    EXPECT_EQ(Ids, (std::vector<std::string>{"q1", "", "q2", "cfg", "q3"}));
  }
}

TEST(BatchJsonLines, UndeclaredDtdElementsAreBadRequests) {
  // A DTD whose content model names an element it never declares, or
  // that declares no element at all, is rejected when it loads: the
  // request answers bad_request naming the element, and the stream goes
  // on at any job count.
  std::string Dir = testing::TempDir();
  auto Write = [&](const std::string &Name, const std::string &Text) {
    std::ofstream(Dir + Name) << Text;
    return Dir + Name;
  };
  std::string Child = Write("xsa_undeclared_child.dtd", "<!ELEMENT a (b)>\n");
  std::string Mixed =
      Write("xsa_undeclared_mixed.dtd", "<!ELEMENT a (#PCDATA|zz)*>\n");
  std::string None = Write("xsa_no_element.dtd", "<!-- nothing -->\n");
  std::string Input =
      R"({"id":"child","op":"empty","e1":"/a","dtd":")" + Child + "\"}\n" +
      R"({"id":"mixed","op":"empty","e1":"/a","dtd":")" + Mixed + "\"}\n" +
      R"({"id":"none","op":"empty","e1":"/a","dtd":")" + None + "\"}\n" +
      R"({"id":"after","op":"empty","e1":"//b"})" "\n";
  for (size_t Jobs : {1, 4}) {
    SCOPED_TRACE(Jobs);
    SessionOptions Opts;
    Opts.Jobs = Jobs;
    AnalysisSession Session(Opts);
    std::vector<JsonRef> Resps = runLines(Session, Input);
    ASSERT_EQ(Resps.size(), 4u);
    const char *Named[] = {"'b'", "'zz'", "no element"};
    for (size_t I = 0; I < 3; ++I) {
      SCOPED_TRACE(Resps[I]->dump());
      EXPECT_FALSE(Resps[I]->get("ok")->asBool());
      JsonRef E = Resps[I]->get("error");
      EXPECT_EQ(E->str("code"), "bad_request");
      EXPECT_NE(E->str("message").find(Named[I]), std::string::npos);
    }
    EXPECT_EQ(Resps[3]->str("id"), "after");
    EXPECT_TRUE(Resps[3]->get("ok")->asBool());
  }
  for (const std::string &Path : {Child, Mixed, None})
    std::remove(Path.c_str());
}

TEST(BatchJsonLines, DtdFilesAreReadBoundedAndRegularOnly) {
  // A request may name any path as its DTD. A FIFO is refused at once —
  // nothing ever writes to this one, so a blocking open would wedge the
  // worker — and so is a file past MaxDtdFileBytes; both are ordinary
  // bad_request answers naming the path, and the stream goes on.
  std::string Dir = testing::TempDir();
  std::string Fifo = Dir + "xsa_dtd_test.fifo";
  std::remove(Fifo.c_str());
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  // Padded with a comment to exactly \p Bytes bytes.
  auto Write = [&](const std::string &Name, size_t Bytes) {
    std::string Text = "<!ELEMENT a EMPTY>\n<!--";
    Text += std::string(Bytes - Text.size() - 4, 'x') + "-->\n";
    std::ofstream(Dir + Name) << Text;
    return Dir + Name;
  };
  std::string AtBound = Write("xsa_dtd_at_bound.dtd", MaxDtdFileBytes);
  std::string Over = Write("xsa_dtd_over_bound.dtd", MaxDtdFileBytes + 1);
  auto Line = [](const std::string &Id, const std::string &Dtd) {
    return R"({"id":")" + Id + R"(","op":"empty","e1":"/a","dtd":")" + Dtd +
           "\"}\n";
  };
  std::string Input = Line("fifo", Fifo) +
                      R"({"id":"after","op":"empty","e1":"//b"})" "\n" +
                      Line("over", Over) + Line("bound", AtBound) +
                      Line("builtin", "wikipedia");
  for (size_t Jobs : {1, 2}) {
    SCOPED_TRACE(Jobs);
    SessionOptions Opts;
    Opts.Jobs = Jobs;
    AnalysisSession Session(Opts);
    std::vector<JsonRef> Resps = runLines(Session, Input);
    ASSERT_EQ(Resps.size(), 5u);
    const char *Ids[] = {"fifo", "after", "over", "bound", "builtin"};
    const bool Ok[] = {false, true, false, true, true};
    for (size_t I = 0; I < 5; ++I) {
      SCOPED_TRACE(Resps[I]->dump());
      EXPECT_EQ(Resps[I]->str("id"), Ids[I]);
      EXPECT_EQ(Resps[I]->get("ok")->asBool(), Ok[I]);
    }
    JsonRef FifoError = Resps[0]->get("error");
    EXPECT_EQ(FifoError->str("code"), "bad_request");
    EXPECT_NE(FifoError->str("message").find(Fifo + ": not a regular file"),
              std::string::npos);
    EXPECT_NE(Resps[2]->get("error")->str("message").find(
                  Over + ": larger than 1048576 bytes"),
              std::string::npos);
  }
  for (const std::string &Path : {Fifo, AtBound, Over})
    std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Session worker pool
//===----------------------------------------------------------------------===//

using Admission = AnalysisSession::Admission;

TEST(SessionPool, HigherPriorityFirstThenFifo) {
  AnalysisSession Session; // one worker: the run order is the pop order
  Session.debugPause(true);
  std::vector<int> Order; // written by the worker, read after quiesce()
  for (auto [Tag, Priority] :
       {std::pair{1, 0}, {2, 5}, {3, 0}, {4, 5}, {5, -1}}) {
    auto Record = [&Order, Tag = Tag](AnalysisContext &) {
      Order.push_back(Tag);
    };
    ASSERT_EQ(Session.submit(Record, Priority), Admission::Queued);
  }
  EXPECT_EQ(Session.queued(), 5u);
  EXPECT_TRUE(Order.empty());
  Session.debugPause(false);
  Session.quiesce();
  EXPECT_EQ(Order, (std::vector<int>{2, 4, 1, 3, 5}));
  EXPECT_EQ(Session.queued(), 0u);
}

TEST(SessionPool, FullAtTheCallersLimit) {
  AnalysisSession Session;
  Session.debugPause(true);
  std::atomic<int> Ran{0};
  auto Count = [&Ran](AnalysisContext &) { Ran.fetch_add(1); };
  EXPECT_EQ(Session.submit(Count, 0, 2), Admission::Queued);
  EXPECT_EQ(Session.submit(Count, 0, 2), Admission::Queued);
  EXPECT_EQ(Session.submit(Count, 0, 2), Admission::Full);
  EXPECT_EQ(Session.submit(Count, 9, 2), Admission::Full)
      << "priority does not bypass the limit";
  EXPECT_EQ(Session.submit(Count, 0, 3), Admission::Queued);
  EXPECT_EQ(Session.queued(), 3u);
  Session.debugPause(false);
  Session.quiesce();
  EXPECT_EQ(Ran.load(), 3) << "refused work is dropped unrun";
}

TEST(SessionPool, CloseRefusesNewWorkAndRunsQueuedWorkUnderThePause) {
  SessionOptions Opts;
  Opts.Jobs = 2;
  AnalysisSession Session(Opts);
  Session.debugPause(true);
  std::atomic<int> Ran{0};
  auto Count = [&Ran](AnalysisContext &) { Ran.fetch_add(1); };
  for (int I = 0; I < 3; ++I)
    ASSERT_EQ(Session.submit(Count), Admission::Queued);
  Session.close();
  EXPECT_EQ(Session.submit(Count), Admission::Closed);
  Session.quiesce(); // still paused: close() overrides the pause
  EXPECT_EQ(Ran.load(), 3);
  EXPECT_EQ(Session.submit(Count), Admission::Closed);
  EXPECT_EQ(Ran.load(), 3);
}

TEST(SessionPool, QuiesceWaitsForQueuedAndRunningWork) {
  AnalysisSession Idle;
  Idle.quiesce(); // no thread was ever started: returns at once

  SessionOptions Opts;
  Opts.Jobs = 2;
  AnalysisSession Session(Opts);
  std::atomic<bool> Release{false};
  std::atomic<int> Done{0};
  auto WaitForRelease = [&](AnalysisContext &) {
    auto Watchdog = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!Release.load() && std::chrono::steady_clock::now() < Watchdog)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Done.fetch_add(1);
  };
  for (int I = 0; I < 5; ++I)
    ASSERT_EQ(Session.submit(WaitForRelease), Admission::Queued);
  std::thread Releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Release.store(true);
  });
  Session.quiesce();
  EXPECT_EQ(Done.load(), 5);
  EXPECT_EQ(Session.queued(), 0u);
  Releaser.join();
}

/// A one-shot latch. wait() gives up after 10 s, so a broken rule fails
/// the test instead of hanging it.
struct Latch {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  void open() {
    std::lock_guard<std::mutex> L(Mu);
    Open = true;
    Cv.notify_all();
  }
  bool wait() {
    std::unique_lock<std::mutex> L(Mu);
    return Cv.wait_for(L, std::chrono::seconds(10), [&] { return Open; });
  }
};

TEST(SessionPool, SameKeyRunsAfterTheRunningItemOnItsWorker) {
  // Declared before the session, whose destructor joins the workers.
  Latch AStarted, KeylessRan, Release;
  std::atomic<int> Running{0}, MaxRunning{0};
  std::atomic<bool> ADone{false}, BSawADone{false};
  AnalysisContext *ACtx = nullptr, *BCtx = nullptr, *CCtx = nullptr;
  SessionOptions Opts;
  Opts.Jobs = 2;
  AnalysisSession Session(Opts);
  constexpr uint64_t Key = 7;
  auto Enter = [&] {
    int N = Running.fetch_add(1) + 1;
    int Max = MaxRunning.load();
    while (N > Max && !MaxRunning.compare_exchange_weak(Max, N)) {
    }
  };
  auto A = [&](AnalysisContext &Ctx) {
    Enter();
    ACtx = &Ctx;
    AStarted.open();
    EXPECT_TRUE(Release.wait());
    ADone.store(true);
    Running.fetch_sub(1);
  };
  auto B = [&](AnalysisContext &Ctx) {
    Enter();
    BCtx = &Ctx;
    BSawADone.store(ADone.load());
    Running.fetch_sub(1);
  };
  auto C = [&](AnalysisContext &Ctx) {
    CCtx = &Ctx;
    KeylessRan.open();
  };
  ASSERT_EQ(Session.submit(A, 0, AnalysisSession::NoLimit, Key),
            Admission::Queued);
  ASSERT_TRUE(AStarted.wait());
  // The idle worker pops B, finds its key running and hands it over;
  // then it pops C, which has no key, and runs it.
  ASSERT_EQ(Session.submit(B, 0, AnalysisSession::NoLimit, Key),
            Admission::Queued);
  ASSERT_EQ(Session.submit(C), Admission::Queued);
  ASSERT_TRUE(KeylessRan.wait());
  EXPECT_EQ(Session.queued(), 1u) << "the handed-over item still waits";
  EXPECT_EQ(Session.submit([](AnalysisContext &) {}, 0, 1), Admission::Full)
      << "and it counts toward the caller's limit";
  Release.open();
  Session.quiesce();
  EXPECT_EQ(Session.queued(), 0u);
  EXPECT_EQ(BCtx, ACtx) << "B ran on the worker that ran A";
  EXPECT_NE(CCtx, ACtx);
  EXPECT_TRUE(BSawADone.load()) << "B ran after A";
  EXPECT_EQ(MaxRunning.load(), 1) << "never at the same time";
}

TEST(SessionPool, KeyZeroNeverWaits) {
  Latch BRan;
  std::atomic<bool> AWaitedForB{false};
  SessionOptions Opts;
  Opts.Jobs = 2;
  AnalysisSession Session(Opts);
  // A finishes only once B ran: with key 0 on both, B must run on the
  // other worker while A is still running.
  auto A = [&](AnalysisContext &) { AWaitedForB.store(BRan.wait()); };
  auto B = [&](AnalysisContext &) { BRan.open(); };
  ASSERT_EQ(Session.submit(A), Admission::Queued);
  ASSERT_EQ(Session.submit(B), Admission::Queued);
  Session.quiesce();
  EXPECT_TRUE(AWaitedForB.load());
}

TEST(SessionPool, RequestsSharingAKeyEachGetTheirOwnAnswer) {
  // A key collision: two different requests submitted under one key.
  // The second is handed to the first's worker, yet answers itself.
  Latch KeylessRan;
  AnalysisResponse First, Second;
  AnalysisContext *FirstCtx = nullptr, *SecondCtx = nullptr;
  AnalysisRequest Holds, Fails;
  Holds.Id = "holds";
  Holds.Kind = Fails.Kind = RequestKind::Containment;
  Holds.Query1 = "/a/b";
  Holds.Query2 = "//b";
  Fails.Id = "fails";
  Fails.Query1 = "//b";
  Fails.Query2 = "/a/b";
  SessionOptions Opts;
  Opts.Jobs = 2;
  AnalysisSession Session(Opts);
  constexpr uint64_t Key = 42;
  auto RunFirst = [&](AnalysisContext &Ctx) {
    EXPECT_TRUE(KeylessRan.wait()); // the second item has been popped
    FirstCtx = &Ctx;
    First = runRequest(Ctx, Holds);
  };
  auto RunSecond = [&](AnalysisContext &Ctx) {
    SecondCtx = &Ctx;
    Second = runRequest(Ctx, Fails);
  };
  ASSERT_EQ(Session.submit(RunFirst, 0, AnalysisSession::NoLimit, Key),
            Admission::Queued);
  ASSERT_EQ(Session.submit(RunSecond, 0, AnalysisSession::NoLimit, Key),
            Admission::Queued);
  ASSERT_EQ(Session.submit([&](AnalysisContext &) { KeylessRan.open(); }),
            Admission::Queued);
  Session.quiesce();
  EXPECT_EQ(SecondCtx, FirstCtx) << "handed over";
  ASSERT_TRUE(First.Ok) << First.Error;
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(First.Id, "holds");
  EXPECT_TRUE(First.Holds);
  EXPECT_EQ(Second.Id, "fails");
  EXPECT_FALSE(Second.Holds);
  EXPECT_EQ(Session.stats().Solves, 2u);
}

TEST(SessionPool, SetJobsDownAndUpKeepsWorkerContextsWarm) {
  SessionOptions Opts;
  Opts.Jobs = 2;
  AnalysisSession Session(Opts);
  // Two items that each wait for the other run on different workers;
  // each loads the wikipedia DTD on its worker's context.
  auto LoadOnBothWorkers = [&Session] {
    std::mutex Mu;
    std::condition_variable Cv;
    int Arrived = 0;
    std::vector<AnalysisContext *> Seen;
    auto Load = [&](AnalysisContext &Ctx) {
      std::string Err;
      EXPECT_NE(Ctx.typeContext("wikipedia", Err), nullptr) << Err;
      std::unique_lock<std::mutex> L(Mu);
      Seen.push_back(&Ctx);
      ++Arrived;
      Cv.notify_all();
      Cv.wait_for(L, std::chrono::seconds(10), [&] { return Arrived == 2; });
    };
    for (int I = 0; I < 2; ++I)
      EXPECT_EQ(Session.submit(Load), Admission::Queued);
    Session.quiesce();
    std::sort(Seen.begin(), Seen.end());
    return Seen;
  };
  std::vector<AnalysisContext *> First = LoadOnBothWorkers();
  ASSERT_EQ(First.size(), 2u);
  EXPECT_NE(First[0], First[1]);
  EXPECT_EQ(Session.stats().DtdCompilations, 2u) << "one per worker";

  Session.setJobs(1);
  EXPECT_EQ(Session.jobs(), 1u);
  Session.setJobs(2);
  EXPECT_EQ(Session.jobs(), 2u);
  EXPECT_EQ(LoadOnBothWorkers(), First) << "the same two contexts serve";
  SessionStats S = Session.stats();
  EXPECT_EQ(S.DtdCompilations, 2u) << "no worker compiled the DTD again";
  EXPECT_EQ(S.DtdCacheHits, 2u);
}

//===----------------------------------------------------------------------===//
// ShardedResultCache
//===----------------------------------------------------------------------===//

/// Runs Fn(I, T) for every I in [0, N) on \p Threads plain threads;
/// thread T takes the indices congruent to T modulo \p Threads.
void onThreads(size_t Threads, size_t N,
               const std::function<void(size_t I, size_t T)> &Fn) {
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      for (size_t I = T; I < N; I += Threads)
        Fn(I, T);
    });
  for (std::thread &T : Ts)
    T.join();
}

/// A result whose payload is \p Iterations (and \p Sat).
std::shared_ptr<const SolverResult> result(size_t Iterations,
                                           bool Sat = false) {
  auto R = std::make_shared<SolverResult>();
  R->Satisfiable = Sat;
  R->Stats.Iterations = Iterations;
  return R;
}

TEST(ShardedResultCache, HitMissEvictAndCounters) {
  ShardedResultCache Cache(/*Capacity=*/2, /*Shards=*/1);
  ASSERT_EQ(Cache.numShards(), 1u);
  EXPECT_EQ(Cache.lookup("a", 0), nullptr);
  Cache.publish("a", 0, result(0, true));
  Cache.publish("b", 0, result(0, true));
  EXPECT_NE(Cache.lookup("a", 0), nullptr); // a is now most recent
  Cache.publish("c", 0, result(0, true));   // evicts b (least recent)
  EXPECT_EQ(Cache.lookup("b", 0), nullptr);
  EXPECT_NE(Cache.lookup("a", 0), nullptr);
  EXPECT_NE(Cache.lookup("c", 0), nullptr);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Insertions, 3u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(ShardedResultCache, OptionsFingerprintSeparatesEntries) {
  ShardedResultCache Cache(8, 4);
  Cache.publish("k", 1, result(0, true));
  Cache.publish("k", 2, result(0, false));
  auto Yes = Cache.lookup("k", 1), No = Cache.lookup("k", 2);
  ASSERT_NE(Yes, nullptr);
  EXPECT_TRUE(Yes->Satisfiable);
  ASSERT_NE(No, nullptr);
  EXPECT_FALSE(No->Satisfiable);
}

TEST(ShardedResultCache, ShardCountClampsToCapacity) {
  EXPECT_EQ(ShardedResultCache(1, 8).numShards(), 1u);
  EXPECT_EQ(ShardedResultCache(6, 8).numShards(), 4u);
  EXPECT_EQ(ShardedResultCache(1024, 8).numShards(), 8u);
  EXPECT_EQ(ShardedResultCache(1024, 5).numShards(), 4u);
  EXPECT_EQ(ShardedResultCache(0, 8).numShards(), 1u);
  ShardedResultCache Off(0, 8);
  EXPECT_FALSE(Off.publish("k", 0, result(1)))
      << "capacity 0 disables the cache";
  EXPECT_EQ(Off.size(), 0u);
}

TEST(ShardedResultCache, HeldHitSurvivesEviction) {
  // lookup hands out the entry itself: a hit held across the eviction
  // of its entry stays intact.
  ShardedResultCache Cache(/*Capacity=*/1, /*Shards=*/1);
  auto Stored = std::make_shared<SolverResult>();
  Stored->Satisfiable = true;
  Stored->Stats.Iterations = 7;
  Stored->Model = Document();
  Stored->Model->addNode("m", InvalidNodeId);
  Cache.publish("a", 0, Stored);
  Stored.reset();
  std::shared_ptr<const SolverResult> Hit = Cache.lookup("a", 0);
  ASSERT_NE(Hit, nullptr);
  Cache.publish("b", 0, result(1)); // evicts a
  EXPECT_EQ(Cache.lookup("a", 0), nullptr);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_TRUE(Hit->Satisfiable);
  EXPECT_EQ(Hit->Stats.Iterations, 7u);
  ASSERT_TRUE(Hit->Model.has_value());
  ASSERT_EQ(Hit->Model->size(), 1u);
  EXPECT_EQ(Hit->Model->labelName(0), "m");
}

TEST(ShardedResultCache, SecondStoreOfAHeldKeyKeepsTheEntry) {
  // A result offer never improves on a held one: the first entry stays,
  // and the refused offer neither counts as an insertion nor touches
  // the LRU order.
  ShardedResultCache Cache(/*Capacity=*/2, /*Shards=*/1);
  EXPECT_TRUE(Cache.publish("a", 0, result(1)));
  EXPECT_TRUE(Cache.publish("b", 0, result(2)));
  EXPECT_FALSE(Cache.publish("a", 0, result(99)));
  auto Held = Cache.lookup("a", 0);
  ASSERT_NE(Held, nullptr);
  EXPECT_EQ(Held->Stats.Iterations, 1u);
  EXPECT_EQ(Cache.stats().Insertions, 2u);
  EXPECT_EQ(Cache.size(), 2u);
  // The lookup, not the refused offer, made a most recent: c evicts b.
  EXPECT_FALSE(Cache.publish("b", 0, result(98)));
  EXPECT_TRUE(Cache.publish("c", 0, result(3)));
  EXPECT_EQ(Cache.lookup("b", 0), nullptr);
  EXPECT_NE(Cache.lookup("a", 0), nullptr);
}

// The TSan target of the suite: many threads hammering one shard (one
// mutex, one LRU list) with a key range larger than the capacity, so
// lookups, insertions and evictions all race on the same structures.
TEST(ShardedResultCache, SingleShardStressUnderContention) {
  constexpr size_t Capacity = 8;
  constexpr size_t KeyRange = 32;
  constexpr size_t Ops = 8000;
  ShardedResultCache Cache(Capacity, /*Shards=*/1);
  ASSERT_EQ(Cache.numShards(), 1u);

  std::atomic<size_t> BadValues{0};
  onThreads(8, Ops, [&](size_t I, size_t) {
    std::string Key = "key" + std::to_string(I % KeyRange);
    if (auto Out = Cache.lookup(Key, 7)) {
      // An entry must round-trip the value stored for its key.
      if (Out->Stats.Iterations != I % KeyRange)
        BadValues.fetch_add(1);
    } else {
      Cache.publish(Key, 7, result(I % KeyRange, true));
    }
  });
  EXPECT_EQ(BadValues.load(), 0u);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses, Ops);
  EXPECT_LE(Cache.size(), Capacity);
  EXPECT_EQ(S.Insertions - S.Evictions, Cache.size());
}

// Satellite of the fixpoint-sharing PR: saveCache walks the cache with
// forEachEntry while a parallel batch may still be publishing. The walk
// must stay coherent under concurrent stores — every visited entry is
// internally consistent, and every entry present before the walk and
// never evicted is visited.
TEST(ShardedResultCache, ForEachEntryUnderConcurrentStores) {
  ShardedResultCache Cache(512, 8);
  // Pre-populate a stable set that eviction cannot touch (capacity is
  // larger than everything the test inserts).
  constexpr size_t Stable = 64, Churn = 256, Ops = 4000;
  for (size_t I = 0; I < Stable; ++I)
    Cache.publish("stable" + std::to_string(I), 1, result(I, true));
  std::atomic<size_t> Bad{0};
  onThreads(8, Ops, [&](size_t I, size_t T) {
    if (T == 0) {
      // One thread repeatedly walks while the others store.
      size_t StableSeen = 0;
      Cache.forEachEntry([&](const std::string &Key, uint32_t OptsKey,
                             const SolverResult &R) {
        if (OptsKey == 1) {
          ++StableSeen;
          // Stable entries must round-trip their payload.
          if (Key != "stable" + std::to_string(R.Stats.Iterations))
            Bad.fetch_add(1);
        } else if (OptsKey != 2) {
          Bad.fetch_add(1);
        }
      });
      if (StableSeen != Stable)
        Bad.fetch_add(1);
    } else {
      Cache.publish("churn" + std::to_string(I % Churn), 2, result(I % Churn));
    }
  });
  EXPECT_EQ(Bad.load(), 0u);
}

TEST(SharedFixpointStore, BudgetHoldsUnderConcurrentPublishes) {
  // 100 keys of equal cost race over a store with room for four of them
  // per shard. Every key is offered in turn as a prefix and as the
  // converged sequence of the same length, so improving offers replace
  // entries while other publishes evict them.
  auto Seed = [](bool Converged) {
    auto Data = std::make_shared<FixpointSeedData>();
    Data->Converged = Converged;
    // Two iterates over one table: entries 0-1, then entries 0-2.
    BddSnapshot &T = Data->Iterates;
    T.Nodes = {{2, 0, 1}, {1, 0, 2}, {0, 3, 1}};
    T.Roots = {3, 4};
    T.Ends = {2, 3};
    return Data;
  };
  auto Sig = [](size_t K) { return "sig" + std::to_string(100 + K % 100); };
  const size_t Cost = SharedFixpointStore::cost(Sig(0), *Seed(false));
  const size_t Budget = 8 * 4 * Cost;
  SharedFixpointStore Store(Budget, 8);
  ASSERT_EQ(Store.numShards(), 8u);
  std::atomic<size_t> Bad{0};
  onThreads(4, 4000, [&](size_t I, size_t) {
    Store.publish(Sig(I), 0, Seed(I / 100 % 2 == 1));
    if (auto Got = Store.lookup(Sig(I * 7), 0))
      if (Got->Iterates.numRoots() != 2 || Got->Iterates.nodeCount() != 3 ||
          Got->Iterates.Ends[0] != 2)
        Bad.fetch_add(1);
  });
  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_GT(Store.stats().Evictions, 0u);
  EXPECT_LE(Store.size() * Cost, Budget);
  for (size_t K = 0; K < 100; ++K)
    if (auto Got = Store.lookup(Sig(K), 0)) {
      EXPECT_EQ(Got->Iterates.numRoots(), 2u);
    }
}

TEST(ShardedResultCache, MultiShardConcurrentMixedUse) {
  ShardedResultCache Cache(256, 8);
  onThreads(4, 4000, [&](size_t I, size_t) {
    std::string Key = "q" + std::to_string(I % 100);
    if (auto Out = Cache.lookup(Key, 0))
      EXPECT_EQ(Out->Stats.Iterations, I % 100);
    else
      Cache.publish(Key, 0, result(I % 100));
  });
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses, 4000u);
  EXPECT_LE(Cache.size(), 256u);
}

//===----------------------------------------------------------------------===//
// Parallel batch dispatch
//===----------------------------------------------------------------------===//

/// A mixed workload touching every shape of determinism risk: duplicate
/// requests, both directions of a containment (semantic overlap between
/// distinct requests), a model-bearing satisfiable overlap, raw Lµ sat,
/// a DTD-constrained query, and an error response.
const char *mixedInput() {
  return
      R"({"id":"q1","op":"contains","e1":"/a/b","e2":"//b"})" "\n"
      R"({"id":"q2","op":"overlap","e1":"//a","e2":"//b"})" "\n"
      R"({"id":"q3","op":"empty","e1":"a/b[parent::c]"})" "\n"
      R"({"id":"q4","op":"contains","e1":"/a/b","e2":"//b"})" "\n"
      R"json({"id":"q5","op":"sat","f":"<1>(a & <2>b)"})json" "\n"
      R"({"id":"q6","op":"overlap","e1":"//b","e2":"/a/b"})" "\n"
      R"({"id":"q7","op":"equiv","e1":"/a/b","e2":"/a/b[c] | /a/b[not(c)]"})" "\n"
      R"({"id":"q8","op":"empty","e1":"//unknown","dtd":"wikipedia"})" "\n"
      R"({"id":"q9","op":"contains","e1":"//b"})" "\n"; // error: missing e2
}

TEST(ParallelBatch, WarmMultiThreadOutputByteIdenticalToSerial) {
  AnalysisSession Session;
  // Cold run (jobs=1) populates the shared cache.
  runLinesRaw(Session, mixedInput());

  // Warm serial vs warm 4-worker: the full JSON-lines output, timing
  // fields included, must be byte-identical — every response is served
  // from the same shared cache entries.
  std::string WarmSerial = runLinesRaw(Session, mixedInput());
  Session.setJobs(4);
  std::string WarmParallel = runLinesRaw(Session, mixedInput());
  EXPECT_EQ(WarmSerial, WarmParallel);

  // No new solver runs happened in either warm pass.
  SessionStats S = Session.stats();
  EXPECT_GT(S.Cache.Hits, 0u);
}

TEST(ParallelBatch, ColdStableOutputIndependentOfJobCount) {
  // Two fresh sessions, 1 vs 4 workers, stable encoding (no cache /
  // time_ms fields): output must be byte-identical even though the
  // parallel session computes on four independent FormulaFactories.
  AnalysisSession Serial;
  std::string OutSerial = runLinesRaw(Serial, mixedInput(), /*Stable=*/true);

  SessionOptions POpts;
  POpts.Jobs = 4;
  AnalysisSession Parallel(POpts);
  std::string OutParallel =
      runLinesRaw(Parallel, mixedInput(), /*Stable=*/true);
  EXPECT_EQ(OutSerial, OutParallel);
}

TEST(ParallelBatch, StableOutputByteIdenticalWithTracingEnabled) {
  // The tracer's determinism contract (obs/Trace.h): spans observe, they
  // never decide, so --stable output at any job count must be
  // byte-identical with tracing on or off.
  SessionOptions Opts;
  Opts.Jobs = 4;
  AnalysisSession Untraced(Opts);
  std::string OutUntraced =
      runLinesRaw(Untraced, mixedInput(), /*Stable=*/true);

  Tracer::global().start();
  AnalysisSession Traced(Opts);
  std::string OutTraced = runLinesRaw(Traced, mixedInput(), /*Stable=*/true);
  Tracer::global().stop();

  EXPECT_EQ(OutUntraced, OutTraced);
  // Tracing did actually happen — the batch produced spans.
  EXPECT_GT(Tracer::global().eventCount(), 0u);
}

TEST(ParallelBatch, TracingAddsStageBreakdownToVolatileOutputOnly) {
  // Non-stable responses gain a per-request "stages" object while the
  // tracer runs; stable responses never carry it.
  SessionOptions Opts;
  Opts.Jobs = 2;
  Tracer::global().start();
  AnalysisSession Session(Opts);
  std::string Volatile = runLinesRaw(Session, mixedInput());
  AnalysisSession Stable(Opts);
  std::string StableOut = runLinesRaw(Stable, mixedInput(), /*Stable=*/true);
  Tracer::global().stop();
  EXPECT_NE(Volatile.find("\"stages\""), std::string::npos);
  EXPECT_EQ(StableOut.find("\"stages\""), std::string::npos);
}

TEST(ParallelBatch, DuplicateRequestsReportedAsHitsLikeSerial) {
  SessionOptions Opts;
  Opts.Jobs = 4;
  AnalysisSession Session(Opts);
  std::vector<AnalysisRequest> Reqs = {
      containsReq("a", "/a/b", "//b"),
      containsReq("b", "//b", "/a/b"),
      containsReq("a2", "/a/b", "//b"),
      containsReq("b2", "//b", "/a/b"),
  };
  std::vector<AnalysisResponse> Resps = runBatch(Session, Reqs);
  ASSERT_EQ(Resps.size(), 4u);
  for (const AnalysisResponse &R : Resps)
    EXPECT_TRUE(R.Ok) << R.Error;
  // The textual duplicates are answered as cache hits of the first
  // occurrence, exactly like a serial run through the semantic cache.
  EXPECT_FALSE(Resps[0].FromCache);
  EXPECT_FALSE(Resps[1].FromCache);
  EXPECT_TRUE(Resps[2].FromCache);
  EXPECT_TRUE(Resps[3].FromCache);
  EXPECT_EQ(Resps[2].Holds, Resps[0].Holds);
  EXPECT_EQ(Resps[3].Holds, Resps[1].Holds);
  EXPECT_EQ(Resps[2].Id, "a2");
  EXPECT_EQ(Resps[3].Id, "b2");
}

TEST(ParallelBatch, StatsExactUnderConcurrentDispatch) {
  // K distinct one-problem requests across 4 workers: the atomic
  // counters must account for exactly K solver runs and K misses.
  constexpr size_t K = 12;
  SessionOptions Opts;
  Opts.Jobs = 4;
  AnalysisSession Session(Opts);
  std::vector<AnalysisRequest> Reqs;
  for (size_t I = 0; I < K; ++I) {
    AnalysisRequest R;
    R.Id = "s" + std::to_string(I);
    R.Kind = RequestKind::Emptiness;
    R.Query1 = "/r" + std::to_string(I) + "/x";
    Reqs.push_back(R);
  }
  std::vector<AnalysisResponse> Resps = runBatch(Session, Reqs);
  for (const AnalysisResponse &R : Resps)
    EXPECT_TRUE(R.Ok) << R.Error;
  SessionStats S = Session.stats();
  EXPECT_EQ(S.Solves, K);
  EXPECT_EQ(S.Cache.Misses, K);
  EXPECT_EQ(S.Cache.Insertions, K);
  EXPECT_EQ(S.Cache.Hits, 0u);
  EXPECT_EQ(S.QueriesParsed, K) << "each distinct query parsed once";
}

TEST(ParallelBatch, ConfigLineSwitchesJobsMidStream) {
  const std::string Input =
      R"({"id":"q1","op":"empty","e1":"//b"})" "\n"
      R"({"id":"cfg","op":"config","jobs":3})" "\n"
      R"({"id":"q2","op":"empty","e1":"//c"})" "\n";
  AnalysisSession Session;
  EXPECT_EQ(Session.jobs(), 1u);
  std::vector<JsonRef> Resps = runLines(Session, Input);
  ASSERT_EQ(Resps.size(), 3u);
  EXPECT_TRUE(Resps[0]->get("ok")->asBool());
  EXPECT_TRUE(Resps[1]->get("ok")->asBool());
  EXPECT_EQ(Resps[1]->get("jobs")->asNumber(), 3);
  EXPECT_EQ(Resps[1]->str("id"), "cfg");
  EXPECT_TRUE(Resps[2]->get("ok")->asBool());
  EXPECT_EQ(Session.jobs(), 3u);

  // A config line without 'jobs', with a count no size_t holds, or with
  // the retired sharing switch is an error response, not a stop. The bad
  // values are answered as xsolved answers them: invalid_config_value
  // naming the key; the switch is no key at all.
  std::vector<JsonRef> Bad =
      runLines(Session, R"({"op":"config"})" "\n"
                        R"({"op":"config","jobs":1e30})" "\n"
                        R"({"op":"config","jobs":-1})" "\n"
                        R"({"op":"config","share_fixpoints":"yes"})" "\n");
  ASSERT_EQ(Bad.size(), 4u);
  for (const JsonRef &R : Bad)
    EXPECT_FALSE(R->get("ok")->asBool());
  const char *BadCodes[] = {"invalid_config_value", "invalid_config_value",
                            "unknown_config_key"};
  const char *BadKeys[] = {"jobs", "jobs", "share_fixpoints"};
  for (size_t I = 1; I < Bad.size(); ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(Bad[I]->get("error")->str("code"), BadCodes[I - 1]);
    EXPECT_EQ(Bad[I]->get("error")->str("key"), BadKeys[I - 1]);
  }
  EXPECT_EQ(Session.jobs(), 3u);
}

//===----------------------------------------------------------------------===//
// Persistent cache
//===----------------------------------------------------------------------===//

TEST(PersistentCache, SaveLoadWarmsAFreshSession) {
  std::string Path = testing::TempDir() + "xsa_service_test_cache.jsonl";
  std::remove(Path.c_str());

  AnalysisSession A;
  runLinesRaw(A, mixedInput());
  std::string WarmA = runLinesRaw(A, mixedInput(), /*Stable=*/true);
  size_t SolvesA = A.stats().Solves;
  EXPECT_GT(SolvesA, 0u);
  std::string Error;
  ASSERT_TRUE(A.saveCache(Path, Error)) << Error;

  // A fresh session loaded from disk answers the whole batch without a
  // single solver run, with the same deterministic payload.
  AnalysisSession B;
  ASSERT_TRUE(B.loadCache(Path, Error)) << Error;
  std::string WarmB = runLinesRaw(B, mixedInput(), /*Stable=*/true);
  EXPECT_EQ(WarmA, WarmB);
  EXPECT_EQ(B.stats().Solves, 0u) << "every result came from the loaded cache";
  EXPECT_EQ(B.stats().Cache.Misses, 0u);

  // Loading junk fails cleanly.
  AnalysisSession C;
  EXPECT_FALSE(C.loadCache("/nonexistent/cache.jsonl", Error));
  std::remove(Path.c_str());
}

TEST(PersistentCache, SaveLoadRoundTripPreservesEntryCount) {
  std::string Path = testing::TempDir() + "xsa_service_test_cache2.jsonl";
  std::remove(Path.c_str());
  AnalysisSession A;
  runLinesRaw(A, mixedInput());
  size_t Size = A.resultCache().size();
  EXPECT_GT(Size, 0u);
  std::string Error;
  ASSERT_TRUE(A.saveCache(Path, Error)) << Error;
  AnalysisSession B;
  ASSERT_TRUE(B.loadCache(Path, Error)) << Error;
  EXPECT_EQ(B.resultCache().size(), Size);
  std::remove(Path.c_str());
}

TEST(PersistentCache, VersionHeaderIsEnforced) {
  std::string Path = testing::TempDir() + "xsa_service_test_ver.jsonl";
  auto WriteFile = [&](const std::string &Content) {
    std::ofstream Out(Path, std::ios::trunc);
    Out << Content;
  };
  std::string Error;

  // A v1 file (results only) still loads.
  WriteFile("{\"xsa_cache\":1}\n"
            "{\"k\":\"legacy-key\",\"o\":3,\"sat\":true,\"lean\":4,"
            "\"iter\":2,\"bdd\":10,\"time_ms\":0.5}\n");
  AnalysisSession V1;
  ASSERT_TRUE(V1.loadCache(Path, Error)) << Error;
  EXPECT_EQ(V1.resultCache().size(), 1u);

  // An unknown future version is rejected outright, not half-parsed.
  WriteFile("{\"xsa_cache\":99}\n{\"k\":\"x\",\"o\":0,\"sat\":true}\n");
  AnalysisSession V99;
  EXPECT_FALSE(V99.loadCache(Path, Error));
  EXPECT_NE(Error.find("unsupported"), std::string::npos) << Error;
  EXPECT_EQ(V99.resultCache().size(), 0u);

  // A non-numeric version is not a cache file.
  WriteFile("{\"xsa_cache\":\"two\"}\n");
  AnalysisSession Bad;
  EXPECT_FALSE(Bad.loadCache(Path, Error));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Cross-request fixpoint sharing
//===----------------------------------------------------------------------===//

/// Same-shaped requests over per-index alphabets: textually distinct,
/// semantically distinct, but every lean is isomorphic within a shape —
/// the workload fixpoint sharing exists for.
std::string nearDuplicateInput(size_t Groups, size_t Offset = 0) {
  std::string In;
  for (size_t I = Offset; I < Offset + Groups; ++I) {
    std::string N = std::to_string(I);
    In += "{\"id\":\"c" + N + "\",\"op\":\"contains\",\"e1\":\"/a" + N +
          "/b" + N + "\",\"e2\":\"//b" + N + "\"}\n";
    In += "{\"id\":\"o" + N + "\",\"op\":\"overlap\",\"e1\":\"//a" + N +
          "/b" + N + "\",\"e2\":\"//b" + N + "[c" + N + "]\"}\n";
  }
  return In;
}

/// The unshared reference for \p Input: every line answered on a
/// standalone context (no result cache, no fixpoint store) and encoded
/// as --stable encodes it. \p Iterations receives the cold iteration
/// total.
std::string unsharedReference(const std::string &Input, size_t &Iterations) {
  AnalysisContext Ctx;
  std::istringstream In(Input);
  std::string Line, Out;
  Iterations = 0;
  while (std::getline(In, Line)) {
    std::string Error;
    JsonRef Obj = parseJson(Line, Error);
    AnalysisRequest Req;
    EXPECT_TRUE(Obj && requestFromJson(*Obj, Req, Error)) << Error;
    AnalysisResponse R = runRequest(Ctx, Req);
    EXPECT_EQ(R.Stats.IterationsReplayed, 0u);
    Iterations += R.Stats.Iterations;
    Out += responseToJson(R, /*IncludeVolatile=*/false)->dump() + "\n";
  }
  return Out;
}

TEST(FixpointSharing, SharingIsOutputInvisibleAndSkipsIterations) {
  std::string Input = nearDuplicateInput(4);
  size_t ColdIterations = 0;
  std::string Expected = unsharedReference(Input, ColdIterations);

  AnalysisSession Session;
  EXPECT_EQ(runLinesRaw(Session, Input, /*Stable=*/true), Expected)
      << "sharing must not change any response byte";

  SessionStats S = Session.stats();
  EXPECT_GT(S.FixpointSeededRuns, 0u);
  EXPECT_GT(S.FixpointIterationsReplayed, 0u);
  EXPECT_GT(S.Fixpoints.Hits, 0u);
  // The semantic iteration totals agree; only the computed share drops.
  EXPECT_EQ(S.SolverIterations, ColdIterations);
  EXPECT_LT(S.SolverIterations - S.FixpointIterationsReplayed,
            ColdIterations);
}

TEST(FixpointSharing, ColdParallelSeededOutputMatchesSerial) {
  // The acceptance criterion: an N-thread cold batch is byte-identical
  // to the 1-thread run under --stable encoding, even though which runs
  // get seeded differs with scheduling.
  std::string Input = nearDuplicateInput(6);
  AnalysisSession S1;
  std::string Out1 = runLinesRaw(S1, Input, /*Stable=*/true);

  SessionOptions Parallel;
  Parallel.Jobs = 4;
  AnalysisSession S4(Parallel);
  std::string Out4 = runLinesRaw(S4, Input, /*Stable=*/true);
  EXPECT_EQ(Out1, Out4);
}

TEST(PersistentCache, LegacyStrategyLinesAreSkipped) {
  // Earlier versions appended per-lean strategy choices ("st" lines),
  // optimized query forms ("oq" lines) and fixpoint-store sequences
  // ("fx" lines) to the cache file. The loader skips all three line
  // shapes, and every other entry of such a file still loads and hits.
  std::string Path = testing::TempDir() + "xsa_service_test_st.jsonl";
  std::remove(Path.c_str());
  std::string Input = nearDuplicateInput(3);
  std::string Expected;
  {
    AnalysisSession A;
    Expected = runLinesRaw(A, Input, /*Stable=*/true);
    std::string Error;
    ASSERT_TRUE(A.saveCache(Path, Error)) << Error;
  }
  {
    std::ofstream Out(Path, std::ios::app);
    Out << "{\"st\":\"legacy-lean\",\"strategy\":\"chaining\"}\n";
    Out << "{\"oq\":\"a//b\",\"dtd\":\"\",\"dfp\":\"00000000000000ff\","
           "\"opt\":\"child::a\"}\n";
    Out << "{\"fx\":\"legacy-lean\",\"o\":1,\"conv\":true,"
           "\"snaps\":[\"2 1 0 0 1\",\"2 1 0 0 1\"]}\n";
  }
  AnalysisSession B;
  std::string Error;
  ASSERT_TRUE(B.loadCache(Path, Error)) << Error;
  EXPECT_EQ(B.fixpointStore().size(), 0u) << "sequences are not loaded";
  EXPECT_EQ(runLinesRaw(B, Input, /*Stable=*/true), Expected);
  EXPECT_EQ(B.stats().Solves, 0u) << "every request hits the loaded cache";
  EXPECT_EQ(B.stats().Cache.Misses, 0u);
  std::remove(Path.c_str());
}

TEST(PersistentCache, OutOfRangeNumbersDropOnlyTheirEntry) {
  // A number an integer field cannot hold (negative, past the type's
  // range, or the infinity "1e400" parses to) marks its entry corrupt:
  // the loader drops that entry instead of casting it, and loads the
  // rest of the file.
  std::string Path = testing::TempDir() + "xsa_service_test_range.jsonl";
  auto Entry = [](const std::string &Key, const std::string &Field,
                  const std::string &Value) {
    std::string Fields[][2] = {
        {"o", "0"}, {"lean", "4"}, {"iter", "2"}, {"bdd", "10"}};
    std::string Line = "{\"k\":\"" + Key + "\",\"sat\":true";
    for (auto &[Name, Default] : Fields)
      Line += ",\"" + Name + "\":" + (Name == Field ? Value : Default);
    return Line + ",\"time_ms\":0.5}\n";
  };
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"xsa_cache\":2}\n"
        << Entry("neg-opts", "o", "-1") << Entry("wide-opts", "o", "4294967296")
        << Entry("neg-lean", "lean", "-3") << Entry("inf-iter", "iter", "1e400")
        << Entry("huge-bdd", "bdd", "1e30") << Entry("good", "", "");
  }
  AnalysisSession S;
  std::string Error;
  ASSERT_TRUE(S.loadCache(Path, Error)) << Error;
  EXPECT_EQ(S.resultCache().size(), 1u);
  auto R = S.resultCache().lookup("good", 0);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Stats.LeanSize, 4u);
  EXPECT_EQ(R->Stats.Iterations, 2u);
  std::remove(Path.c_str());
}

TEST(PersistentCache, SaveLoadSaveIsByteIdentical) {
  // A save → load → save round trip must be a fixpoint of the file
  // format: reloading a file and saving it again reproduces it byte for
  // byte — repeated server drains never grow or reorder the cache file.
  // The session's fixpoint store holds sequences, but they stay in
  // memory: the file carries results only.
  std::string P1 = testing::TempDir() + "xsa_service_test_rt1.jsonl";
  std::string P2 = testing::TempDir() + "xsa_service_test_rt2.jsonl";
  std::string Error;
  {
    AnalysisSession A;
    runLinesRaw(A, nearDuplicateInput(4));
    ASSERT_GT(A.fixpointStore().size(), 0u);
    ASSERT_TRUE(A.saveCache(P1, Error)) << Error;
  }
  AnalysisSession B;
  ASSERT_TRUE(B.loadCache(P1, Error)) << Error;
  ASSERT_TRUE(B.saveCache(P2, Error)) << Error;

  auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    std::ostringstream S;
    S << In.rdbuf();
    return S.str();
  };
  std::string First = Slurp(P1);
  EXPECT_EQ(First.find("{\"fx\":"), std::string::npos);
  EXPECT_NE(First.find("{\"k\":"), std::string::npos);
  EXPECT_EQ(Slurp(P2), First);
  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

//===----------------------------------------------------------------------===//
// Protocol hardening (shared by `xsolve batch` and xsolved)
//===----------------------------------------------------------------------===//

TEST(BatchJsonLines, StructuredErrorsCarryLineAndBytePositions) {
  const std::string Input =
      R"({"id":"ok","op":"empty","e1":"//b"})" "\n"
      "{\"op\":\"contains\",,}\n"; // parse error on line 2
  AnalysisSession Session;
  std::vector<JsonRef> Resps = runLines(Session, Input);
  ASSERT_EQ(Resps.size(), 2u);
  EXPECT_TRUE(Resps[0]->get("ok")->asBool());
  EXPECT_FALSE(Resps[1]->get("ok")->asBool());
  JsonRef E = Resps[1]->get("error");
  ASSERT_EQ(E->type(), JsonValue::Type::Object);
  EXPECT_EQ(E->str("code"), "bad_request");
  EXPECT_EQ(E->get("line")->asNumber(), 2);
  EXPECT_GT(E->get("byte")->asNumber(), 0);
}

TEST(BatchJsonLines, OversizedLinesAreRejectedWithoutAbortingTheStream) {
  // A line past the bound is consumed (never buffered whole), answered
  // with a structured bad_request carrying its line number, and the
  // lines after it still run.
  std::string Long = R"({"id":"big","op":"empty","e1":"//)" +
                     std::string(300, 'a') + "\"}";
  const std::string Input =
      R"({"id":"ok1","op":"empty","e1":"//b"})" "\n" + Long + "\n" +
      R"({"id":"ok2","op":"empty","e1":"//c"})" "\n";
  AnalysisSession Session;
  std::istringstream In(Input);
  std::ostringstream Out;
  size_t Failed = 0;
  BatchStreamOptions Opts;
  Opts.MaxLineBytes = 128;
  runBatchJsonLines(Session, In, Out, &Failed, Opts);
  EXPECT_EQ(Failed, 1u);
  std::vector<JsonRef> Resps;
  std::istringstream Parse(Out.str());
  std::string Line;
  std::string Err;
  while (std::getline(Parse, Line))
    Resps.push_back(parseJson(Line, Err));
  ASSERT_EQ(Resps.size(), 3u);
  EXPECT_TRUE(Resps[0]->get("ok")->asBool());
  EXPECT_FALSE(Resps[1]->get("ok")->asBool());
  JsonRef E = Resps[1]->get("error");
  ASSERT_EQ(E->type(), JsonValue::Type::Object);
  EXPECT_EQ(E->str("code"), "bad_request");
  EXPECT_NE(E->str("message").find("exceeds"), std::string::npos);
  EXPECT_EQ(E->get("line")->asNumber(), 2);
  EXPECT_TRUE(Resps[2]->get("ok")->asBool()) << "stream must continue";
}

TEST(BatchJsonLines, StopFlagEndsTheStreamBetweenLines) {
  // The drain flag `xsolve batch` flips on SIGINT/SIGTERM: once set, no
  // further input lines are consumed and the driver returns normally
  // (the caller then flushes its cache file on the usual exit path).
  const std::string Input =
      R"({"id":"q1","op":"empty","e1":"//b"})" "\n"
      R"({"id":"q2","op":"empty","e1":"//c"})" "\n";
  AnalysisSession Session;
  std::istringstream In(Input);
  std::ostringstream Out;
  std::atomic<bool> Stop{true};
  BatchStreamOptions Opts;
  Opts.Stop = &Stop;
  runBatchJsonLines(Session, In, Out, nullptr, Opts);
  EXPECT_EQ(Out.str(), "") << "no lines consumed after the stop flag";
  EXPECT_EQ(Session.stats().Solves, 0u);
}

} // namespace
