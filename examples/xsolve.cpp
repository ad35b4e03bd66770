//===- xsolve.cpp - Command-line front end to the solver -------------------===//
//
// A small CLI in the spirit of the system the paper describes (§7-§8):
//
//   xsolve sat '<formula>'                 Lµ satisfiability + model
//   xsolve empty '<xpath>' [dtd-file]      XPath emptiness
//   xsolve contains '<e1>' '<e2>' [dtd]    XPath containment
//   xsolve overlap '<e1>' '<e2>' [dtd]     XPath overlap
//   xsolve compile '<xpath>'               print the Lµ translation
//   xsolve validate <xml-file> <dtd-file>  DTD validation
//   xsolve batch [file|-] [--jobs N] [--cache-file F] [--stable]
//
// All solver-backed commands run through an AnalysisSession, so repeated
// (or α-equivalent) queries within one invocation — typical in batch
// mode — are answered from the session's semantic result cache. Batch
// mode additionally dispatches independent requests across --jobs worker
// threads (responses stay in input order), persists the result cache to
// --cache-file across invocations, and with --stable omits the
// execution-dependent response fields (cache, time_ms) so output is
// byte-identical at any job count.
//
// DTD arguments may be a file path or one of the builtin names
// `wikipedia`, `smil`, `xhtml`.
//
//===----------------------------------------------------------------------===//

#include "analysis/Problems.h"
#include "logic/CycleFree.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/Batch.h"
#include "service/Session.h"
#include "logic/Parser.h"
#include "tree/Xml.h"
#include "xpath/Compile.h"
#include "xpath/Parser.h"
#include "xtype/BuiltinDtds.h"
#include "xtype/Validate.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace xsa;

namespace {

/// SIGINT/SIGTERM request a graceful batch drain: the stream driver
/// stops reading at the next line boundary, answers everything already
/// read, and the normal exit path (cache save, metrics, stats) runs.
std::atomic<bool> GStopRequested{false};

extern "C" void onStopSignal(int) { GStopRequested.store(true); }

/// Installed without SA_RESTART so a blocking stdin read fails with
/// EINTR instead of resuming — that is what lets the driver notice the
/// flag while parked in a read.
void installStopHandler() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  xsolve sat '<formula>'\n"
      "  xsolve compile '<xpath>'\n"
      "  xsolve empty '<xpath>' [dtd]\n"
      "  xsolve contains '<e1>' '<e2>' [dtd]\n"
      "  xsolve overlap '<e1>' '<e2>' [dtd]\n"
      "  xsolve validate <xml-file> <dtd>\n"
      "  xsolve optimize '<xpath>' [dtd]\n"
      "  xsolve batch [file|-] [--jobs N] [--cache-file F] [--stable]\n"
      "               [--trace-file F] [--metrics-file F]\n"
      "  xsolve replay <slowlog.json|-> [--out F] [batch flags]\n"
      "where [dtd] is a file path or one of: wikipedia, smil, xhtml.\n"
      "optimize rewrites the query rule by rule, accepting a candidate\n"
      "only when the solver proves it equivalent under the DTD, and\n"
      "prints the optimized query with the per-rule proof trace.\n"
      "batch reads one JSON request per line, e.g.\n"
      "  {\"id\":\"q1\",\"op\":\"contains\",\"e1\":\"/a//b\","
      "\"e2\":\"//b\",\"dtd\":\"xhtml\"}\n"
      "(ops: sat empty contains overlap cover equiv typecheck optimize;\n"
      " {\"op\":\"config\",\"jobs\":N} reconfigures mid-stream)\n"
      "replay turns a slow-query log entry (xsolved /slowlog output, one\n"
      "JSON object or a dump array) into a batch run that re-executes the\n"
      "recorded request; --out F writes the generated batch file instead\n"
      "of running it.\n"
      "batch flags:\n"
      "  --jobs N        dispatch across N worker threads (0 = all cores)\n"
      "  --cache-file F  load the result cache from F on start (if it\n"
      "                  exists) and save it back on exit\n"
      "  --stable        omit execution-dependent fields (cache, time_ms)\n"
      "                  so output is byte-identical at any job count\n"
      "  --trace-file F  record spans for every pipeline stage and write\n"
      "                  them as Chrome trace-event JSON to F (open in\n"
      "                  Perfetto / chrome://tracing); response output is\n"
      "                  unchanged\n"
      "  --metrics-file F\n"
      "                  write the process metric registry to F in\n"
      "                  Prometheus text format on exit (see also the\n"
      "                  {\"op\":\"metrics\"} protocol line)\n");
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

ExprRef parseQuery(const char *Src) {
  std::string Error;
  ExprRef E = parseXPath(Src, Error);
  if (!E)
    std::fprintf(stderr, "error: %s\n", Error.c_str());
  return E;
}

/// Collects slowlog record objects from any of the shapes `xsolve
/// replay` accepts: one record object, a /slowlog dump object (its
/// "records" array), or a bare array of either.
void collectSlowlogRecords(const JsonRef &V, std::vector<JsonRef> &Out) {
  if (!V)
    return;
  if (V->type() == JsonValue::Type::Array) {
    for (const JsonRef &E : V->items())
      collectSlowlogRecords(E, Out);
    return;
  }
  if (V->type() != JsonValue::Type::Object)
    return;
  // A dump object: xsolved's /slowlog and {"op":"slowlog"} responses
  // carry "entries"; accept "records" as a synonym for hand-built input.
  for (const char *Key : {"entries", "records"}) {
    JsonRef Recs = V->get(Key);
    if (Recs && Recs->type() == JsonValue::Type::Array) {
      collectSlowlogRecords(Recs, Out);
      return;
    }
  }
  Out.push_back(V);
}

/// Turns slowlog JSON (one record, a /slowlog dump, an array, or
/// JSON-lines of records) into batch text: for each record that carries
/// a reproduction payload, its "request" object stripped of server-only
/// fields. A "config" object older slowlogs carry is ignored.
bool slowlogToBatch(const std::string &Text, std::string &BatchText,
                    std::string &Error) {
  std::vector<JsonRef> Parsed;
  std::string ParseError;
  if (JsonRef Root = parseJson(Text, ParseError)) {
    Parsed.push_back(Root);
  } else {
    // Not one document — try JSON-lines (e.g. concatenated records).
    std::istringstream In(Text);
    std::string Line;
    size_t LineNo = 0;
    while (std::getline(In, Line)) {
      ++LineNo;
      if (Line.find_first_not_of(" \t\r") == std::string::npos)
        continue;
      std::string LineError;
      JsonRef V = parseJson(Line, LineError);
      if (!V) {
        Error = "line " + std::to_string(LineNo) + ": " + LineError;
        return false;
      }
      Parsed.push_back(V);
    }
    if (Parsed.empty()) {
      Error = ParseError;
      return false;
    }
  }

  std::vector<JsonRef> Records;
  for (const JsonRef &V : Parsed)
    collectSlowlogRecords(V, Records);
  if (Records.empty()) {
    Error = "no slowlog records in input";
    return false;
  }

  size_t Skipped = 0;
  for (const JsonRef &R : Records) {
    JsonRef Req = R->get("request");
    if (!Req || Req->type() != JsonValue::Type::Object) {
      // Records captured before request payloads were recorded (or
      // hand-trimmed dumps) cannot be replayed; say so rather than
      // silently shrinking the batch.
      ++Skipped;
      continue;
    }
    // The admitted request verbatim, minus fields only the server's
    // admission queue interprets.
    JsonRef Clean = JsonValue::object();
    for (const auto &[Key, Val] : Req->members())
      if (Key != "priority" && Key != "deadline_ms")
        Clean->set(Key, Val);
    BatchText += Clean->dump();
    BatchText += '\n';
  }
  if (Skipped)
    std::fprintf(stderr,
                 "warning: skipped %zu record(s) without a request payload\n",
                 Skipped);
  if (BatchText.empty()) {
    Error = "no replayable records (none carry a request payload)";
    return false;
  }
  return true;
}

void report(const AnalysisResult &R, const char *YesMsg, const char *NoMsg) {
  std::printf("%s  (lean=%zu, %zu iterations, %.1f ms%s)\n",
              R.Holds ? YesMsg : NoMsg, R.Stats.LeanSize, R.Stats.Iterations,
              R.Stats.TimeMs, R.FromCache ? ", cached" : "");
  if (R.Tree) {
    std::printf("%s", printXml(*R.Tree, R.Target).c_str());
  }
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  AnalysisSession Session;
  FormulaFactory &FF = Session.factory();

  if (Cmd == "batch" || Cmd == "replay") {
    const bool Replay = Cmd == "replay";
    std::string Path = "-";
    std::string CacheFile;
    std::string TraceFile;
    std::string MetricsFile;
    std::string OutFile;
    bool Stable = false;
    bool HaveJobs = false;
    size_t Jobs = 1;
    for (int I = 2; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Replay && Arg == "--out" && I + 1 < argc) {
        OutFile = argv[++I];
      } else if (Arg == "--jobs" && I + 1 < argc) {
        char *End = nullptr;
        long N = std::strtol(argv[++I], &End, 10);
        if (N < 0 || End == argv[I] || *End != '\0') {
          std::fprintf(stderr, "error: --jobs needs a non-negative integer\n");
          return usage();
        }
        Jobs = static_cast<size_t>(N);
        HaveJobs = true;
      } else if (Arg == "--cache-file" && I + 1 < argc) {
        CacheFile = argv[++I];
      } else if (Arg == "--trace-file" && I + 1 < argc) {
        TraceFile = argv[++I];
      } else if (Arg == "--metrics-file" && I + 1 < argc) {
        MetricsFile = argv[++I];
      } else if (Arg == "--stable") {
        Stable = true;
      } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
        std::fprintf(stderr, "error: unknown %s flag %s\n", Cmd.c_str(),
                     Arg.c_str());
        return usage();
      } else {
        Path = Arg;
      }
    }
    // Replay preprocessing: turn the slowlog input into batch text
    // before any session state is touched, so --out can exit without
    // side effects.
    std::string ReplayBatch;
    if (Replay) {
      std::string Text;
      if (Path == "-") {
        std::ostringstream SS;
        SS << std::cin.rdbuf();
        Text = SS.str();
      } else if (!readFile(Path, Text)) {
        std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
        return 1;
      }
      std::string Error;
      if (!slowlogToBatch(Text, ReplayBatch, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      if (!OutFile.empty()) {
        std::ofstream Out(OutFile);
        if (!Out) {
          std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
          return 1;
        }
        Out << ReplayBatch;
        return 0;
      }
    }
    if (HaveJobs)
      Session.setJobs(Jobs);
    if (!CacheFile.empty()) {
      std::string Error;
      // A missing cache file just means a cold start; any other load
      // problem is worth a warning but not a refusal to serve.
      std::ifstream Probe(CacheFile);
      if (Probe && !Session.loadCache(CacheFile, Error))
        std::fprintf(stderr, "warning: %s\n", Error.c_str());
    }
    // Tracing starts before the first request and stops (quiescently —
    // runBatchJsonLines has returned, so no spans are in flight) before
    // export. With no --trace-file the tracer stays disabled and every
    // span is a single relaxed load.
    if (!TraceFile.empty())
      Tracer::global().start();
    // An interrupted batch drains instead of aborting: the handler flips
    // the stop flag, the driver answers what it already read, and the
    // cache file is still flushed below.
    installStopHandler();
    BatchStreamOptions StreamOpts;
    StreamOpts.Stable = Stable;
    StreamOpts.Stop = &GStopRequested;
    size_t Failed = 0;
    if (Replay) {
      std::istringstream In(ReplayBatch);
      runBatchJsonLines(Session, In, std::cout, &Failed, StreamOpts);
    } else if (Path == "-") {
      runBatchJsonLines(Session, std::cin, std::cout, &Failed, StreamOpts);
    } else {
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
        return 1;
      }
      runBatchJsonLines(Session, In, std::cout, &Failed, StreamOpts);
    }
    if (GStopRequested.load())
      std::fprintf(stderr,
                   "interrupted: drained in-flight requests; flushing "
                   "cache/metrics before exit\n");
    if (!TraceFile.empty()) {
      Tracer::global().stop();
      if (!Tracer::global().writeChromeTrace(TraceFile))
        std::fprintf(stderr, "warning: cannot write trace file %s\n",
                     TraceFile.c_str());
    }
    if (!MetricsFile.empty()) {
      std::ofstream MOut(MetricsFile);
      if (MOut)
        MOut << MetricRegistry::global().prometheusText();
      else
        std::fprintf(stderr, "warning: cannot write metrics file %s\n",
                     MetricsFile.c_str());
    }
    if (!CacheFile.empty()) {
      std::string Error;
      if (!Session.saveCache(CacheFile, Error))
        std::fprintf(stderr, "warning: %s\n", Error.c_str());
    }
    // Session-wide statistics go to stderr so stdout stays a clean
    // JSON-lines response stream.
    std::fprintf(stderr, "%s\n", statsToJson(Session.stats())->dump().c_str());
    return Failed == 0 ? 0 : 1;
  }

  if (argc < 3)
    return usage();

  if (Cmd == "sat") {
    std::string Error;
    Formula F = parseFormula(FF, argv[2], Error);
    if (!F) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!isCycleFree(F)) {
      std::fprintf(stderr, "error: formula is not cycle free\n");
      return 1;
    }
    SolverResult R = Session.satisfiable(F);
    std::printf("%s  (lean=%zu, %zu iterations, %.1f ms)\n",
                R.Satisfiable ? "satisfiable" : "unsatisfiable",
                R.Stats.LeanSize, R.Stats.Iterations, R.Stats.TimeMs);
    if (R.Model)
      std::printf("%s", printXml(*R.Model).c_str());
    return R.Satisfiable ? 0 : 1;
  }

  if (Cmd == "compile") {
    ExprRef E = parseQuery(argv[2]);
    if (!E)
      return 1;
    Formula F = compileXPath(FF, E, FF.trueF());
    std::printf("%s\n(size %u, cycle-free: %s)\n", FF.toString(F).c_str(),
                F->size(), isCycleFree(F) ? "yes" : "no");
    return 0;
  }

  if (Cmd == "optimize") {
    std::string Dtd = argc > 3 ? argv[3] : "";
    AnalysisRequest Req;
    Req.Kind = RequestKind::Optimize;
    Req.Query1 = argv[2];
    Req.Dtd1 = Dtd;
    AnalysisResponse R = runRequest(Session, Req);
    if (!R.Ok) {
      std::fprintf(stderr, "error: %s\n", R.Error.c_str());
      return 1;
    }
    std::printf("original:  %s  (cost %.2f)\n", Req.Query1.c_str(),
                R.CostBefore);
    std::printf("optimized: %s  (cost %.2f, %zu proof obligations)\n",
                R.Optimized.c_str(), R.CostAfter, R.Trace.size());
    for (const RewriteStep &S : R.Trace)
      std::printf("  [%s] %-16s %s  =>  %s  (%s, %s%.1f ms)\n",
                  S.Accepted ? "PROVED " : "refuted", S.Rule.c_str(),
                  S.From.c_str(), S.To.c_str(), S.Check,
                  S.FromCache ? "cached, " : "", S.TimeMs);
    return 0;
  }

  if (Cmd == "validate") {
    if (argc < 4)
      return usage();
    std::string Xml;
    if (!readFile(argv[2], Xml)) {
      std::fprintf(stderr, "error: cannot read %s\n", argv[2]);
      return 1;
    }
    Document Doc;
    std::string Error;
    if (!parseXml(Xml, Doc, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    Dtd Storage;
    const Dtd *D = loadDtd(argv[3], Storage, Error);
    if (!D) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::string Why;
    if (validate(Doc, *D, &Why)) {
      std::printf("valid\n");
      return 0;
    }
    std::printf("invalid: %s\n", Why.c_str());
    return 1;
  }

  // The remaining commands take queries and an optional DTD, resolved
  // through the session's memoizing loader.
  Analyzer &An = Session.analyzer();
  Formula Chi = FF.trueF();
  int DtdArg = Cmd == "empty" ? 3 : 4;
  if (argc > DtdArg) {
    std::string Error;
    Chi = Session.typeContext(argv[DtdArg], Error);
    if (!Chi) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }

  if (Cmd == "empty") {
    ExprRef E = parseQuery(argv[2]);
    if (!E)
      return 1;
    report(An.emptiness(E, Chi), "always empty", "satisfiable");
    return 0;
  }
  if (Cmd == "contains" || Cmd == "overlap") {
    if (argc < 4)
      return usage();
    ExprRef E1 = parseQuery(argv[2]);
    ExprRef E2 = parseQuery(argv[3]);
    if (!E1 || !E2)
      return 1;
    if (Cmd == "contains")
      report(An.containment(E1, Chi, E2, Chi), "contained", "NOT contained");
    else
      report(An.overlap(E1, Chi, E2, Chi), "overlapping", "disjoint");
    return 0;
  }
  return usage();
}
