//===- Server.cpp - Long-lived multi-tenant analysis server ----------------===//

#include "server/Server.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/SlowQuery.h"
#include "obs/Trace.h"
#include "service/Batch.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace xsa;

namespace xsa {
namespace detail {

/// Incremental bounded line framing over a raw fd. An overlong line is
/// consumed (never buffered past the bound) and reported Truncated.
/// Shared by the JSON-lines reader loop and the HTTP/1.1 keep-alive
/// loop (which is why it lives in xsa::detail, not a TU-local
/// namespace: serveHttpConnection's declaration names it).
struct FdLineReader {
  int Fd;
  size_t MaxBytes;
  std::string Buf = {};
  size_t Pos = 0;
  bool Eof = false;
  /// When >= 0: before each recv, wait at most this many milliseconds
  /// for the fd to become readable; give up (TimedOut, next() false)
  /// otherwise. The HTTP keep-alive idle timeout. -1 blocks in recv.
  int PollTimeoutMs = -1;
  bool TimedOut = false;

  /// True with one line in \p Line (newline stripped, \r kept for the
  /// caller's trimming); false at EOF/error/idle-timeout with nothing
  /// usable pending.
  bool next(std::string &Line, bool &Truncated) {
    Line.clear();
    Truncated = false;
    TimedOut = false;
    bool Discarding = false;
    while (true) {
      while (Pos < Buf.size()) {
        char C = Buf[Pos++];
        if (C == '\n') {
          if (Discarding)
            return true; // Truncated already set
          return true;
        }
        if (Discarding)
          continue;
        if (MaxBytes && Line.size() >= MaxBytes) {
          Truncated = true;
          Discarding = true;
          continue;
        }
        Line += C;
      }
      Buf.clear();
      Pos = 0;
      if (Eof)
        return !Line.empty() || Truncated;
      if (PollTimeoutMs >= 0) {
        pollfd P{Fd, POLLIN, 0};
        int R = ::poll(&P, 1, PollTimeoutMs);
        if (R < 0 && errno == EINTR)
          continue;
        if (R <= 0) {
          TimedOut = true;
          return false;
        }
      }
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Eof = true;
        continue;
      }
      Buf.assign(Chunk, static_cast<size_t>(N));
    }
  }
};

} // namespace detail
} // namespace xsa

namespace {

/// All queue timestamps (deadlines, waits) share the tracer's timebase,
/// so the same stamp feeds the deadline check, the wait histogram and
/// the cross-thread "server.queue_wait" span.
uint64_t nowSteadyNs() { return Tracer::nowNs(); }

/// Sends all of \p Data on \p Fd, aborting when \p Alive goes false
/// (forced teardown must be able to interrupt a send to a client that
/// stopped reading, so shutdown never hangs on a full socket buffer).
/// MSG_NOSIGNAL: a peer that closed mid-write must surface as an error
/// on this thread, not kill the process with SIGPIPE; MSG_DONTWAIT so
/// a full buffer parks us in a short poll that re-checks Alive instead
/// of an unbounded blocking send. False on any failure.
bool sendAll(int Fd, const char *Data, size_t Len,
             const std::atomic<bool> &Alive) {
  while (Len > 0) {
    if (!Alive.load())
      return false;
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd P{Fd, POLLOUT, 0};
      ::poll(&P, 1, 100); // bounded: loop back to the Alive check
      continue;
    }
    if (N <= 0)
      return false;
    Data += static_cast<size_t>(N);
    Len -= static_cast<size_t>(N);
  }
  return true;
}

Counter &rejectionCounter(const char *Reason) {
  return MetricRegistry::global().counter(
      labeledMetricName("xsa_server_rejections_total", "reason", Reason),
      "Requests rejected at admission, by reason", /*Volatile=*/true);
}

Counter &deadlineMissCounter() {
  return MetricRegistry::global().counter(
      "xsa_server_deadline_misses_total",
      "Admitted requests dropped because their deadline expired in queue",
      /*Volatile=*/true);
}

Gauge &queueDepthGauge() {
  return MetricRegistry::global().gauge(
      "xsa_server_queue_depth", "Analysis requests currently queued",
      /*Volatile=*/true);
}

Histogram &queueWaitHistogram() {
  return MetricRegistry::global().histogram(
      "xsa_server_queue_wait_ms",
      "Admission-to-dispatch wait of analysis requests");
}

/// An analysis request answered without a solve: refused at admission
/// (overloaded, draining) or expired in the queue (deadline_exceeded).
AnalysisResponse refusal(const AnalysisRequest &Req, const std::string &Rid,
                         const char *Code, std::string Message) {
  AnalysisResponse R;
  R.Id = Req.Id;
  R.ErrorCode = Code;
  R.Error = std::move(Message);
  R.Rid = Rid;
  return R;
}

} // namespace

NamespaceState::NamespaceState(std::string N) : Name(std::move(N)) {
  RequestsMetric = &MetricRegistry::global().counter(
      labeledMetricName("xsa_server_requests_total", "ns", Name),
      "Analysis requests admitted, by namespace", /*Volatile=*/true);
}

//===----------------------------------------------------------------------===//
// Internal types
//===----------------------------------------------------------------------===//

/// One client connection. The reader thread owns Fd reads and seq
/// assignment; the reorder buffer is guarded by WriteMu and filled by
/// producers (reader thread for control responses, worker threads for
/// analysis responses) — producers only enqueue and notify, they never
/// touch the socket. The writer thread alone sends, so a client
/// that stops reading blocks its own writer and nobody else.
struct XsolvedServer::Connection {
  int Fd = -1;
  uint64_t Id = 0;
  std::thread Reader;
  std::thread Writer;
  std::atomic<bool> Open{true};

  /// Reader-thread-only: next sequence number to assign to a line that
  /// gets a response.
  uint64_t NextSeq = 0;

  std::mutex WriteMu;
  std::condition_variable WriteCv;
  uint64_t NextDeliver = 0;                ///< guarded by WriteMu
  std::map<uint64_t, std::string> Pending; ///< guarded by WriteMu
  size_t PendingBytes = 0;                 ///< guarded by WriteMu
  /// Set by the reader at exit (with FinalSeq = its last NextSeq): no
  /// further sequence numbers will be assigned, so once NextDeliver
  /// reaches FinalSeq the writer has flushed everything and may exit.
  bool InputDone = false;   ///< guarded by WriteMu
  uint64_t FinalSeq = 0;    ///< guarded by WriteMu
  bool WriterExited = false; ///< guarded by WriteMu (teardown handshake)

  /// Per-connection protocol state: current namespace and response
  /// encoding. Written by the reader thread on a config line; the
  /// values a job uses are snapshotted into the job at admission, so
  /// workers never read these directly.
  std::shared_ptr<NamespaceState> Ns;
  bool Stable = false;
};

/// An admitted analysis request, carrying everything a worker needs —
/// including the encoding snapshot taken at admission, so a later config
/// change never races a queued job.
struct XsolvedServer::Job {
  std::shared_ptr<Connection> Conn;
  std::shared_ptr<NamespaceState> Ns;
  uint64_t Seq = 0;
  AnalysisRequest Req;
  int Priority = 0;
  uint64_t DeadlineNs = 0; ///< absolute steady-clock ns; 0 = none
  uint64_t EnqueueNs = 0;
  /// Request id: the client's "id" when it sent one, else a server-
  /// generated "c<conn>-<seq>". Mirrored into Req.TraceId so it rides
  /// the request span, the volatile "rid" response field, log lines and
  /// any slowlog capture. Generated ids never reach stable output.
  std::string Rid;
  bool Stable = false;
  /// The admitted request line dumped back to JSON, carried so a slowlog
  /// capture can reproduce the request verbatim (`xsolve replay`).
  std::string RequestJson;
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

XsolvedServer::XsolvedServer(ServerOptions O) : Opts(std::move(O)) {}

XsolvedServer::~XsolvedServer() {
  if (Started.load())
    drainAndWait();
}

bool XsolvedServer::start(std::string &Error) {
  if (Opts.TcpPort < 0 && Opts.UnixPath.empty()) {
    Error = "server needs a TCP port and/or a unix socket path";
    return false;
  }
  // The observability plane of the service: the slow-query recorder's
  // knobs, and the tracer's stage-capture mode so EVERY request
  // accumulates its per-stage breakdown cheaply — tail sampling decides
  // after the fact whether to keep it (see obs/SlowQuery.h).
  SlowQueryLog::global().configure(
      {Opts.SlowThresholdMs, Opts.SlowlogCapacity});
  Tracer::global().setStageCapture(true);
  StartSteadyNs = nowSteadyNs();

  Sess = std::make_unique<AnalysisSession>(Opts.Session);
  if (!Opts.CacheFile.empty()) {
    std::ifstream Probe(Opts.CacheFile);
    if (Probe) {
      Probe.close();
      std::string LoadError;
      if (!Sess->loadCache(Opts.CacheFile, LoadError)) {
        Error = "cache file: " + LoadError;
        LogEvent(LogLevel::Error, "cache.load_failed")
            .str("path", Opts.CacheFile)
            .str("error", LoadError);
        return false;
      }
      LogEvent(LogLevel::Info, "cache.loaded").str("path", Opts.CacheFile);
    }
  }
  if (Opts.TcpPort >= 0) {
    TcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (TcpFd < 0) {
      Error = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    int One = 1;
    ::setsockopt(TcpFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    if (::inet_pton(AF_INET, Opts.Host.c_str(), &Addr.sin_addr) != 1) {
      Error = "bad host address " + Opts.Host;
      closeListeners();
      return false;
    }
    if (::bind(TcpFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(TcpFd, 64) < 0) {
      Error = "bind/listen " + Opts.Host + ":" + std::to_string(Opts.TcpPort) +
              ": " + std::strerror(errno);
      closeListeners();
      return false;
    }
    sockaddr_in Bound{};
    socklen_t BoundLen = sizeof(Bound);
    if (::getsockname(TcpFd, reinterpret_cast<sockaddr *>(&Bound),
                      &BoundLen) == 0)
      BoundPort = ntohs(Bound.sin_port);
  }

  if (!Opts.UnixPath.empty()) {
    sockaddr_un Addr{};
    if (Opts.UnixPath.size() >= sizeof(Addr.sun_path)) {
      Error = "unix socket path too long";
      closeListeners();
      return false;
    }
    UnixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (UnixFd < 0) {
      Error = "socket: " + std::string(std::strerror(errno));
      closeListeners();
      return false;
    }
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ::unlink(Opts.UnixPath.c_str());
    if (::bind(UnixFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
            0 ||
        ::listen(UnixFd, 64) < 0) {
      Error = "bind/listen " + Opts.UnixPath + ": " + std::strerror(errno);
      closeListeners();
      return false;
    }
  }

  // The default namespace exists from the start so /metrics has its
  // series before the first request.
  namespaceState("default");

  Started.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  {
    LogEvent Ev(LogLevel::Info, "server.start");
    Ev.num("jobs", static_cast<double>(Sess->jobs()))
        .num("queue_limit", static_cast<double>(Opts.QueueLimit))
        .num("slow_ms", Opts.SlowThresholdMs);
    if (TcpFd >= 0)
      Ev.num("tcp_port", BoundPort);
    if (!Opts.UnixPath.empty())
      Ev.str("unix", Opts.UnixPath);
  }
  return true;
}

void XsolvedServer::requestDrain() {
  bool WasDraining = Draining.exchange(true);
  // Admissions from here on are refused as "draining"; admitted work
  // still runs, even under the test pause.
  if (Sess)
    Sess->close();
  if (!WasDraining)
    LogEvent(LogLevel::Info, "drain.begin")
        .num("uptime_s", StartSteadyNs
                             ? (nowSteadyNs() - StartSteadyNs) / 1e9
                             : 0);
}

void XsolvedServer::drainAndWait() {
  requestDrain();
  wait();
}

void XsolvedServer::wait() {
  std::lock_guard<std::mutex> L(StopMu);
  if (Stopped.load() || !Started.load())
    return;
  if (AcceptThread.joinable())
    AcceptThread.join();
  Sess->quiesce();
  // The workers have sequenced everything admitted. Teardown is two-
  // phase so even connections the final drain sweep accepted get their
  // promised structured answers:
  //
  // Phase 1 — half-close the read sides only. recv() hands the readers
  // whatever the kernel already buffered and then EOF, so pipelined
  // requests are answered ("draining" rejections — the session is
  // closed, so admit() rejects inline) instead of vanishing; Open stays
  // true so the writers keep flushing those answers. Joining happens
  // outside ConnsMu: a reader mid-admit needs that lock to exit.
  std::vector<std::shared_ptr<Connection>> Snapshot;
  {
    std::lock_guard<std::mutex> CL(ConnsMu);
    Snapshot = Conns; // complete: the accept thread has joined
  }
  for (auto &C : Snapshot)
    if (C->Fd >= 0)
      ::shutdown(C->Fd, SHUT_RD);
  for (auto &C : Snapshot)
    if (C->Reader.joinable())
      C->Reader.join();
  // Phase 2 — give each writer a bounded grace to flush to clients
  // that are slow to read, then force-close whatever remains (a client
  // that never reads must not hang the drain) and join.
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Opts.DrainFlushTimeoutMs);
  for (auto &C : Snapshot) {
    std::unique_lock<std::mutex> WL(C->WriteMu);
    C->WriteCv.wait_until(WL, Deadline, [&] { return C->WriterExited; });
  }
  shutdownConnections();
  for (auto &C : Snapshot) {
    if (C->Writer.joinable())
      C->Writer.join();
    if (C->Fd >= 0) {
      ::close(C->Fd);
      C->Fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> CL(ConnsMu);
    Conns.clear();
  }
  if (!Opts.CacheFile.empty()) {
    std::string SaveError;
    bool Saved = Sess->saveCache(Opts.CacheFile, SaveError);
    LogEvent Ev(Saved ? LogLevel::Info : LogLevel::Error, "cache.persisted");
    Ev.str("path", Opts.CacheFile).flag("ok", Saved);
    if (!Saved)
      Ev.str("error", SaveError);
  }
  if (!Opts.UnixPath.empty())
    ::unlink(Opts.UnixPath.c_str());
  Stopped.store(true);
  LogEvent(LogLevel::Info, "drain.complete")
      .num("connections", static_cast<double>(Snapshot.size()));
}

void XsolvedServer::closeListeners() {
  if (TcpFd >= 0) {
    ::close(TcpFd);
    TcpFd = -1;
  }
  if (UnixFd >= 0) {
    ::close(UnixFd);
    UnixFd = -1;
  }
}

void XsolvedServer::shutdownConnections() {
  std::lock_guard<std::mutex> L(ConnsMu);
  for (auto &C : Conns) {
    // Open flips under WriteMu: a writer between its CV predicate (which
    // saw Open) and the actual sleep holds that mutex, so storing under
    // it cannot lose the wakeup.
    {
      std::lock_guard<std::mutex> WL(C->WriteMu);
      C->Open.store(false);
    }
    if (C->Fd >= 0)
      ::shutdown(C->Fd, SHUT_RDWR);
    C->WriteCv.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// Namespaces
//===----------------------------------------------------------------------===//

std::shared_ptr<NamespaceState>
XsolvedServer::namespaceState(const std::string &Name) {
  std::lock_guard<std::mutex> L(NsMu);
  auto It = Namespaces.find(Name);
  if (It != Namespaces.end())
    return It->second;
  if (Namespaces.size() >= MaxNamespaces)
    return nullptr;
  auto Ns = std::make_shared<NamespaceState>(Name);
  Namespaces.emplace(Name, Ns);
  return Ns;
}

JsonRef XsolvedServer::namespacesJson() {
  JsonRef O = JsonValue::object();
  std::lock_guard<std::mutex> L(NsMu);
  for (const auto &[Name, Ns] : Namespaces) {
    JsonRef N = JsonValue::object();
    auto Num = [](uint64_t V) {
      return JsonValue::number(static_cast<double>(V));
    };
    N->set("requests", Num(Ns->Requests.load(std::memory_order_relaxed)));
    N->set("errors", Num(Ns->Errors.load(std::memory_order_relaxed)));
    N->set("cache_hits", Num(Ns->CacheHits.load(std::memory_order_relaxed)));
    N->set("cache_misses",
           Num(Ns->CacheMisses.load(std::memory_order_relaxed)));
    N->set("deadline_misses",
           Num(Ns->DeadlineMisses.load(std::memory_order_relaxed)));
    N->set("rejections", Num(Ns->Rejections.load(std::memory_order_relaxed)));
    N->set("slow_queries",
           Num(Ns->SlowQueries.load(std::memory_order_relaxed)));
    N->set("in_flight", Num(Ns->InFlight.load(std::memory_order_relaxed)));
    N->set("solver_time_ms",
           JsonValue::number(
               Ns->SolverTimeUs.load(std::memory_order_relaxed) / 1000.0));
    O->set(Name, N);
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Accept loop
//===----------------------------------------------------------------------===//

bool XsolvedServer::acceptOne(int ListenFd) {
  Span AcceptSpan("server.accept");
  int ClientFd = ::accept(ListenFd, nullptr, nullptr);
  if (ClientFd < 0)
    return false;
  auto Conn = std::make_shared<Connection>();
  Conn->Fd = ClientFd;
  Conn->Ns = namespaceState("default");
  Conn->Stable = Opts.DefaultStable;
  {
    std::lock_guard<std::mutex> L(ConnsMu);
    Conn->Id = NextConnId++;
    Conns.push_back(Conn);
  }
  LogEvent(LogLevel::Debug, "conn.accept")
      .num("conn", static_cast<double>(Conn->Id));
  Conn->Reader = std::thread([this, Conn] { readerLoop(Conn); });
  Conn->Writer = std::thread([this, Conn] { writerLoop(Conn); });
  return true;
}

void XsolvedServer::acceptLoop() {
  while (!Draining.load()) {
    pollfd Fds[2];
    nfds_t N = 0;
    if (TcpFd >= 0)
      Fds[N++] = {TcpFd, POLLIN, 0};
    if (UnixFd >= 0)
      Fds[N++] = {UnixFd, POLLIN, 0};
    int R = ::poll(Fds, N, 200);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0)
      continue;
    for (nfds_t I = 0; I < N; ++I)
      if (Fds[I].revents & POLLIN)
        acceptOne(Fds[I].fd);
  }
  // Final sweep before the listeners close: a connection the kernel
  // already established (the client's connect() returned and it may
  // have pipelined requests) but this loop never accepted must not be
  // reset by close() — accept it, so its requests get structured
  // "draining" rejections instead of a dead socket.
  for (int Fd : {TcpFd, UnixFd}) {
    if (Fd < 0)
      continue;
    while (true) {
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, 0) <= 0 || !(P.revents & POLLIN))
        break;
      if (!acceptOne(Fd))
        break;
    }
  }
  closeListeners();
}

//===----------------------------------------------------------------------===//
// Reader: line framing, control ops, admission
//===----------------------------------------------------------------------===//

void XsolvedServer::readerLoop(std::shared_ptr<Connection> Conn) {
  detail::FdLineReader Reader{Conn->Fd, Opts.MaxLineBytes};
  std::string Line;
  bool Truncated = false;
  size_t LineNo = 0;
  bool FirstLine = true;
  while (Conn->Open.load() && Reader.next(Line, Truncated)) {
    ++LineNo;
    // A browser or Prometheus scraper speaking HTTP switches this
    // connection to the HTTP/1.1 keep-alive loop — detected on the very
    // first line only.
    if (FirstLine && !Truncated && Line.rfind("GET ", 0) == 0) {
      serveHttpConnection(*Conn, Reader, Line);
      break;
    }
    FirstLine = false;
    handleLine(Conn, Line, LineNo, Truncated);
  }
  LogEvent(LogLevel::Debug, "conn.close")
      .num("conn", static_cast<double>(Conn->Id))
      .num("lines", static_cast<double>(LineNo));
  // Input is over, but responses for requests still queued or on a
  // worker may be outstanding: hand the writer the final sequence number
  // so it can flush everything and only then close the connection. Forcing
  // Open=false or SHUT_WR here would drop responses a pipelined client
  // that half-closed early is still owed.
  {
    std::lock_guard<std::mutex> L(Conn->WriteMu);
    Conn->InputDone = true;
    Conn->FinalSeq = Conn->NextSeq;
  }
  Conn->WriteCv.notify_all();
  // The fd itself is closed at server teardown (wait()), after the
  // writer can no longer deliver to it.
}

/// HTTP/1.1 keep-alive loop on the reader thread. Each iteration parses
/// one "GET <path> HTTP/1.x" request line plus its headers, answers
/// with an explicit Content-Length, and — unless the client asked for
/// close, spoke HTTP/1.0, or the connection cap is exceeded — waits up
/// to HttpIdleTimeoutMs for the next request on the same socket, so a
/// Prometheus scraper pays one connect for its whole lifetime instead
/// of one per scrape. All sends are interruptible (sendAll re-checks
/// Conn.Open), and drain's SHUT_RD surfaces as EOF in the reader, so a
/// parked scraper can never hang shutdown.
void XsolvedServer::serveHttpConnection(Connection &Conn,
                                        detail::FdLineReader &Reader,
                                        const std::string &RequestLine) {
  int Live = HttpConns.fetch_add(1) + 1;
  bool OverCap = Live > static_cast<int>(Opts.HttpMaxConns);
  LogEvent(LogLevel::Debug, "http.accept")
      .num("conn", static_cast<double>(Conn.Id))
      .num("live", Live)
      .flag("over_cap", OverCap);

  std::string Request = RequestLine;
  size_t Served = 0;
  while (Conn.Open.load()) {
    // Request line: "GET /path HTTP/1.1" (anything else ends the
    // connection — this is an introspection endpoint, not a web server).
    size_t PathBegin = Request.find(' ');
    size_t PathEnd =
        PathBegin == std::string::npos ? std::string::npos
                                       : Request.find(' ', PathBegin + 1);
    if (Request.rfind("GET ", 0) != 0 || PathEnd == std::string::npos)
      break;
    std::string Path = Request.substr(PathBegin + 1, PathEnd - PathBegin - 1);
    std::string Version = Request.substr(PathEnd + 1);
    while (!Version.empty() &&
           (Version.back() == '\r' || Version.back() == ' '))
      Version.pop_back();
    bool KeepAlive = Version == "HTTP/1.1"; // 1.0 defaults to close

    // Headers up to the blank line; only Connection: and (for /metrics
    // content negotiation) Accept: matter here.
    std::string HLine;
    bool HTrunc = false;
    bool WantOpenMetrics = false;
    Reader.PollTimeoutMs = -1; // headers follow immediately or not at all
    while (Reader.next(HLine, HTrunc)) {
      while (!HLine.empty() && HLine.back() == '\r')
        HLine.pop_back();
      if (HLine.empty())
        break;
      std::string Lower;
      Lower.reserve(HLine.size());
      for (char C : HLine)
        Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
      if (Lower.rfind("connection:", 0) == 0) {
        if (Lower.find("close") != std::string::npos)
          KeepAlive = false;
        else if (Lower.find("keep-alive") != std::string::npos)
          KeepAlive = true;
      } else if (Lower.rfind("accept:", 0) == 0 &&
                 Lower.find("application/openmetrics-text") !=
                     std::string::npos) {
        WantOpenMetrics = true;
      }
    }

    std::string Status = "200 OK";
    std::string ContentType = "application/json";
    std::string Body;
    if (OverCap) {
      Status = "503 Service Unavailable";
      ContentType = "text/plain";
      Body = "too many HTTP connections\n";
      KeepAlive = false;
    } else if (Path == "/metrics") {
      // Scrapers that negotiate OpenMetrics get exemplars (slowlog
      // request ids on the latency histogram) and the # EOF terminator;
      // everyone else gets classic Prometheus text.
      if (WantOpenMetrics) {
        ContentType = "application/openmetrics-text; version=1.0.0; "
                      "charset=utf-8";
        Body = MetricRegistry::global().openMetricsText();
      } else {
        ContentType = "text/plain; version=0.0.4";
        Body = MetricRegistry::global().prometheusText();
      }
    } else if (Path == "/healthz") {
      // Orchestrator probe: draining answers 503 so load balancers stop
      // routing here while admitted work finishes.
      ContentType = "text/plain";
      if (Draining.load()) {
        Status = "503 Service Unavailable";
        Body = "draining\n";
      } else {
        Body = "ok\n";
      }
    } else if (Path == "/statusz") {
      Body = statusJson()->dump();
      Body += '\n';
    } else if (Path == "/slowlog") {
      Body = slowlogJson(0)->dump();
      Body += '\n';
    } else if (Path == "/logz") {
      Body = logJson(0)->dump();
      Body += '\n';
    } else {
      Status = "404 Not Found";
      ContentType = "text/plain";
      Body = "not found (try /metrics, /healthz, /statusz, /slowlog, "
             "/logz)\n";
    }

    std::string Resp = "HTTP/1.1 " + Status +
                       "\r\nContent-Type: " + ContentType +
                       "\r\nContent-Length: " + std::to_string(Body.size()) +
                       "\r\nConnection: " +
                       (KeepAlive ? "keep-alive" : "close") + "\r\n\r\n" +
                       Body;
    if (!sendAll(Conn.Fd, Resp.data(), Resp.size(), Conn.Open))
      break;
    ++Served;
    if (!KeepAlive)
      break;
    // Idle wait for the next request line on the same connection.
    Reader.PollTimeoutMs = static_cast<int>(Opts.HttpIdleTimeoutMs);
    bool Trunc = false;
    bool Got = Reader.next(Request, Trunc);
    Reader.PollTimeoutMs = -1;
    if (!Got || Trunc)
      break; // EOF, error or idle timeout
  }
  HttpConns.fetch_sub(1);
  LogEvent(LogLevel::Debug, "http.close")
      .num("conn", static_cast<double>(Conn.Id))
      .num("served", static_cast<double>(Served));
}

void XsolvedServer::handleLine(const std::shared_ptr<Connection> &ConnPtr,
                               const std::string &Line, size_t LineNo,
                               bool Truncated) {
  Connection &Conn = *ConnPtr;
  InputLine L = decodeInputLine(Line, LineNo, Truncated, Opts.MaxLineBytes,
                                Conn.Stable,
                                {"config", "metrics", "stats", "status",
                                 "slowlog", "log", "ping", "drain"});
  if (L.K == InputLine::Kind::Skip)
    return; // blank/comment lines get no response and no seq
  uint64_t Seq = Conn.NextSeq++;
  if (L.K == InputLine::Kind::Answer) {
    if (L.Obj) // an object that is no request
      Conn.Ns->Errors.fetch_add(1, std::memory_order_relaxed);
    deliver(Conn, Seq, std::move(L.Answer));
    return;
  }
  if (L.K == InputLine::Kind::Request) {
    admit(ConnPtr, Seq, *L.Obj, std::move(L.Req));
    return;
  }
  const JsonValue &Obj = *L.Obj;
  std::string Op = Obj.str("op");
  if (Op == "config") {
    handleConfig(Conn, Seq, Obj);
  } else if (Op == "metrics") {
    handleMetrics(Conn, Seq, Obj);
  } else if (Op == "stats") {
    handleStats(Conn, Seq, Obj);
  } else if (Op == "status") {
    handleStatus(Conn, Seq, Obj);
  } else if (Op == "slowlog") {
    handleSlowlog(Conn, Seq, Obj);
  } else if (Op == "log") {
    handleLog(Conn, Seq, Obj);
  } else if (Op == "ping") {
    JsonRef O = controlResponseJson(Obj);
    O->set("op", JsonValue::string("ping"));
    deliver(Conn, Seq, O->dump());
  } else {
    // drain, the last op of the control set
    JsonRef O = controlResponseJson(Obj);
    O->set("draining", JsonValue::boolean(true));
    deliver(Conn, Seq, O->dump());
    requestDrain();
  }
}

void XsolvedServer::handleConfig(Connection &Conn, uint64_t Seq,
                                 const JsonValue &Obj) {
  // Every value is checked before any applies, so a rejected op changes
  // nothing — not even the namespace registry.
  ConfigLine Cfg;
  JsonRef Err =
      Obj.has("jobs")
          ? configErrorJson(Obj, "invalid_config_value",
                            "jobs is fixed at server start (the workers are "
                            "shared by every client)",
                            "jobs")
          : decodeConfigLine(Obj, {"ns", "stable"}, Cfg);
  std::shared_ptr<NamespaceState> Ns = Conn.Ns;
  if (!Err && Cfg.Ns && !(Ns = namespaceState(*Cfg.Ns)))
    Err = configErrorJson(Obj, "invalid_config_value",
                          "at most " + std::to_string(MaxNamespaces) +
                              " namespaces may exist",
                          "ns", Obj.get("ns")->dump());
  if (Err) {
    Conn.Ns->Errors.fetch_add(1, std::memory_order_relaxed);
    deliver(Conn, Seq, Err->dump());
    return;
  }
  Conn.Ns = std::move(Ns);
  if (Cfg.Stable)
    Conn.Stable = *Cfg.Stable;

  JsonRef O = controlResponseJson(Obj);
  O->set("ns", JsonValue::string(Conn.Ns->Name));
  O->set("stable", JsonValue::boolean(Conn.Stable));
  O->set("jobs", JsonValue::number(static_cast<double>(Sess->jobs())));
  deliver(Conn, Seq, O->dump());
}

void XsolvedServer::handleMetrics(Connection &Conn, uint64_t Seq,
                                  const JsonValue &Obj) {
  JsonRef O = controlResponseJson(Obj);
  JsonRef M = MetricRegistry::global().toJson(
      /*IncludeVolatile=*/!Conn.Stable);
  for (const auto &[K, V] : M->members())
    O->set(K, V);
  O->set("namespaces", namespacesJson());
  deliver(Conn, Seq, O->dump());
}

void XsolvedServer::handleStats(Connection &Conn, uint64_t Seq,
                                const JsonValue &Obj) {
  JsonRef O = controlResponseJson(Obj);
  O->set("stats", statsToJson(Sess->stats()));
  O->set("namespaces", namespacesJson());
  deliver(Conn, Seq, O->dump());
}

/// {"op":"status"}, {"op":"slowlog"} and {"op":"log"} are operational
/// introspection ops: their payloads are inherently execution-dependent
/// (uptime, queue depth, captured latencies), so they are not part of
/// the `--stable` byte-identity contract — which covers analysis
/// responses — and serialize the same on any connection.

void XsolvedServer::handleStatus(Connection &Conn, uint64_t Seq,
                                 const JsonValue &Obj) {
  JsonRef O = controlResponseJson(Obj);
  O->set("status", statusJson());
  deliver(Conn, Seq, O->dump());
}

void XsolvedServer::handleSlowlog(Connection &Conn, uint64_t Seq,
                                  const JsonValue &Obj) {
  JsonRef O = controlResponseJson(Obj);
  size_t Max = clampedInteger<size_t>(Obj.get("n")->asNumber());
  O->set("slowlog", slowlogJson(Max));
  deliver(Conn, Seq, O->dump());
}

void XsolvedServer::handleLog(Connection &Conn, uint64_t Seq,
                              const JsonValue &Obj) {
  JsonRef O = controlResponseJson(Obj);
  size_t Max = clampedInteger<size_t>(Obj.get("n")->asNumber());
  O->set("log", logJson(Max));
  deliver(Conn, Seq, O->dump());
}

JsonRef XsolvedServer::statusJson() {
  JsonRef S = JsonValue::object();
  S->set("schema", JsonValue::string("xsa.status/1"));
  S->set("uptime_s",
         JsonValue::number(
             StartSteadyNs ? (nowSteadyNs() - StartSteadyNs) / 1e9 : 0));
  S->set("draining", JsonValue::boolean(Draining.load()));
  S->set("queue_depth", JsonValue::number(static_cast<double>(Sess->queued())));
  S->set("queue_limit",
         JsonValue::number(static_cast<double>(Opts.QueueLimit)));
  S->set("in_flight", JsonValue::number(static_cast<double>(
                          InFlight.load(std::memory_order_relaxed))));
  S->set("jobs", JsonValue::number(static_cast<double>(Sess->jobs())));
  size_t OpenConns = 0;
  {
    std::lock_guard<std::mutex> L(ConnsMu);
    for (const auto &C : Conns)
      if (C->Open.load())
        ++OpenConns;
  }
  S->set("connections", JsonValue::number(static_cast<double>(OpenConns)));
  S->set("http_connections",
         JsonValue::number(static_cast<double>(HttpConns.load())));
  // Same registrations (name/help/volatile) as BddSolver's sampler, so
  // whichever side registers first the series agree.
  MetricRegistry &R = MetricRegistry::global();
  JsonRef Bdd = JsonValue::object();
  Bdd->set("live_nodes",
           JsonValue::number(R.gauge("xsa_bdd_live_nodes",
                                     "Live BDD nodes of the last solver run",
                                     /*Volatile=*/true)
                                 .value()));
  Bdd->set("peak_nodes",
           JsonValue::number(R.gauge("xsa_bdd_peak_nodes",
                                     "Peak BDD nodes of the last solver run",
                                     /*Volatile=*/true)
                                 .value()));
  S->set("bdd", Bdd);
  S->set("namespaces", namespacesJson());
  SlowQueryLog &Slow = SlowQueryLog::global();
  JsonRef Sq = JsonValue::object();
  Sq->set("recorded",
          JsonValue::number(static_cast<double>(Slow.recorded())));
  Sq->set("threshold_ms", JsonValue::number(Slow.thresholdMs()));
  Sq->set("capacity",
          JsonValue::number(static_cast<double>(Slow.capacity())));
  S->set("slowlog", Sq);
  EventLog &Log = EventLog::global();
  JsonRef Lg = JsonValue::object();
  Lg->set("records",
          JsonValue::number(static_cast<double>(Log.recordCount())));
  Lg->set("sink_dropped",
          JsonValue::number(static_cast<double>(Log.sinkDropped())));
  S->set("log", Lg);
  return S;
}

JsonRef XsolvedServer::slowlogJson(size_t MaxRecords) {
  SlowQueryLog &Slow = SlowQueryLog::global();
  JsonRef S = JsonValue::object();
  S->set("schema", JsonValue::string("xsa.slowlog/1"));
  S->set("threshold_ms", JsonValue::number(Slow.thresholdMs()));
  S->set("capacity",
         JsonValue::number(static_cast<double>(Slow.capacity())));
  S->set("recorded",
         JsonValue::number(static_cast<double>(Slow.recorded())));
  JsonRef Entries = JsonValue::array();
  for (const SlowQueryRecord &R : Slow.snapshot(MaxRecords))
    Entries->push(SlowQueryLog::toJson(R));
  S->set("entries", Entries);
  return S;
}

JsonRef XsolvedServer::logJson(size_t MaxRecords) {
  EventLog &Log = EventLog::global();
  JsonRef S = JsonValue::object();
  S->set("schema", JsonValue::string("xsa.log/1"));
  S->set("records",
         JsonValue::number(static_cast<double>(Log.recordCount())));
  S->set("sink_dropped",
         JsonValue::number(static_cast<double>(Log.sinkDropped())));
  JsonRef Entries = JsonValue::array();
  for (const EventLog::Record &R : Log.ring(MaxRecords))
    Entries->push(logRecordJson(R));
  S->set("entries", Entries);
  return S;
}

void XsolvedServer::admit(const std::shared_ptr<Connection> &ConnPtr,
                          uint64_t Seq, const JsonValue &Obj,
                          AnalysisRequest Req) {
  Connection &Conn = *ConnPtr;
  auto JP = std::make_shared<Job>();
  Job &J = *JP;
  J.Conn = ConnPtr;
  J.Seq = Seq;
  J.Req = std::move(Req);
  J.Stable = Conn.Stable;
  J.Ns = Conn.Ns;
  J.Rid = !J.Req.Id.empty()
              ? J.Req.Id
              : "c" + std::to_string(Conn.Id) + "-" + std::to_string(Seq);
  J.Req.TraceId = J.Rid;
  J.RequestJson = Obj.dump();
  J.Priority = clampedInteger<int>(Obj.get("priority")->asNumber());
  J.EnqueueNs = nowSteadyNs();
  JsonRef Deadline = Obj.get("deadline_ms");
  if (Deadline->type() == JsonValue::Type::Number &&
      Deadline->asNumber() >= 0) {
    // A deadline the steady clock cannot reach from EnqueueNs is no
    // deadline (DeadlineNs stays 0) rather than a wrapped, already
    // expired one.
    uint64_t Ns = clampedInteger<uint64_t>(Deadline->asNumber() * 1e6);
    if (Ns < std::numeric_limits<uint64_t>::max() - J.EnqueueNs)
      J.DeadlineNs = J.EnqueueNs + Ns;
  }

  NamespaceState &Ns = *J.Ns;
  AnalysisSession::Admission A = Sess->submit(
      [this, JP](AnalysisContext &Ctx) { runJob(*JP, Ctx); }, J.Priority,
      Opts.QueueLimit);
  if (A == AnalysisSession::Admission::Queued) {
    queueDepthGauge().set(static_cast<double>(Sess->queued()));
    Ns.Requests.fetch_add(1, std::memory_order_relaxed);
    Ns.RequestsMetric->add();
    return;
  }
  bool Drain = A == AnalysisSession::Admission::Closed;
  const char *Code = Drain ? "draining" : "overloaded";
  Ns.Rejections.fetch_add(1, std::memory_order_relaxed);
  rejectionCounter(Code).add();
  {
    LogEvent Ev(LogLevel::Warn, "request.rejected");
    Ev.str("rid", J.Rid).str("ns", Ns.Name).str("code", Code);
    if (!Drain)
      Ev.num("queue_limit", static_cast<double>(Opts.QueueLimit));
    Ev.num("conn", static_cast<double>(Conn.Id));
  }
  std::string Message =
      Drain ? "server is draining and no longer accepts analysis requests"
            : "request queue is full (limit " +
                  std::to_string(Opts.QueueLimit) + "); retry later";
  deliver(Conn, Seq,
          responseToJson(refusal(J.Req, J.Rid, Code, std::move(Message)),
                         /*IncludeVolatile=*/!Conn.Stable)
              ->dump());
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

/// An admitted job, on one of the session's workers: deadline_exceeded
/// without a solve when the deadline passed in the queue, else the
/// request on that worker's context; then finish(), so no request waits
/// for another to complete.
void XsolvedServer::runJob(const Job &J, AnalysisContext &Ctx) {
  queueDepthGauge().set(static_cast<double>(Sess->queued()));
  uint64_t Now = nowSteadyNs();
  double WaitMs = (Now - J.EnqueueNs) / 1e6;
  AnalysisResponse R;
  if (J.DeadlineNs && Now > J.DeadlineNs) {
    R = refusal(J.Req, J.Rid, "deadline_exceeded",
                "deadline expired before the request reached a worker");
  } else {
    queueWaitHistogram().observe(WaitMs);
    Tracer::global().recordSpanFrom("server.queue_wait", J.EnqueueNs);
    InFlight.fetch_add(1, std::memory_order_relaxed);
    J.Ns->InFlight.fetch_add(1, std::memory_order_relaxed);
    R = runRequest(Ctx, J.Req);
    J.Ns->InFlight.fetch_sub(1, std::memory_order_relaxed);
    InFlight.fetch_sub(1, std::memory_order_relaxed);
  }
  finish(J, R, WaitMs);
}

/// The tail of every admitted request, run or expired: namespace
/// tallies, tail sampling, logs and delivery. Total latency is queue
/// wait + execution (the "request" stage row when stage capture ran,
/// Stats.TimeMs as the fallback); an expired request never ran, so its
/// breakdown is queue wait alone. The slowlog decision comes after the
/// response exists, so fast successes leave nothing behind. Encodes
/// with the job's admission-time J.Stable: a worker must not read
/// Conn.Stable, which the reader may be rewriting.
void XsolvedServer::finish(const Job &J, const AnalysisResponse &R,
                           double WaitMs) {
  NamespaceState &Ns = *J.Ns;
  bool Expired = R.ErrorCode == "deadline_exceeded";
  if (Expired) {
    deadlineMissCounter().add();
    Ns.DeadlineMisses.fetch_add(1, std::memory_order_relaxed);
    LogEvent(LogLevel::Warn, "request.deadline_exceeded")
        .str("rid", J.Rid)
        .str("ns", Ns.Name)
        .num("queue_wait_ms", WaitMs)
        .num("conn", static_cast<double>(J.Conn->Id));
  } else if (!R.Ok) {
    Ns.Errors.fetch_add(1, std::memory_order_relaxed);
  } else if (R.FromCache) {
    Ns.CacheHits.fetch_add(1, std::memory_order_relaxed);
  } else {
    Ns.CacheMisses.fetch_add(1, std::memory_order_relaxed);
  }
  Ns.SolverTimeUs.fetch_add(static_cast<uint64_t>(R.Stats.TimeMs * 1000.0),
                            std::memory_order_relaxed);
  double ExecMs = R.Stats.TimeMs;
  for (const auto &[Name, Ms] : R.StageMs)
    if (Name == "request") {
      ExecMs = Ms;
      break;
    }
  double TotalMs = WaitMs + ExecMs;
  SlowQueryLog &Slow = SlowQueryLog::global();
  if (Slow.shouldRecord(TotalMs, R.Ok)) {
    SlowQueryRecord SR;
    SR.RequestId = J.Rid;
    SR.ClientId = J.Req.Id;
    SR.Ns = Ns.Name;
    SR.Op = requestKindName(J.Req.Kind);
    SR.Ok = R.Ok;
    SR.Code = R.ErrorCode;
    SR.Priority = J.Priority;
    SR.ConnId = J.Conn->Id;
    SR.QueueWaitMs = WaitMs;
    SR.TotalMs = TotalMs;
    SR.FromCache = R.FromCache;
    SR.StageMs = R.StageMs;
    SR.StageMs.emplace_back("server.queue_wait", WaitMs);
    SR.RequestJson = J.RequestJson;
    Ns.SlowQueries.fetch_add(1, std::memory_order_relaxed);
    Slow.record(std::move(SR));
    // Link the latency histogram back to this capture; an expired
    // request was never observed there.
    if (!Expired)
      MetricRegistry::global()
          .histogram("xsa_request_latency_ms")
          .setExemplar(J.Rid, TotalMs);
    if (R.Ok)
      LogEvent(LogLevel::Warn, "request.slow")
          .str("rid", J.Rid)
          .str("ns", Ns.Name)
          .num("total_ms", TotalMs)
          .num("queue_wait_ms", WaitMs);
  }
  if (EventLog::global().enabled(LogLevel::Debug))
    LogEvent(LogLevel::Debug, "request.done")
        .str("rid", J.Rid)
        .str("ns", Ns.Name)
        .flag("ok", R.Ok)
        .flag("cache", R.FromCache)
        .num("total_ms", TotalMs)
        .num("conn", static_cast<double>(J.Conn->Id));
  deliver(*J.Conn, J.Seq,
          responseToJson(R, /*IncludeVolatile=*/!J.Stable)->dump());
}

//===----------------------------------------------------------------------===//
// Delivery
//===----------------------------------------------------------------------===//

/// Producer side of the per-connection sequencer: parks the response
/// line in the reorder buffer and wakes the writer. Called from the
/// reader (control responses, admission rejections) and the workers
/// (analysis responses) — NEVER performs socket I/O, so none of them
/// can be stalled by a client that stopped reading. The buffer is
/// bounded: a connection whose client left more than MaxOutboundBytes
/// unread is dropped, not buffered without limit.
void XsolvedServer::deliver(Connection &Conn, uint64_t Seq, std::string Line) {
  Line += '\n';
  {
    std::lock_guard<std::mutex> L(Conn.WriteMu);
    if (!Conn.Open.load())
      return; // connection dropped — discard, the writer is done
    Conn.PendingBytes += Line.size();
    Conn.Pending.emplace(Seq, std::move(Line));
    if (Conn.PendingBytes > Opts.MaxOutboundBytes) {
      Conn.Open.store(false);
      Conn.Pending.clear();
      Conn.PendingBytes = 0;
      if (Conn.Fd >= 0)
        ::shutdown(Conn.Fd, SHUT_RDWR);
    }
  }
  Conn.WriteCv.notify_all();
}

/// Per-connection writer: drains the reorder buffer to the socket in
/// sequence order. The only thread that sends on an analysis
/// connection, and the only one allowed to block on a slow client —
/// bounded by the Alive checks inside sendAll, so forced teardown can
/// always interrupt it.
void XsolvedServer::writerLoop(std::shared_ptr<Connection> Conn) {
  std::unique_lock<std::mutex> L(Conn->WriteMu);
  while (true) {
    Conn->WriteCv.wait(L, [&] {
      return !Conn->Open.load() ||
             (!Conn->Pending.empty() &&
              Conn->Pending.begin()->first == Conn->NextDeliver) ||
             (Conn->InputDone && Conn->NextDeliver == Conn->FinalSeq);
    });
    if (!Conn->Open.load())
      break;
    if (!Conn->Pending.empty() &&
        Conn->Pending.begin()->first == Conn->NextDeliver) {
      std::string Out = std::move(Conn->Pending.begin()->second);
      Conn->Pending.erase(Conn->Pending.begin());
      Conn->PendingBytes -= Out.size();
      ++Conn->NextDeliver;
      L.unlock();
      bool Ok = sendAll(Conn->Fd, Out.data(), Out.size(), Conn->Open);
      L.lock();
      if (!Ok) {
        Conn->Open.store(false);
        Conn->Pending.clear();
        Conn->PendingBytes = 0;
        break;
      }
      continue;
    }
    // InputDone with everything flushed: the reader is gone and no
    // producer will enqueue another sequenced line.
    break;
  }
  // Signal the peer we are done (EOF after the last response) and the
  // teardown in wait() that this connection is fully flushed.
  if (Conn->Fd >= 0)
    ::shutdown(Conn->Fd, SHUT_RDWR);
  Conn->WriterExited = true;
  L.unlock();
  Conn->WriteCv.notify_all();
}
