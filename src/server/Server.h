//===- Server.h - Long-lived multi-tenant analysis server --------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `xsolved`: a daemon wrapping ONE shared AnalysisSession behind
/// JSON-lines over TCP and/or a unix-domain socket, so concurrent
/// clients share the sharded result cache and the SharedFixpointStore —
/// a containment check one client asked is a cache hit for the next,
/// even when both ask it at the same moment.
///
/// Concurrency model. The session's BDD machinery is single-threaded by
/// design (see service/Session.h), so the server never runs a request on
/// a socket thread. Instead:
///
///  * one reader thread per connection parses lines and ADMITS analysis
///    requests into the session's priority queue, bounded by QueueLimit
///    (admission control: a full queue answers "overloaded"
///    immediately, it never blocks the client or buffers unboundedly).
///    It answers a control op once every earlier line of the
///    connection is answered, and the op applies to every later line,
///    as in `xsolve batch`;
///  * the session's jobs() worker threads, each with its own
///    AnalysisContext, pull from that queue (priority desc, FIFO within
///    a priority) — the same pool `xsolve batch` runs on. A worker
///    answers a job whose deadline already expired with
///    "deadline_exceeded" without solving it, runs the rest, and does
///    the request's accounting, tail sampling and delivery itself — so
///    a fast request never waits for a slow one to finish. Admissions
///    carry their requestKey, so identical requests from any number of
///    clients reach the fixpoint once (see AnalysisSession::submit);
///  * responses return to their connection through `xsolve batch`'s
///    OrderedRun (service/Batch.h), one per connection, which restores
///    request order, so every client observes the same stream a serial
///    `xsolve batch` would produce — with the per-connection `stable`
///    encoding, byte-identical to it;
///  * one writer thread per connection sends what that run releases.
///    Workers only enqueue response lines and never perform socket I/O,
///    so a client that stops reading stalls its own writer thread — not
///    a worker, not other tenants. The outbound buffer, with the
///    answers waiting in the run, is bounded (MaxOutboundBytes); a
///    connection that overflows it is dropped. A connection with
///    MaxUnanswered answers waiting behind an unanswered line is not
///    read until that line is answered.
///
/// Tenancy. A connection starts in the "default" namespace and may
/// switch with {"op":"config","ns":"team-a"}. A namespace carries its
/// own request statistics; the result cache and fixpoint store
/// underneath stay shared — namespaces isolate *accounting*, not
/// results, which is the point of a shared-session server (reads
/// through a shared cache cannot change any verdict; see DESIGN.md).
///
/// Shutdown. SIGTERM (wired in examples/xsolved.cpp) or a client
/// {"op":"drain"} stops accepting connections, closes the session so
/// further analysis requests are answered "draining", finishes
/// everything already admitted, delivers the responses, persists the
/// cache file, and exits cleanly.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVER_SERVER_H
#define XSA_SERVER_SERVER_H

#include "service/Json.h"
#include "service/Request.h"
#include "service/Session.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace xsa {

class Counter;

namespace detail {
struct FdLineReader;
} // namespace detail

struct ServerOptions {
  /// TCP listener. Port < 0 disables TCP; port 0 binds an ephemeral
  /// port (read it back with tcpPort() — what the tests and the
  /// --port-file flag use).
  std::string Host = "127.0.0.1";
  int TcpPort = -1;
  /// Unix-domain listener ("" disables). An existing socket file at the
  /// path is unlinked before bind.
  std::string UnixPath;
  /// Admission control: most analysis requests queued (not yet taken
  /// by a worker) at once, across all connections. A full queue answers
  /// {"error":{"code":"overloaded"}} immediately.
  size_t QueueLimit = 256;
  /// Longest accepted input line (see BatchStreamOptions::MaxLineBytes).
  size_t MaxLineBytes = size_t(1) << 20;
  /// Most response bytes one connection holds unsent: answers waiting
  /// behind an earlier line's, and answers its client is not reading
  /// (the kernel socket buffer is full). Workers never block on a
  /// socket; they park response lines here for the connection's writer
  /// thread, and a connection whose next answer would overflow this
  /// bound is dropped rather than buffered unboundedly.
  size_t MaxOutboundBytes = size_t(32) << 20;
  /// Tail-sampled slow-query recorder (obs/SlowQuery.h): admitted
  /// requests whose total latency (queue wait + execution) reaches this
  /// many milliseconds — or that error, or miss their deadline — are
  /// captured with their per-stage breakdown. 0 captures everything.
  double SlowThresholdMs = 250;
  /// Most slowlog entries retained ({"op":"slowlog"} / /slowlog).
  size_t SlowlogCapacity = 128;
  /// Most concurrent HTTP (scraper/introspection) connections; above
  /// the cap a connection is answered 503 and closed, so scrapers can
  /// never starve the analysis plane of reader threads.
  size_t HttpMaxConns = 8;
  /// Idle keep-alive timeout for HTTP connections: a scraper that sends
  /// no new request within this many milliseconds is closed.
  size_t HttpIdleTimeoutMs = 5000;
  /// The shared session's knobs. jobs is the number of worker threads,
  /// fixed for the server's lifetime; the session starts them on the
  /// first admitted request.
  SessionOptions Session;
  /// When non-empty: loaded at start() if present, persisted on drain.
  std::string CacheFile;
  /// Default per-connection response encoding; each connection may
  /// override with {"op":"config","stable":true}.
  bool DefaultStable = false;
};

/// Per-namespace accounting: relaxed atomics (independent tallies
/// bumped by readers and workers, read at export time).
struct NamespaceState {
  explicit NamespaceState(std::string Name);

  const std::string Name;

  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Errors{0};
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheMisses{0};
  std::atomic<uint64_t> DeadlineMisses{0};
  std::atomic<uint64_t> Rejections{0};
  std::atomic<uint64_t> SolverTimeUs{0};
  std::atomic<uint64_t> SlowQueries{0};
  /// Requests of this namespace currently running on a worker (counted
  /// around the solve) — the per-tenant in-flight figure of
  /// {"op":"status"} / /statusz.
  std::atomic<uint64_t> InFlight{0};

  /// xsa_server_requests_total{ns="..."} — registered at namespace
  /// creation so /metrics carries a per-tenant series.
  Counter *RequestsMetric = nullptr;
};

class XsolvedServer {
public:
  explicit XsolvedServer(ServerOptions Opts);
  ~XsolvedServer();
  XsolvedServer(const XsolvedServer &) = delete;
  XsolvedServer &operator=(const XsolvedServer &) = delete;

  /// Binds the listeners, loads the cache file (when configured and
  /// present), and starts the accept thread. False (with \p Error) on
  /// bind/listen failure.
  bool start(std::string &Error);

  /// The bound TCP port (after start(); 0 when TCP is disabled).
  int tcpPort() const { return BoundPort; }

  /// Initiates graceful drain: stop accepting, reject new analysis
  /// requests with "draining", finish and deliver everything admitted.
  /// Idempotent; safe from any thread (including the signal-watching
  /// main loop of xsolved).
  void requestDrain();

  /// Blocks until the server has fully stopped — queue drained,
  /// connections closed, cache persisted. Returns immediately if
  /// already stopped. Call requestDrain() first (or let a client's
  /// {"op":"drain"} do it).
  void wait();

  /// requestDrain() + wait().
  void drainAndWait();

  /// True once a drain was requested (by requestDrain, a SIGTERM
  /// watcher, or a client's {"op":"drain"}) — what the daemon's main
  /// loop polls to know a client asked the server down.
  bool draining() const { return Draining.load(); }

  /// The shared session (for tests and stats endpoints). Its
  /// debugPause hook holds admitted jobs in the queue, so it fills
  /// deterministically (overload tests) and deadlines expire (deadline
  /// tests); a drain overrides the pause.
  AnalysisSession &session() { return *Sess; }

  /// Most namespaces a server holds, "default" included: each keeps its
  /// counters and its metrics series for the server's whole life.
  static constexpr size_t MaxNamespaces = 256;

  /// The namespace \p Name, created on first use; null when it does not
  /// exist and MaxNamespaces already do. Exposed for tests.
  std::shared_ptr<NamespaceState> namespaceState(const std::string &Name);

private:
  struct Connection;
  struct Job;

  bool acceptOne(int ListenFd);
  void acceptLoop();
  void runJob(const Job &J, AnalysisContext &Ctx);
  void readerLoop(std::shared_ptr<Connection> Conn);
  void writerLoop(std::shared_ptr<Connection> Conn);
  void handleLine(const std::shared_ptr<Connection> &ConnPtr,
                  const std::string &Line, size_t LineNo, bool Truncated);
  JsonRef controlAnswer(Connection &Conn, const std::string &Op,
                        const JsonValue &Obj);
  JsonRef applyConfig(Connection &Conn, const JsonValue &Obj);
  void admit(const std::shared_ptr<Connection> &ConnPtr, size_t Pos,
             const JsonValue &Obj, AnalysisRequest Req);
  void finish(const Job &J, const AnalysisResponse &R, double WaitMs);
  /// HTTP/1.1 side of the listener, entered when a connection's first
  /// line is a GET: serves /metrics, /healthz, /statusz, /slowlog and
  /// /logz with keep-alive (idle timeout, connection cap) on the reader
  /// thread. \p Reader still holds whatever the client pipelined.
  void serveHttpConnection(Connection &Conn, detail::FdLineReader &Reader,
                           const std::string &RequestLine);
  void closeListeners();
  void shutdownConnections();
  JsonRef namespacesJson();
  JsonRef statusJson();
  JsonRef slowlogJson(size_t MaxRecords);
  JsonRef logJson(size_t MaxRecords);

  ServerOptions Opts;
  std::unique_ptr<AnalysisSession> Sess;

  int TcpFd = -1, UnixFd = -1;
  int BoundPort = 0;

  std::thread AcceptThread;

  std::mutex ConnsMu;
  std::vector<std::shared_ptr<Connection>> Conns;
  uint64_t NextConnId = 1;

  std::mutex NsMu;
  std::map<std::string, std::shared_ptr<NamespaceState>> Namespaces;

  std::atomic<bool> Draining{false};
  std::atomic<bool> Started{false};
  std::atomic<bool> Stopped{false};
  std::mutex StopMu; ///< serializes wait()

  uint64_t StartSteadyNs = 0; ///< set by start(); uptime origin
  std::atomic<uint64_t> InFlight{0}; ///< requests currently on workers
  std::atomic<int> HttpConns{0};     ///< live HTTP connections (cap)
};

} // namespace xsa

#endif // XSA_SERVER_SERVER_H
