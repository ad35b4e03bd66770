//===- SlowQuery.cpp - Tail-sampled slow-query recorder --------------------===//

#include "obs/SlowQuery.h"

#include "obs/Metrics.h"

#include <chrono>

using namespace xsa;

SlowQueryLog &SlowQueryLog::global() {
  static SlowQueryLog L;
  return L;
}

void SlowQueryLog::configure(const Options &O) {
  std::lock_guard<std::mutex> Lock(Mu);
  Opts = O;
  ThresholdMsA.store(O.ThresholdMs, std::memory_order_relaxed);
  while (Ring.size() > Opts.Capacity)
    Ring.pop_front();
}

size_t SlowQueryLog::capacity() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Opts.Capacity;
}

void SlowQueryLog::record(SlowQueryRecord R) {
  static Counter &Total = MetricRegistry::global().counter(
      "xsa_server_slow_queries_total",
      "Requests captured by the tail-sampled slow-query recorder",
      /*Volatile=*/true);
  Total.add();
  Recorded.fetch_add(1, std::memory_order_relaxed);
  R.UnixMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::lock_guard<std::mutex> Lock(Mu);
  R.Seq = NextSeq++;
  Ring.push_back(std::move(R));
  while (Ring.size() > Opts.Capacity)
    Ring.pop_front();
}

std::vector<SlowQueryRecord> SlowQueryLog::snapshot(size_t MaxRecords) const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = Ring.size();
  if (MaxRecords && MaxRecords < N)
    N = MaxRecords;
  std::vector<SlowQueryRecord> Out;
  Out.reserve(N);
  for (size_t I = Ring.size() - N; I < Ring.size(); ++I)
    Out.push_back(Ring[I]);
  return Out;
}

void SlowQueryLog::clearForTest() {
  std::lock_guard<std::mutex> Lock(Mu);
  Ring.clear();
  NextSeq = 1;
  Recorded.store(0, std::memory_order_relaxed);
}

JsonRef SlowQueryLog::toJson(const SlowQueryRecord &R) {
  JsonRef O = JsonValue::object();
  O->set("seq", JsonValue::number(static_cast<double>(R.Seq)));
  O->set("unix_ms", JsonValue::number(static_cast<double>(R.UnixMs)));
  O->set("rid", JsonValue::string(R.RequestId));
  if (!R.ClientId.empty())
    O->set("id", JsonValue::string(R.ClientId));
  O->set("ns", JsonValue::string(R.Ns));
  O->set("op", JsonValue::string(R.Op));
  O->set("ok", JsonValue::boolean(R.Ok));
  if (!R.Code.empty())
    O->set("code", JsonValue::string(R.Code));
  O->set("priority", JsonValue::number(R.Priority));
  O->set("conn", JsonValue::number(static_cast<double>(R.ConnId)));
  O->set("cache", JsonValue::string(R.FromCache ? "hit" : "miss"));
  O->set("queue_wait_ms", JsonValue::number(R.QueueWaitMs));
  O->set("total_ms", JsonValue::number(R.TotalMs));
  JsonRef Stages = JsonValue::object();
  for (const auto &[Name, Ms] : R.StageMs)
    Stages->set(Name, JsonValue::number(Ms));
  O->set("stages", Stages);
  // Reproduction payload: the admitted request, re-parsed so it embeds
  // as an object, not a quoted string. `xsolve replay` consumes exactly
  // this field.
  if (!R.RequestJson.empty()) {
    std::string Err;
    if (JsonRef Req = parseJson(R.RequestJson, Err))
      O->set("request", Req);
  }
  return O;
}
