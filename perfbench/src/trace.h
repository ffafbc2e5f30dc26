// Span tracing for the benchmark's traced run. Spans are recorded only from
// the benchmark's own files: decorators around each server registry
// (TracingHandler) and each client endpoint (TracingEndpoint), plus spans
// the benchmark opens around every facade call and every ParseXml. Spans stay
// in memory and are written out once the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/endpoint.h"

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// One timed interval at a layer boundary.
struct Span {
  const char* name = "";  ///< static string, e.g. "store.eval"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< enclosing span on the same thread, -1 if none
  int32_t op = -1;        ///< operation the span belongs to, -1 if none
  uint32_t thread = 0;    ///< small per-thread id, 0 = first thread seen
  int64_t count = 0;      ///< work units (store.eval: node x point evals)
};

/// Collects spans from every thread. One operation is current at a time
/// (the benchmark is a closed loop with one client), so spans opened on
/// server threads inherit the client's current operation id.
class Tracer {
 public:
  /// Spans opened from now on, on any thread, belong to operation `op`.
  void SetOp(int32_t op) { op_.store(op, std::memory_order_relaxed); }

  /// Opens a span nested in this thread's innermost open span.
  int32_t Open(const char* name);
  /// Closes span `id`, attaching `count` work units to it.
  void Close(int32_t id, int64_t count = 0);
  /// Records an interval that does not nest on the calling thread (a
  /// pipelined request between submit and await).
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  std::vector<Span> spans() const;

  /// Writes the spans as a Chrome trace-event JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  uint32_t ThreadId();

  std::atomic<int32_t> op_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;       // guarded by mu_
  std::vector<uint64_t> threads_; // guarded by mu_: hashed std::thread ids
};

/// Opens a span on construction and closes it on destruction. A null
/// tracer makes it a no-op, so untraced runs share the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(int64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  int32_t id_;
  int64_t count_ = 0;
};

/// Server-side decorator: one span per handled request ("store.eval",
/// "store.fetch", "store.add_doc", "store.remove_doc"). store.eval spans
/// carry the number of (node, point) evaluations answered. Only the requests
/// the workloads send are forwarded; shard migration and ping keep the
/// base-class refusals.
class TracingHandler final : public polysse::ServerHandler {
 public:
  TracingHandler(polysse::ServerHandler* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  polysse::Result<polysse::EvalResponse> HandleEval(
      const polysse::EvalRequest& req) override;
  polysse::Result<polysse::FetchResponse> HandleFetch(
      const polysse::FetchRequest& req) override;
  polysse::Result<polysse::AdminAck> HandleAddDoc(
      const polysse::AddDocRequest& req) override;
  polysse::Result<polysse::AdminAck> HandleRemoveDoc(
      const polysse::RemoveDocRequest& req) override;

 private:
  polysse::ServerHandler* inner_;
  Tracer* tracer_;
};

/// Client-side decorator. Every call the client thread blocks in gets an
/// "endpoint.*" span; every request additionally gets an "endpoint.flight"
/// record from submit to response, which for pipelined calls spans the
/// client work done between BeginEval/BeginFetch and Await. Like
/// TracingHandler, it forwards only the calls the workloads make.
class TracingEndpoint final : public polysse::ServerEndpoint {
 public:
  TracingEndpoint(polysse::ServerEndpoint* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  polysse::Result<polysse::EvalResponse> Eval(
      const polysse::EvalRequest& req) override;
  polysse::Result<polysse::FetchResponse> Fetch(
      const polysse::FetchRequest& req) override;
  polysse::Result<polysse::AdminAck> AddDoc(
      const polysse::AddDocRequest& req) override;
  polysse::Result<polysse::AdminAck> RemoveDoc(
      const polysse::RemoveDocRequest& req) override;
  polysse::Deferred<polysse::EvalResponse> BeginEval(
      const polysse::EvalRequest& req) override;
  polysse::Deferred<polysse::FetchResponse> BeginFetch(
      const polysse::FetchRequest& req) override;
  bool SupportsPipelining() const override {
    return inner_->SupportsPipelining();
  }
  polysse::TransportCounters counters() const override {
    return inner_->counters();
  }

 private:
  template <typename T, typename Call>
  polysse::Result<T> Timed(const char* name, Call call);
  template <typename T, typename Begin>
  polysse::Deferred<T> TimedBegin(Begin begin);

  polysse::ServerEndpoint* inner_;
  Tracer* tracer_;
};

/// Per-operation decomposition of one traced operation, from its spans.
struct OpBreakdown {
  const char* kind = "";     ///< the operation span's name ("op.search", ...)
  double wall_ms = 0;        ///< the operation span
  double client_ms = 0;      ///< wall minus time blocked in endpoint calls
  double wait_ms = 0;        ///< sum of blocking endpoint spans
  double flight_ms = 0;      ///< sum of request flights (submit..response)
  /// Blocked time during which no server was handling a request: codec on
  /// loopback, plus frames and sockets on TCP.
  double wire_ms = 0;
  double store_eval_ms = 0;
  double store_fetch_ms = 0;
  double store_add_ms = 0;
  double store_remove_ms = 0;
  int64_t store_evals = 0;
  int64_t calls = 0;         ///< endpoint requests (flights)
};

/// Groups spans by operation and computes each operation's self times.
/// Spans outside any operation (op == -1) are ignored. Entry i describes
/// operation id i; ids without an operation span have an empty kind.
std::vector<OpBreakdown> BreakDown(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
