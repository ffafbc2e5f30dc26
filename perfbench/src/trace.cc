#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

using polysse::AddDocRequest;
using polysse::AdminAck;
using polysse::Deferred;
using polysse::EvalRequest;
using polysse::EvalResponse;
using polysse::FetchRequest;
using polysse::FetchResponse;
using polysse::RemoveDocRequest;
using polysse::Result;

namespace {
// Innermost open span of this thread. One Tracer records at a time.
thread_local int32_t tls_open_span = -1;
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::ThreadId() {
  const uint64_t self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (size_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == self) return static_cast<uint32_t>(i);
  threads_.push_back(self);
  return static_cast<uint32_t>(threads_.size() - 1);
}

int32_t Tracer::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = tls_open_span;
  span.op = op_.load(std::memory_order_relaxed);
  int32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.thread = ThreadId();
    id = static_cast<int32_t>(spans_.size());
    spans_.push_back(span);
    spans_.back().start_ns = NowNs();
  }
  tls_open_span = id;
  return id;
}

void Tracer::Close(int32_t id, int64_t count) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = end;
  span.count = count;
  tls_open_span = span.parent;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.op = op_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  span.thread = ThreadId();
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%d,\"count\":%" PRId64 "}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.op, s.count);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ TracingHandler

Result<EvalResponse> TracingHandler::HandleEval(const EvalRequest& req) {
  ScopedSpan span(tracer_, "store.eval");
  auto resp = inner_->HandleEval(req);
  if (resp.ok())
    span.set_count(static_cast<int64_t>(resp->entries.size() *
                                        req.points.size()));
  return resp;
}

Result<FetchResponse> TracingHandler::HandleFetch(const FetchRequest& req) {
  ScopedSpan span(tracer_, "store.fetch");
  return inner_->HandleFetch(req);
}

Result<AdminAck> TracingHandler::HandleAddDoc(const AddDocRequest& req) {
  ScopedSpan span(tracer_, "store.add_doc");
  return inner_->HandleAddDoc(req);
}

Result<AdminAck> TracingHandler::HandleRemoveDoc(const RemoveDocRequest& req) {
  ScopedSpan span(tracer_, "store.remove_doc");
  return inner_->HandleRemoveDoc(req);
}

// ----------------------------------------------------------- TracingEndpoint

template <typename T, typename Call>
Result<T> TracingEndpoint::Timed(const char* name, Call call) {
  const int64_t start = NowNs();
  Result<T> out = [&] {
    ScopedSpan span(tracer_, name);
    return call();
  }();
  tracer_->Record("endpoint.flight", start, NowNs());
  return out;
}

template <typename T, typename Begin>
Deferred<T> TracingEndpoint::TimedBegin(Begin begin) {
  const int64_t start = NowNs();
  auto inner = [&] {
    ScopedSpan span(tracer_, "endpoint.submit");
    return std::make_shared<Deferred<T>>(begin());
  }();
  Tracer* tracer = tracer_;
  return Deferred<T>(std::function<Result<T>()>([inner, tracer, start] {
    Result<T> out = [&] {
      ScopedSpan span(tracer, "endpoint.await");
      return inner->Await();
    }();
    tracer->Record("endpoint.flight", start, NowNs());
    return out;
  }));
}

Result<EvalResponse> TracingEndpoint::Eval(const EvalRequest& req) {
  return Timed<EvalResponse>("endpoint.eval", [&] { return inner_->Eval(req); });
}

Result<FetchResponse> TracingEndpoint::Fetch(const FetchRequest& req) {
  return Timed<FetchResponse>("endpoint.fetch",
                              [&] { return inner_->Fetch(req); });
}

Result<AdminAck> TracingEndpoint::AddDoc(const AddDocRequest& req) {
  return Timed<AdminAck>("endpoint.add_doc",
                         [&] { return inner_->AddDoc(req); });
}

Result<AdminAck> TracingEndpoint::RemoveDoc(const RemoveDocRequest& req) {
  return Timed<AdminAck>("endpoint.remove_doc",
                         [&] { return inner_->RemoveDoc(req); });
}

Deferred<EvalResponse> TracingEndpoint::BeginEval(const EvalRequest& req) {
  return TimedBegin<EvalResponse>([&] { return inner_->BeginEval(req); });
}

Deferred<FetchResponse> TracingEndpoint::BeginFetch(const FetchRequest& req) {
  return TimedBegin<FetchResponse>([&] { return inner_->BeginFetch(req); });
}

// ------------------------------------------------------------------ analysis

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

bool Is(const Span& s, const char* name) {
  return std::string_view(s.name) == name;
}

using Intervals = std::vector<std::pair<int64_t, int64_t>>;

/// The union of [start, end) intervals as sorted, disjoint intervals.
Intervals Merge(Intervals in) {
  std::sort(in.begin(), in.end());
  Intervals out;
  for (const auto& [start, end] : in) {
    if (out.empty() || start > out.back().second) {
      out.emplace_back(start, end);
    } else {
      out.back().second = std::max(out.back().second, end);
    }
  }
  return out;
}

int64_t Length(const Intervals& merged) {
  int64_t total = 0;
  for (const auto& [start, end] : merged) total += end - start;
  return total;
}

/// Length of the intersection of two merged interval sets.
int64_t OverlapLength(const Intervals& a, const Intervals& b) {
  int64_t total = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t lo = std::max(a[i].first, b[j].first);
    const int64_t hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

std::vector<OpBreakdown> BreakDown(const std::vector<Span>& spans) {
  int32_t max_op = -1;
  for (const Span& s : spans) max_op = std::max(max_op, s.op);
  const size_t n = static_cast<size_t>(max_op + 1);
  std::vector<OpBreakdown> out(n);
  // The operation span is the first one recorded under its id: the benchmark
  // opens it before calling into the library.
  std::vector<int32_t> root(n, -1);
  std::vector<Intervals> blocked(n);
  std::vector<Intervals> serving(n);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < 0) continue;
    const size_t op = static_cast<size_t>(s.op);
    OpBreakdown& b = out[op];
    const int64_t dur = s.end_ns - s.start_ns;
    if (root[op] < 0) {
      root[op] = static_cast<int32_t>(i);
      b.kind = s.name;
      b.wall_ms = Ms(dur);
    } else if (s.parent == root[op]) {
      b.wait_ms += Ms(dur);
      blocked[op].emplace_back(s.start_ns, s.end_ns);
    } else if (Is(s, "endpoint.flight")) {
      b.flight_ms += Ms(dur);
      ++b.calls;
    } else if (std::string_view(s.name).rfind("store.", 0) == 0) {
      serving[op].emplace_back(s.start_ns, s.end_ns);
      if (Is(s, "store.eval")) {
        b.store_eval_ms += Ms(dur);
        b.store_evals += s.count;
      } else if (Is(s, "store.fetch")) {
        b.store_fetch_ms += Ms(dur);
      } else if (Is(s, "store.add_doc")) {
        b.store_add_ms += Ms(dur);
      } else if (Is(s, "store.remove_doc")) {
        b.store_remove_ms += Ms(dur);
      }
    }
  }
  for (size_t op = 0; op < n; ++op) {
    if (root[op] < 0) continue;
    const Intervals waits = Merge(std::move(blocked[op]));
    out[op].client_ms = out[op].wall_ms - Ms(Length(waits));
    out[op].wire_ms =
        Ms(Length(waits) - OverlapLength(waits, Merge(std::move(serving[op]))));
  }
  return out;
}

}  // namespace perfbench
