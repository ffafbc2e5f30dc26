// Repo benchmark entry point.
//
//   polysse_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--scratch <dir>]
//
// Runs one workload as a closed loop with one client and checks every answer
// against the plaintext oracle. The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics (from a traced run,
// plus the tracing overhead against an untraced run of the same script)
// with --trace 1. Exits non-zero when any operation failed or answered
// wrongly, or when a self-check does not hold.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Traced self times (core.client_ms + endpoint.wait_ms) must match the
/// stopwatch wall of the traced operations within this share.
constexpr double kAccountTolerance = 0.05;
/// A percentile is reported only with at least this many samples beyond it.
constexpr size_t kMinBeyond = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

/// Nearest-rank percentile; false when fewer than kMinBeyond samples lie
/// beyond it.
bool Percentile(std::vector<double> samples, double q, double* value,
                size_t* beyond) {
  if (samples.empty()) return false;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  *value = samples[rank - 1];
  *beyond = samples.size() - rank;
  return *beyond >= kMinBeyond;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintCounts(const char* label, const Counts& c) {
  std::string line = std::string("counts ") + label + " {";
  const auto fields = c.Fields();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + fields[i].first + "\": " + Num(fields[i].second);
  }
  std::printf("%s}\n", line.c_str());
}

void ReportErrors(const PassResult& pass) {
  for (const std::string& e : pass.errors)
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// End-to-end metrics from an untraced run.
bool EndToEnd(const PassResult& pass, std::vector<Metric>* out) {
  double q50 = 0, q90 = 0, a50 = 0, a90 = 0;
  size_t q50_beyond = 0, q90_beyond = 0, a50_beyond = 0, a90_beyond = 0;
  bool ok = Percentile(pass.query_ms, 0.5, &q50, &q50_beyond);
  ok = Percentile(pass.query_ms, 0.9, &q90, &q90_beyond) && ok;
  ok = Percentile(pass.add_ms, 0.5, &a50, &a50_beyond) && ok;
  ok = Percentile(pass.add_ms, 0.9, &a90, &a90_beyond) && ok;
  std::printf("samples: query=%zu (p90 has %zu beyond) add=%zu (p90 has %zu "
              "beyond) setup=%zu\n",
              pass.query_ms.size(), q90_beyond, pass.add_ms.size(), a90_beyond,
              pass.setup_s.size());
  if (!ok) {
    std::fprintf(stderr,
                 "perfbench: too few samples for a p90; raise --seconds\n");
    return false;
  }
  const Counts& c = pass.counts;
  *out = {
      {"setup_s", Median(pass.setup_s), "s"},
      {"query_p50_ms", q50, "ms"},
      {"query_p90_ms", q90, "ms"},
      {"queries_per_s",
       static_cast<double>(c.tag_queries) / (pass.script_wall_ms / 1e3), "1/s"},
      {"add_p50_ms", a50, "ms"},
      {"add_p90_ms", a90, "ms"},
      {"bytes_per_query",
       PerOp(static_cast<double>(c.bytes_up + c.bytes_down), c.query_ops),
       "bytes"},
      {"rounds_per_query", PerOp(static_cast<double>(c.rounds), c.query_ops),
       "count"},
      {"storage_ratio",
       static_cast<double>(c.store_bytes) /
           static_cast<double>(c.plaintext_bytes),
       "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return true;
}

/// Per-layer metrics from the traced run; `untraced` gives the overhead.
bool PerLayer(const PassResult& traced, const PassResult& untraced,
              const std::vector<Span>& spans, std::vector<Metric>* out) {
  const std::vector<OpBreakdown> ops = BreakDown(spans);
  struct Sum {
    uint64_t n = 0;
    OpBreakdown total;
    double stopwatch_ms = 0;
    void Add(const OpBreakdown& b, double stopwatch) {
      ++n;
      total.wall_ms += b.wall_ms;
      total.client_ms += b.client_ms;
      total.wait_ms += b.wait_ms;
      total.flight_ms += b.flight_ms;
      total.wire_ms += b.wire_ms;
      total.store_eval_ms += b.store_eval_ms;
      total.store_fetch_ms += b.store_fetch_ms;
      total.store_add_ms += b.store_add_ms;
      total.store_remove_ms += b.store_remove_ms;
      total.store_evals += b.store_evals;
      total.calls += b.calls;
      stopwatch_ms += stopwatch;
    }
  };
  Sum query, add, remove, all;
  double parse_ms = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const std::string kind = ops[i].kind;
    const double stopwatch =
        i < traced.op_wall_ms.size() ? traced.op_wall_ms[i] : 0.0;
    if (kind == "xml.parse") {
      parse_ms += ops[i].wall_ms;
      continue;
    }
    if (kind == "op.search" || kind == "op.search_many") query.Add(ops[i], stopwatch);
    if (kind == "op.add") add.Add(ops[i], stopwatch);
    if (kind == "op.remove") remove.Add(ops[i], stopwatch);
    all.Add(ops[i], stopwatch);
  }

  const Counts& c = traced.counts;
  const uint64_t n = c.query_ops;
  if (query.n != n) {
    std::fprintf(stderr, "perfbench: %llu traced query spans for %llu queries\n",
                 static_cast<unsigned long long>(query.n),
                 static_cast<unsigned long long>(n));
    return false;
  }
  // Observed on both sides, the evaluation count must agree exactly.
  if (static_cast<uint64_t>(query.total.store_evals) != c.server_evals) {
    std::fprintf(stderr,
                 "perfbench: servers answered %lld evaluations, clients "
                 "counted %llu\n",
                 static_cast<long long>(query.total.store_evals),
                 static_cast<unsigned long long>(c.server_evals));
    return false;
  }
  const double accounted =
      (all.total.client_ms + all.total.wait_ms) / all.stopwatch_ms;
  const double overhead = traced.script_wall_ms / untraced.script_wall_ms;
  std::printf("tracing: overhead %.4f (traced script %.1f ms / untraced %.1f "
              "ms); self times account for %.4f of the traced op wall "
              "(tolerance %.2f)\n",
              overhead, traced.script_wall_ms, untraced.script_wall_ms,
              accounted, kAccountTolerance);
  if (std::fabs(accounted - 1.0) > kAccountTolerance) {
    std::fprintf(stderr, "perfbench: traced self times do not add up\n");
    return false;
  }

  const OpBreakdown& q = query.total;
  const double nd = static_cast<double>(n);
  auto per_q = [&](uint64_t v) { return PerOp(static_cast<double>(v), n); };
  *out = {
      {"core.client_ms", q.client_ms / nd, "ms"},
      {"core.share_derivations", per_q(c.share_derivations), "count"},
      {"core.client_evals", per_q(c.client_evals), "count"},
      {"core.reconstructions", per_q(c.reconstructions), "count"},
      {"core.zero_candidates", per_q(c.zero_candidates), "count"},
      {"core.fetch_rounds", per_q(c.fetch_rounds), "count"},
      {"core.polys_fetched", per_q(c.polys_fetched), "count"},
      {"core.consts_fetched", per_q(c.consts_fetched), "count"},
      {"core.trusted_fallbacks", per_q(c.trusted_fallbacks), "count"},
      {"core.visited_frac",
       static_cast<double>(c.nodes_visited) /
           static_cast<double>(std::max<uint64_t>(c.server_nodes, 1)),
       "ratio"},
      {"core.server_failovers", per_q(c.server_failovers), "count"},
      {"store.eval_ms", q.store_eval_ms / nd, "ms"},
      {"store.fetch_ms", q.store_fetch_ms / nd, "ms"},
      {"store.evals", per_q(c.server_evals), "count"},
      {"store.ns_per_eval",
       q.store_evals == 0 ? 0.0
                          : q.store_eval_ms * 1e6 /
                                static_cast<double>(q.store_evals),
       "ns"},
      {"store.add_ms", PerOp(add.total.store_add_ms, add.n), "ms"},
      {"store.remove_ms", PerOp(remove.total.store_remove_ms, remove.n), "ms"},
      {"store.bytes", static_cast<double>(c.store_bytes), "bytes"},
      {"endpoint.calls", per_q(static_cast<uint64_t>(q.calls)), "count"},
      {"endpoint.wait_ms", q.wait_ms / nd, "ms"},
      {"endpoint.wire_ms", q.wire_ms / nd, "ms"},
      {"endpoint.overlap", q.flight_ms / q.wall_ms, "ratio"},
      {"endpoint.bytes_up", per_q(c.bytes_up), "bytes"},
      {"endpoint.bytes_down", per_q(c.bytes_down), "bytes"},
      {"endpoint.ship_ms", PerOp(add.total.wait_ms, add.n), "ms"},
      {"shard.shards_walked", per_q(c.shards_walked), "count"},
      {"shard.rounds_sum", per_q(c.shard_rounds_sum), "count"},
      {"shard.evals_skew", c.evals_skew_sum / nd, "ratio"},
      {"xml.parse_ms", parse_ms, "ms"},
      {"outsource.client_ms", PerOp(add.total.client_ms, add.n), "ms"},
      {"trace.overhead", overhead, "ratio"},
      {"trace.accounted", accounted, "ratio"},
  };
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: polysse_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const auto& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:%s\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }

  const int busy = BusyThreads(*spec);
  const int cpus = CpuCount();
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("threads: busy=%d (client 1 + server workers %d; sequential "
              "fan-out and shard scatter, 1 worker per SocketServer) "
              "cpus=%d\n",
              busy, busy - 1, cpus);
  if (busy > cpus) {
    std::fprintf(stderr, "perfbench: %d busy threads exceed %d cpus\n", busy,
                 cpus);
    return 1;
  }

  const Inputs inputs = MakeInputs(*spec, args.seed, args.seconds);
  std::printf("inputs: %zu docs of %zu nodes on average, %zu fresh docs, %zu ops "
              "(x %zu passes untraced), digest %016llx\n",
              inputs.corpus_xml.size(), spec->doc_nodes,
              inputs.fresh_xml.size(), inputs.script.size(), spec->passes,
              static_cast<unsigned long long>(inputs.digest));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const PassResult pass = RunPass(*spec, inputs, args.scratch);
    ReportErrors(pass);
    PrintCounts("untraced", pass.counts);
    const bool ok =
        pass.failed == 0 && pass.errors.empty() && EndToEnd(pass, &metrics);
    std::printf("failed_frac: %.6f (%llu of %llu operations)\n",
                PerOp(static_cast<double>(pass.failed), pass.attempted),
                static_cast<unsigned long long>(pass.failed),
                static_cast<unsigned long long>(pass.attempted));
    PrintResult(ok, pass.attempted, pass.failed, metrics);
    return ok ? 0 : 1;
  }

  Tracer tracer;
  const auto [untraced, traced] =
      RunTracedPair(*spec, inputs, &tracer, args.scratch);
  ReportErrors(untraced);
  ReportErrors(traced);
  PrintCounts("untraced", untraced.counts);
  PrintCounts("traced", traced.counts);
  bool ok = untraced.failed == 0 && traced.failed == 0;
  if (untraced.counts.Fields() != traced.counts.Fields()) {
    std::fprintf(stderr, "perfbench: tracing changed the protocol counts\n");
    ok = false;
  }
  const std::vector<Span> spans = tracer.spans();
  ok = ok && PerLayer(traced, untraced, spans, &metrics);
  const std::string trace_path =
      args.scratch + "/" + spec->name + ".trace.json";
  if (tracer.WriteChromeTrace(trace_path))
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                trace_path.c_str());
  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  std::printf("failed_frac: %.6f (%llu of %llu operations)\n",
              PerOp(static_cast<double>(failed), attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintResult(ok, attempted, failed, metrics);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
