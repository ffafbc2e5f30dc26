// The benchmark's workloads: seeded inputs, the deployments they run on,
// and the closed-loop script runner that times and oracle-checks every
// operation. Everything reaches the library through its public facades.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "trace.h"
#include "xml/xml_node.h"

namespace perfbench {

using polysse::DocId;
using polysse::TagQuery;
using polysse::VerifyMode;

/// One workload: deployment shape, corpus, operation mix, script length.
struct WorkloadSpec {
  const char* name = "";
  bool sharded = false;  ///< ShardedCollection instead of Collection
  bool tcp = false;      ///< SocketServer/SocketEndpoint instead of loopback
  polysse::ShareScheme scheme = polysse::ShareScheme::kTwoParty;
  int servers = 1;    ///< per group
  int threshold = 0;  ///< Shamir
  int shards = 1;
  size_t corpus_docs = 0;
  size_t doc_nodes = 0;  ///< mean document size; sizes span 0.5x to 1.5x
  size_t tags_per_op = 1;  ///< 1: Search; more: one SearchMany
  std::vector<VerifyMode> modes;  ///< drawn uniformly per tag
  /// Share of operations that write: an Add of a fresh document when the
  /// live set is at the corpus size, otherwise a Remove of a live one.
  double write_frac = 0;
  /// Operations timed per second of --seconds, summed over the passes:
  /// the script holds ops_per_second * --seconds / passes operations (and
  /// at least kMinSamples queries and Adds), fixed for a given argument list and
  /// never cut short by a clock.
  size_t ops_per_second = 0;
  /// The untraced run executes the script this many times, each pass on a
  /// fresh deployment in the same state, and times each operation by its
  /// fastest pass. Host slowdowns last seconds, so passes spread over the
  /// run rarely all meet one.
  size_t passes = 1;
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One scripted operation.
struct Op {
  enum Kind { kQuery, kAdd, kRemove } kind = kQuery;
  std::vector<TagQuery> queries;  ///< kQuery
  DocId doc = 0;                  ///< kAdd / kRemove
  size_t fresh = 0;               ///< kAdd: index into Inputs::fresh_xml
};

/// Everything a run consumes, generated from the seed alone.
struct Inputs {
  std::vector<std::string> corpus_xml;  ///< doc i has id i + 1
  std::vector<std::string> fresh_xml;   ///< documents the script adds
  std::vector<Op> script;
  uint64_t digest = 0;  ///< FNV-1a over all of the above
};

/// Every script holds at least this many query operations, and the corpus
/// plus the script's Adds this many Adds, so that each p90 has ten samples
/// beyond it. Read-only workloads take the Adds from a large enough corpus.
constexpr size_t kMinSamples = 110;
/// Set-ups per untraced run, at least; setup_s is their median.
constexpr size_t kSetups = 12;

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, int seconds);

/// Deterministic protocol counts, summed over a script's query operations
/// (and, for the store figures, read at the end of the script).
struct Counts {
  uint64_t query_ops = 0;
  uint64_t tag_queries = 0;
  uint64_t bytes_up = 0;
  uint64_t bytes_down = 0;
  uint64_t rounds = 0;        ///< BFS + fetch round trips (roll-up)
  uint64_t share_derivations = 0;
  uint64_t client_evals = 0;
  uint64_t server_evals = 0;
  uint64_t reconstructions = 0;
  uint64_t zero_candidates = 0;
  uint64_t fetch_rounds = 0;
  uint64_t polys_fetched = 0;
  uint64_t consts_fetched = 0;
  uint64_t trusted_fallbacks = 0;
  uint64_t server_failovers = 0;
  uint64_t nodes_visited = 0;
  uint64_t server_nodes = 0;
  uint64_t shards_walked = 0;
  uint64_t shard_rounds_sum = 0;
  double evals_skew_sum = 0;  ///< per query op: max / mean shard evals
  uint64_t store_bytes = 0;
  uint64_t plaintext_bytes = 0;

  /// name=value pairs, in a fixed order, for printing and comparison.
  std::vector<std::pair<std::string, double>> Fields() const;
};

/// One set-up plus script, timed, traced when `tracer` is non-null. The
/// untraced run folds its passes into one, each operation at its fastest.
struct PassResult {
  std::vector<double> setup_s;     ///< every timed set-up
  std::vector<double> add_ms;      ///< every facade Add (set-up and script)
  std::vector<double> query_ms;    ///< every query operation
  std::vector<double> script_ms;   ///< every script operation
  double script_wall_ms = 0;       ///< sum of script_ms
  std::vector<double> op_wall_ms;  ///< stopwatch wall per operation id
  Counts counts;
  uint64_t attempted = 0;  ///< every timed operation, ParseXml included
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failures, for the log
};

/// Busy threads the workload keeps: the client plus every server worker.
int BusyThreads(const WorkloadSpec& spec);

/// The untraced run: spec.passes passes of set-up plus script, with timed
/// throwaway set-ups between slices of each script (kSetups set-ups in
/// all). Add, query and script samples are per operation, at the fastest
/// pass (a set-up Add at the fastest set-up); the counts are the first
/// pass's and must repeat in every pass.
/// `scratch_dir` receives the short-lived client key file.
PassResult RunPass(const WorkloadSpec& spec, const Inputs& inputs,
                   const std::string& scratch_dir);

/// The traced run: an untraced and a traced deployment, each set up once,
/// execute the script op by op in alternation. Returns {untraced, traced}.
std::pair<PassResult, PassResult> RunTracedPair(const WorkloadSpec& spec,
                                                const Inputs& inputs,
                                                Tracer* tracer,
                                                const std::string& scratch_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
