#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include "baseline/plaintext_search.h"
#include "core/persistence.h"
#include "core/store_registry.h"
#include "net/socket_endpoint.h"
#include "net/socket_server.h"
#include "shard/sharded_collection.h"
#include "xml/xml_generator.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace perfbench {

using polysse::ClientSecretFile;
using polysse::DeterministicPrf;
using polysse::FpCollection;
using polysse::FpCyclotomicRing;
using polysse::FpShardedCollection;
using polysse::LookupResult;
using polysse::QueryStats;
using polysse::Result;
using polysse::ServerEndpoint;
using polysse::ServerHandler;
using polysse::ShareScheme;
using polysse::Status;
using polysse::XmlNode;

using Registry = polysse::ServerStoreRegistry<FpCyclotomicRing>;

namespace {

// ------------------------------------------------------------ the workloads

// Corpus shape shared by every workload: tags "tag0".."tag47" (the default
// F_p ring holds 64), mildly skewed as real vocabularies are.
constexpr size_t kAlphabet = 48;
constexpr double kZipf = 0.5;
constexpr int kMaxFanout = 4;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    // Client verification dominates: PRF share derivation, ResolveCandidate
    // and the session maps, with little server work and no sockets.
    WorkloadSpec lookup;
    lookup.name = "lookup-verified";
    lookup.corpus_docs = 100;
    lookup.doc_nodes = 200;
    lookup.tags_per_op = 1;
    lookup.modes = {VerifyMode::kVerified};
    lookup.ops_per_second = 22;
    lookup.passes = 4;
    w.push_back(lookup);

    // Server HandleEval over many points, frames and codec on real TCP,
    // the pipelined fetch scheduler and the Lagrange combine.
    WorkloadSpec batch;
    batch.name = "batch-tcp";
    batch.tcp = true;
    batch.scheme = ShareScheme::kShamir;
    batch.servers = 3;
    batch.threshold = 2;
    batch.corpus_docs = 100;
    batch.doc_nodes = 40;
    batch.tags_per_op = 16;
    batch.modes = {VerifyMode::kVerified, VerifyMode::kTrustedConstOnly,
                   VerifyMode::kOptimistic};
    batch.ops_per_second = 23;
    batch.passes = 3;
    w.push_back(batch);

    // The write path (outsourcing, share split, AddDoc shipping, registry
    // ingest) beside reads that skip reconstruction, on the sharded facade.
    WorkloadSpec churn;
    churn.name = "churn-sharded";
    churn.sharded = true;
    churn.shards = 4;
    churn.corpus_docs = 48;
    churn.doc_nodes = 300;
    churn.tags_per_op = 1;
    churn.modes = {VerifyMode::kOptimistic};
    churn.write_frac = 0.4;
    churn.ops_per_second = 80;
    churn.passes = 4;
    w.push_back(churn);
    return w;
  }();
  return kWorkloads;
}

// ------------------------------------------------------------------ inputs

/// splitmix64: a small, portable, seedable stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t Derive(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL) ^
          (index * 0x8cb92ba72f3d8dd7ULL));
  return rng.Next();
}

void Fnv(uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001b3ULL;
  }
}

std::string GenerateDoc(size_t nodes, uint64_t seed) {
  polysse::XmlGeneratorOptions options;
  options.num_nodes = nodes;
  options.max_fanout = kMaxFanout;
  options.tag_alphabet = kAlphabet;
  options.zipf_s = kZipf;
  options.seed = seed;
  polysse::XmlWriteOptions write;
  write.indent = 0;
  return polysse::WriteXml(polysse::GenerateXmlTree(options), write);
}

std::vector<std::string> SortedPaths(const std::vector<polysse::MatchedNode>& v) {
  std::vector<std::string> out;
  out.reserve(v.size());
  for (const auto& m : v) out.push_back(m.path);
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------- deployments

/// Per-query-operation answer: per query, per document, plus the cost.
struct QueryOutcome {
  std::vector<std::map<DocId, LookupResult>> per_query;
  QueryStats stats;
  std::vector<QueryStats> per_shard;  ///< one entry per walked server group
};

/// A deployment the benchmark owns end to end: server registries (behind
/// tracing decorators when traced), their transports, and the client
/// facade connected to them through Collection/ShardedCollection::Connect.
class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual Status Add(DocId id, const XmlNode& doc) = 0;
  virtual Status Remove(DocId id) = 0;
  virtual Result<QueryOutcome> Query(const std::vector<TagQuery>& queries) = 0;

  uint64_t StoreBytes() const {
    uint64_t sum = 0;
    for (const auto& r : registries_) sum += r->PersistedBytes();
    return sum;
  }

  /// Builds `count` servers over `ring` and one client endpoint each.
  Status StartServers(const WorkloadSpec& spec, const FpCyclotomicRing& ring,
                      int count, Tracer* tracer) {
    for (int i = 0; i < count; ++i) {
      registries_.push_back(std::make_unique<Registry>(ring));
      ServerHandler* handler = registries_.back().get();
      if (tracer != nullptr) {
        handlers_.push_back(std::make_unique<TracingHandler>(handler, tracer));
        handler = handlers_.back().get();
      }
      if (spec.tcp) {
        polysse::SocketServer::Options options;
        options.worker_threads = 1;
        ASSIGN_OR_RETURN(auto server,
                         polysse::SocketServer::Listen(handler, 0, options));
        ASSIGN_OR_RETURN(auto endpoint, polysse::SocketEndpoint::Connect(
                                            "127.0.0.1", server->port()));
        servers_.push_back(std::move(server));
        transports_.push_back(std::move(endpoint));
      } else {
        transports_.push_back(
            std::make_unique<polysse::LoopbackEndpoint>(handler));
      }
      ServerEndpoint* endpoint = transports_.back().get();
      if (tracer != nullptr) {
        tracing_.push_back(std::make_unique<TracingEndpoint>(endpoint, tracer));
        endpoint = tracing_.back().get();
      }
      endpoints_.push_back(endpoint);
    }
    return Status::Ok();
  }

 protected:
  std::vector<ServerEndpoint*> endpoints_;

 private:
  // Destroyed bottom-up: client decorators and transports before servers.
  std::vector<std::unique_ptr<Registry>> registries_;
  std::vector<std::unique_ptr<TracingHandler>> handlers_;
  std::vector<std::unique_ptr<polysse::SocketServer>> servers_;
  std::vector<std::unique_ptr<ServerEndpoint>> transports_;
  std::vector<std::unique_ptr<TracingEndpoint>> tracing_;
};

class CollectionDeployment final : public Deployment {
 public:
  Status Connect(const ClientSecretFile& key) {
    ASSIGN_OR_RETURN(col_, FpCollection::Connect(key, endpoints_));
    return Status::Ok();
  }
  Status Add(DocId id, const XmlNode& doc) override {
    return col_->Add(id, doc);
  }
  Status Remove(DocId id) override { return col_->Remove(id); }
  Result<QueryOutcome> Query(const std::vector<TagQuery>& queries) override {
    QueryOutcome out;
    if (queries.size() == 1) {
      ASSIGN_OR_RETURN(auto r, col_->Search(queries[0].tag, queries[0].mode));
      out.per_query.push_back(std::move(r.per_doc));
    } else {
      ASSIGN_OR_RETURN(auto rs, col_->SearchMany(queries));
      for (auto& r : rs) out.per_query.push_back(std::move(r.per_doc));
    }
    out.stats = col_->last_stats();
    out.per_shard = {out.stats};
    return out;
  }

 private:
  std::unique_ptr<FpCollection> col_;
};

class ShardedDeployment final : public Deployment {
 public:
  Status Connect(const ClientSecretFile& key) {
    ASSIGN_OR_RETURN(col_, FpShardedCollection::Connect(key, endpoints_));
    return Status::Ok();
  }
  Status Add(DocId id, const XmlNode& doc) override {
    return col_->Add(id, doc);
  }
  Status Remove(DocId id) override { return col_->Remove(id); }
  Result<QueryOutcome> Query(const std::vector<TagQuery>& queries) override {
    std::vector<polysse::ShardedResult> rs;
    if (queries.size() == 1) {
      ASSIGN_OR_RETURN(auto r, col_->Search(queries[0].tag, queries[0].mode));
      rs.push_back(std::move(r));
    } else {
      ASSIGN_OR_RETURN(rs, col_->SearchMany(queries));
    }
    QueryOutcome out;
    out.stats = rs[0].stats;
    for (const auto& s : rs[0].per_shard) out.per_shard.push_back(s.stats);
    for (auto& r : rs) out.per_query.push_back(std::move(r.per_doc));
    return out;
  }

 private:
  std::unique_ptr<FpShardedCollection> col_;
};

/// A fresh client key for the workload's shape. The facades mint keys only
/// through Create + SaveKey, so the key takes a short trip through a file.
template <typename Facade, typename Shape>
Result<std::pair<ClientSecretFile, FpCyclotomicRing>> MintKey(
    const DeterministicPrf& prf, const Shape& shape, const std::string& path) {
  ASSIGN_OR_RETURN(auto facade, Facade::Create(prf, shape));
  RETURN_IF_ERROR(facade->SaveKey(path));
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, polysse::ReadFileBytes(path));
  std::remove(path.c_str());
  polysse::ByteReader reader(bytes);
  ASSIGN_OR_RETURN(ClientSecretFile key,
                   ClientSecretFile::Deserialize(&reader));
  return std::make_pair(std::move(key), facade->ring());
}

Result<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                           Tracer* tracer,
                                           const std::string& scratch_dir) {
  const DeterministicPrf prf =
      DeterministicPrf::FromString(std::string("perfbench/") + spec.name);
  const std::string key_path = scratch_dir + "/" + spec.name + ".key";
  if (spec.sharded) {
    polysse::ShardDeploy shape;
    shape.scheme = spec.scheme;
    shape.num_servers = spec.servers;
    shape.threshold = spec.threshold;
    shape.num_shards = spec.shards;
    ASSIGN_OR_RETURN(auto minted,
                     MintKey<FpShardedCollection>(prf, shape, key_path));
    auto d = std::make_unique<ShardedDeployment>();
    RETURN_IF_ERROR(
        d->StartServers(spec, minted.second, spec.shards * spec.servers, tracer));
    RETURN_IF_ERROR(d->Connect(minted.first));
    return std::unique_ptr<Deployment>(std::move(d));
  }
  polysse::DeployShape shape;
  shape.scheme = spec.scheme;
  shape.num_servers = spec.servers;
  shape.threshold = spec.threshold;
  ASSIGN_OR_RETURN(auto minted, MintKey<FpCollection>(prf, shape, key_path));
  auto d = std::make_unique<CollectionDeployment>();
  RETURN_IF_ERROR(d->StartServers(spec, minted.second, spec.servers, tracer));
  RETURN_IF_ERROR(d->Connect(minted.first));
  return std::unique_ptr<Deployment>(std::move(d));
}

// ------------------------------------------------------------------ oracle

/// The live documents as plaintext, with PlaintextLookup answers cached.
class Oracle {
 public:
  void Add(DocId id, const XmlNode* doc) { docs_[id] = {doc, {}}; }
  void Remove(DocId id) { docs_.erase(id); }

  /// Empty when `got` answers `query` over the live documents; otherwise a
  /// description of the first mismatch. Verified and trusted answers must
  /// equal the oracle; optimistic ones satisfy
  /// matches ⊆ oracle ⊆ matches ∪ possible.
  std::string Check(const TagQuery& query,
                    const std::map<DocId, LookupResult>& got) {
    for (const auto& [id, result] : got)
      if (docs_.count(id) == 0)
        return "answer names document " + std::to_string(id) +
               " which is not live";
    static const LookupResult kNone;
    for (auto& [id, doc] : docs_) {
      const std::vector<std::string>& expected = Expected(&doc, query.tag);
      auto it = got.find(id);
      const LookupResult& r = it == got.end() ? kNone : it->second;
      const std::vector<std::string> matches = SortedPaths(r.matches);
      const std::vector<std::string> possible = SortedPaths(r.possible);
      bool ok = true;
      if (query.mode == VerifyMode::kOptimistic) {
        std::vector<std::string> both;
        std::merge(matches.begin(), matches.end(), possible.begin(),
                   possible.end(), std::back_inserter(both));
        ok = std::includes(expected.begin(), expected.end(), matches.begin(),
                           matches.end()) &&
             std::includes(both.begin(), both.end(), expected.begin(),
                           expected.end());
      } else {
        ok = matches == expected && possible.empty();
      }
      if (!ok)
        return "//" + query.tag + " on document " + std::to_string(id) +
               ": " + std::to_string(matches.size()) + " matches and " +
               std::to_string(possible.size()) + " possible against " +
               std::to_string(expected.size()) + " in the plaintext";
    }
    return "";
  }

 private:
  struct Doc {
    const XmlNode* xml = nullptr;
    std::map<std::string, std::vector<std::string>> answers;
  };

  static const std::vector<std::string>& Expected(Doc* doc,
                                                  const std::string& tag) {
    auto it = doc->answers.find(tag);
    if (it == doc->answers.end()) {
      std::vector<std::string> paths =
          polysse::PlaintextLookup(*doc->xml, tag).match_paths;
      std::sort(paths.begin(), paths.end());
      it = doc->answers.emplace(tag, std::move(paths)).first;
    }
    return it->second;
  }

  std::map<DocId, Doc> docs_;
};

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

void Accumulate(const QueryOutcome& r, size_t tags, Counts* c) {
  const QueryStats& s = r.stats;
  ++c->query_ops;
  c->tag_queries += tags;
  c->bytes_up += s.transport.bytes_up;
  c->bytes_down += s.transport.bytes_down;
  c->rounds += s.rounds + s.fetch_rounds;
  c->share_derivations += s.client_share_derivations;
  c->client_evals += s.client_evals;
  c->server_evals += s.server_evals;
  c->reconstructions += s.reconstructions;
  c->zero_candidates += s.zero_candidates;
  c->fetch_rounds += s.fetch_rounds;
  c->polys_fetched += s.polys_fetched_full;
  c->consts_fetched += s.consts_fetched;
  c->trusted_fallbacks += s.trusted_fallbacks;
  c->server_failovers += s.server_failovers;
  c->nodes_visited += s.nodes_visited;
  c->server_nodes += s.total_server_nodes;
  c->shards_walked += r.per_shard.size();
  uint64_t max_evals = 0;
  uint64_t sum_evals = 0;
  for (const QueryStats& shard : r.per_shard) {
    c->shard_rounds_sum += shard.rounds + shard.fetch_rounds;
    max_evals = std::max<uint64_t>(max_evals, shard.server_evals);
    sum_evals += shard.server_evals;
  }
  if (sum_evals > 0)
    c->evals_skew_sum += static_cast<double>(max_evals) *
                         static_cast<double>(r.per_shard.size()) /
                         static_cast<double>(sum_evals);
  else
    c->evals_skew_sum += 1.0;
}

}  // namespace

// ---------------------------------------------------------------- interface

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads())
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : Workloads()) out.push_back(w.name);
  return out;
}

int BusyThreads(const WorkloadSpec& spec) {
  // Collection::Connect and ShardedCollection::Connect get no executor, so
  // fan-out and shard scatter run on the client thread; each SocketServer
  // runs one worker. Event-loop and socket-reader threads only wait.
  const int server_workers = spec.tcp ? spec.shards * spec.servers : 0;
  return 1 + server_workers;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  Inputs in;
  // Document sizes are evenly spaced over [doc_nodes/2, 3*doc_nodes/2] in a
  // seeded order: every seed outsources the same total, while Add latencies
  // spread over a range instead of piling up at one size.
  std::vector<size_t> sizes;
  for (size_t i = 0; i < spec.corpus_docs; ++i)
    sizes.push_back(spec.doc_nodes / 2 +
                    spec.doc_nodes * i / std::max<size_t>(spec.corpus_docs - 1, 1));
  Rng shuffle(Derive(seed, 4, 0));
  for (size_t i = sizes.size(); i > 1; --i)
    std::swap(sizes[i - 1], sizes[shuffle.Below(i)]);
  for (size_t i = 0; i < spec.corpus_docs; ++i)
    in.corpus_xml.push_back(GenerateDoc(sizes[i], Derive(seed, 1, i)));

  Rng rng(Derive(seed, 2, 0));
  const size_t ops = (spec.ops_per_second * static_cast<size_t>(seconds) +
                      spec.passes - 1) /
                     spec.passes;
  // Writes take a fixed share of each block of kBlock operations, at
  // seeded positions, so every seed runs the same numbers of each kind.
  constexpr size_t kBlock = 5;
  const size_t writes_per_block = static_cast<size_t>(
      spec.write_frac * static_cast<double>(kBlock) + 0.5);
  std::vector<char> block;
  // Queries walk seeded shuffles of every (tag, mode) pair, so every seed
  // asks each pair equally often, give or take one.
  std::vector<TagQuery> pairs;
  for (size_t t = 0; t < kAlphabet; ++t)
    for (VerifyMode mode : spec.modes)
      pairs.push_back({"tag" + std::to_string(t), mode});
  size_t next_pair = pairs.size();
  size_t queries = 0;
  std::vector<DocId> live;
  for (size_t i = 0; i < spec.corpus_docs; ++i) live.push_back(i + 1);
  DocId next_id = spec.corpus_docs + 1;
  // A short --seconds still yields enough queries and Adds for a p90.
  auto short_of_samples = [&] {
    return queries < kMinSamples ||
           (spec.write_frac > 0 &&
            spec.corpus_docs + in.fresh_xml.size() < kMinSamples);
  };
  for (size_t i = 0; i < ops || short_of_samples(); ++i) {
    if (i % kBlock == 0) {
      block.assign(kBlock, 0);
      std::fill_n(block.begin(), writes_per_block, 1);
      for (size_t j = kBlock; j > 1; --j)
        std::swap(block[j - 1], block[rng.Below(j)]);
    }
    Op op;
    if (block[i % kBlock]) {
      // Writes alternate Add and Remove, so every query sees the corpus
      // size or one document more.
      if (live.size() == spec.corpus_docs) {
        op.kind = Op::kAdd;
        op.doc = next_id++;
        op.fresh = in.fresh_xml.size();
        in.fresh_xml.push_back(GenerateDoc(sizes[op.fresh % sizes.size()],
                                           Derive(seed, 3, op.fresh)));
        live.push_back(op.doc);
      } else {
        op.kind = Op::kRemove;
        const size_t at = rng.Below(live.size());
        op.doc = live[at];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
    } else {
      op.kind = Op::kQuery;
      ++queries;
      for (size_t t = 0; t < spec.tags_per_op; ++t) {
        if (next_pair == pairs.size()) {
          for (size_t j = pairs.size(); j > 1; --j)
            std::swap(pairs[j - 1], pairs[rng.Below(j)]);
          next_pair = 0;
        }
        op.queries.push_back(pairs[next_pair++]);
      }
    }
    in.script.push_back(std::move(op));
  }

  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& x : in.corpus_xml) Fnv(&h, x);
  for (const auto& x : in.fresh_xml) Fnv(&h, x);
  for (const Op& op : in.script) {
    Fnv(&h, std::to_string(op.kind) + ":" + std::to_string(op.doc));
    for (const TagQuery& q : op.queries)
      Fnv(&h, q.tag + "/" + std::to_string(static_cast<int>(q.mode)));
  }
  in.digest = h;
  return in;
}

std::vector<std::pair<std::string, double>> Counts::Fields() const {
  return {
      {"query_ops", static_cast<double>(query_ops)},
      {"tag_queries", static_cast<double>(tag_queries)},
      {"bytes_up", static_cast<double>(bytes_up)},
      {"bytes_down", static_cast<double>(bytes_down)},
      {"rounds", static_cast<double>(rounds)},
      {"share_derivations", static_cast<double>(share_derivations)},
      {"client_evals", static_cast<double>(client_evals)},
      {"server_evals", static_cast<double>(server_evals)},
      {"reconstructions", static_cast<double>(reconstructions)},
      {"zero_candidates", static_cast<double>(zero_candidates)},
      {"fetch_rounds", static_cast<double>(fetch_rounds)},
      {"polys_fetched", static_cast<double>(polys_fetched)},
      {"consts_fetched", static_cast<double>(consts_fetched)},
      {"trusted_fallbacks", static_cast<double>(trusted_fallbacks)},
      {"server_failovers", static_cast<double>(server_failovers)},
      {"nodes_visited", static_cast<double>(nodes_visited)},
      {"server_nodes", static_cast<double>(server_nodes)},
      {"shards_walked", static_cast<double>(shards_walked)},
      {"shard_rounds_sum", static_cast<double>(shard_rounds_sum)},
      {"evals_skew_sum", evals_skew_sum},
      {"store_bytes", static_cast<double>(store_bytes)},
      {"plaintext_bytes", static_cast<double>(plaintext_bytes)},
  };
}

namespace {

/// One deployment with the plaintext of its live documents.
struct Live {
  std::vector<XmlNode> corpus;
  std::vector<XmlNode> fresh;
  std::unique_ptr<Deployment> deployment;
  Oracle oracle;
  std::map<DocId, uint64_t> xml_bytes;  ///< live documents' plaintext size
};

/// Times and checks operations, collecting them into one PassResult.
class PassRunner {
 public:
  PassRunner(const WorkloadSpec& spec, const Inputs& inputs, Tracer* tracer,
             const std::string& scratch_dir)
      : spec_(spec), inputs_(inputs), tracer_(tracer), scratch_dir_(scratch_dir) {}

  /// One timed set-up: parse every input document, deploy, outsource the
  /// corpus. A failed deployment leaves `deployment` null.
  std::unique_ptr<Live> SetUp() {
    auto live = std::make_unique<Live>();
    const int64_t start = NowNs();
    for (const auto& xml : inputs_.corpus_xml) Parse(xml, &live->corpus);
    for (const auto& xml : inputs_.fresh_xml) Parse(xml, &live->fresh);
    auto deployed = Deploy(spec_, tracer_, scratch_dir_);
    if (!deployed.ok()) {
      Fail("deploy: " + deployed.status().ToString());
      return live;
    }
    live->deployment = std::move(*deployed);
    for (size_t i = 0; i < live->corpus.size(); ++i)
      Add(live.get(), i + 1, &live->corpus[i], inputs_.corpus_xml[i].size());
    out_.setup_s.push_back(MsSince(start) / 1e3);
    return live;
  }

  /// One scripted operation against `live`, timed and oracle-checked.
  void Run(Live* live, const Op& op) {
    const size_t before = out_.op_wall_ms.size();
    if (op.kind == Op::kAdd) {
      Add(live, op.doc, &live->fresh[op.fresh],
          inputs_.fresh_xml[op.fresh].size());
    } else if (op.kind == Op::kRemove) {
      const int32_t id = BeginOp();
      const int64_t t0 = NowNs();
      Status st = [&] {
        ScopedSpan span(tracer_, "op.remove");
        return live->deployment->Remove(op.doc);
      }();
      out_.op_wall_ms[id] = MsSince(t0);
      if (st.ok()) {
        live->oracle.Remove(op.doc);
        live->xml_bytes.erase(op.doc);
      } else {
        Fail("Remove: " + st.ToString());
      }
    } else {
      Query(live, op.queries);
    }
    if (out_.op_wall_ms.size() > before) {
      out_.script_ms.push_back(out_.op_wall_ms.back());
      out_.script_wall_ms += out_.op_wall_ms.back();
    }
  }

  /// The samples so far; `live`, when given, supplies the storage figures.
  PassResult Finish(const Live* live) {
    // Storage of the documents live at the end against their plaintext.
    if (live != nullptr && live->deployment != nullptr)
      out_.counts.store_bytes = live->deployment->StoreBytes();
    if (live != nullptr)
      for (const auto& [id, bytes] : live->xml_bytes)
        out_.counts.plaintext_bytes += bytes;
    return std::move(out_);
  }

 private:
  int32_t BeginOp() {
    if (tracer_ != nullptr) tracer_->SetOp(next_op_);
    out_.op_wall_ms.push_back(0);
    ++out_.attempted;
    return next_op_++;
  }

  void Fail(std::string what) {
    ++out_.failed;
    if (out_.errors.size() < 5) out_.errors.push_back(std::move(what));
  }

  void Parse(const std::string& xml, std::vector<XmlNode>* into) {
    const int32_t id = BeginOp();
    const int64_t t0 = NowNs();
    Result<XmlNode> doc = [&] {
      ScopedSpan span(tracer_, "xml.parse");
      return polysse::ParseXml(xml);
    }();
    out_.op_wall_ms[id] = MsSince(t0);
    if (!doc.ok()) {
      Fail("ParseXml: " + doc.status().ToString());
      into->emplace_back();
      return;
    }
    into->push_back(std::move(*doc));
  }

  void Add(Live* live, DocId doc_id, const XmlNode* doc, uint64_t xml_bytes) {
    const int32_t id = BeginOp();
    const int64_t t0 = NowNs();
    Status st = [&] {
      ScopedSpan span(tracer_, "op.add");
      return live->deployment->Add(doc_id, *doc);
    }();
    out_.op_wall_ms[id] = MsSince(t0);
    out_.add_ms.push_back(out_.op_wall_ms[id]);
    if (!st.ok()) {
      Fail("Add: " + st.ToString());
      return;
    }
    live->oracle.Add(doc_id, doc);
    live->xml_bytes[doc_id] = xml_bytes;
  }

  void Query(Live* live, const std::vector<TagQuery>& queries) {
    const int32_t id = BeginOp();
    const int64_t t0 = NowNs();
    Result<QueryOutcome> r = [&] {
      ScopedSpan span(tracer_,
                      queries.size() == 1 ? "op.search" : "op.search_many");
      return live->deployment->Query(queries);
    }();
    out_.op_wall_ms[id] = MsSince(t0);
    out_.query_ms.push_back(out_.op_wall_ms[id]);
    if (!r.ok()) {
      Fail("Search: " + r.status().ToString());
      return;
    }
    if (r->per_query.size() != queries.size()) {
      Fail("Search: answer count differs from query count");
      return;
    }
    std::string wrong;
    for (size_t q = 0; q < queries.size() && wrong.empty(); ++q)
      wrong = live->oracle.Check(queries[q], r->per_query[q]);
    if (!wrong.empty()) Fail("wrong answer: " + wrong);
    Accumulate(*r, queries.size(), &out_.counts);
  }

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  Tracer* tracer_;
  const std::string scratch_dir_;
  PassResult out_;
  int32_t next_op_ = 0;
};

/// Moves `from`'s set-up samples, operation tallies and errors into `into`.
void Tally(PassResult from, PassResult* into) {
  into->setup_s.insert(into->setup_s.end(), from.setup_s.begin(),
                       from.setup_s.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (std::string& e : from.errors)
    if (into->errors.size() < 5) into->errors.push_back(std::move(e));
}

/// Folds `from` into `into`, which holds the same script: each per-operation
/// sample keeps its faster reading. Differing counts fail the run.
void KeepFastest(PassResult from, PassResult* into) {
  auto fastest = [](const std::vector<double>& a, std::vector<double>* b) {
    if (a.size() != b->size()) return false;
    for (size_t i = 0; i < a.size(); ++i) (*b)[i] = std::min((*b)[i], a[i]);
    return true;
  };
  const bool same = fastest(from.add_ms, &into->add_ms) &&
                    fastest(from.query_ms, &into->query_ms) &&
                    fastest(from.script_ms, &into->script_ms);
  if (!same || from.counts.Fields() != into->counts.Fields())
    into->errors.push_back(
        "self-check: a pass ran other operations or counts than the first");
  into->script_wall_ms = 0;
  for (double ms : into->script_ms) into->script_wall_ms += ms;
  Tally(std::move(from), into);
}

}  // namespace

PassResult RunPass(const WorkloadSpec& spec, const Inputs& inputs,
                   const std::string& scratch_dir) {
  // Each pass runs its script in slices; before each slice after the first,
  // a throwaway set-up repeats the timed one, so the set-up samples are
  // spread over the whole run instead of the start of each pass.
  PassRunner spare(spec, inputs, nullptr, scratch_dir);
  const size_t slices = std::max<size_t>(
      1, (kSetups + spec.passes - 1) / spec.passes);
  const size_t n = inputs.script.size();
  PassResult out;
  for (size_t p = 0; p < spec.passes; ++p) {
    PassRunner runner(spec, inputs, nullptr, scratch_dir);
    std::unique_ptr<Live> live = runner.SetUp();
    for (size_t k = 0; k < slices && live->deployment != nullptr; ++k) {
      if (k > 0) spare.SetUp();
      for (size_t i = k * n / slices; i < (k + 1) * n / slices; ++i)
        runner.Run(live.get(), inputs.script[i]);
    }
    if (p == 0)
      out = runner.Finish(live.get());
    else
      KeepFastest(runner.Finish(live.get()), &out);
  }
  PassResult spares = spare.Finish(nullptr);
  // Every set-up adds the corpus in the same order, so its i-th Add repeats
  // the passes' i-th set-up Add.
  const size_t docs = inputs.corpus_xml.size();
  for (size_t i = 0; i < spares.add_ms.size() && i % docs < out.add_ms.size();
       ++i)
    out.add_ms[i % docs] = std::min(out.add_ms[i % docs], spares.add_ms[i]);
  Tally(std::move(spares), &out);
  return out;
}

std::pair<PassResult, PassResult> RunTracedPair(const WorkloadSpec& spec,
                                                const Inputs& inputs,
                                                Tracer* tracer,
                                                const std::string& scratch_dir) {
  PassRunner plain(spec, inputs, nullptr, scratch_dir);
  PassRunner traced(spec, inputs, tracer, scratch_dir);
  std::unique_ptr<Live> plain_live = plain.SetUp();
  std::unique_ptr<Live> traced_live = traced.SetUp();
  if (plain_live->deployment != nullptr && traced_live->deployment != nullptr) {
    // Operation by operation, so host drift slows both sides alike.
    for (const Op& op : inputs.script) {
      plain.Run(plain_live.get(), op);
      traced.Run(traced_live.get(), op);
    }
  }
  return {plain.Finish(plain_live.get()), traced.Finish(traced_live.get())};
}

}  // namespace perfbench
