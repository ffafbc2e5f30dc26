// The library's collection front door: one client key and one deployment
// shape covering MANY outsourced documents, each addressed by a stable
// DocId — the paper's actual setting (a server hosting a *database* of
// encrypted XML documents the client searches, §2).
//
//   auto col = FpCollection::Create(seed).value();
//   col->Add(1, patient_file_1);
//   col->Add(2, patient_file_2);          // doc 1 is NOT re-outsourced
//   auto r = col->Search("diagnosis");    // {doc_id -> matches}, one shared
//                                         // BFS frontier across all docs:
//                                         // per round ONE EvalRequest per
//                                         // server, not one per document
//   col->Remove(1);                       // live retirement; doc 2's
//                                         // answers are bit-identical
//
// Server side, every server holds a ServerStoreRegistry: one share tree per
// document, each owning a disjoint node-id range, managed incrementally
// over the wire (AddDoc / RemoveDoc messages). All three share schemes of
// the engine (2-party, additive k-server, Shamir t-of-n) apply unchanged —
// the registry serves the same EvalRequest/FetchRequest protocol.
//
// Collection is the unsharded facade over core/deployment.h: the
// DeploymentCore holds the client state, the Add/Remove write path and the
// document table it shares with ShardedCollection (shard/), while this
// class keeps only what a single server group adds — its persistent
// QuerySession, the hot-query cache, the Bloom pre-filter, SearchXPath /
// SearchDoc, the legacy v1-v3 key and store branches, and its file layout.
//
// polysse::Engine (core/engine.h) remains the one-document special case,
// implemented as a thin wrapper over a one-entry collection.
#ifndef POLYSSE_CORE_COLLECTION_H_
#define POLYSSE_CORE_COLLECTION_H_

#include <array>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/deployment.h"
#include "crypto/bloom.h"
#include "xpath/xpath.h"

namespace polysse {

/// Facade-level name for one element lookup of a batch.
using Query = TagQuery;

/// Server-side deployment shape of a collection (and, via the Engine
/// wrapper, of a single-document deployment).
struct DeployShape {
  ShareScheme scheme = ShareScheme::kTwoParty;
  /// Additive: k (all required). Shamir: n.
  int num_servers = 1;
  /// Shamir: t servers needed to answer; 0 means all of them.
  int threshold = 0;
  EndpointKind transport = EndpointKind::kLoopback;
  /// Fan-out workers: <= 1 runs per-server subrequests sequentially on
  /// the caller thread (deterministic); larger values give the collection
  /// a ThreadPool so the k per-round server calls overlap in wall time.
  int worker_threads = 0;
  /// Engine compatibility: derive the FIRST document's client shares in the
  /// pre-collection PRF namespace (prefix ""), so deployments saved by
  /// older versions keep recombining. Leave false for real collections.
  bool legacy_share_paths = false;
};

/// Cross-document query answer: per-document confirmed matches (node ids
/// and paths are document-local), plus the shared protocol cost of the one
/// collection-wide walk. Documents without matches are omitted.
struct CollectionResult {
  std::map<DocId, LookupResult> per_doc;
  QueryStats stats;
};

template <typename Ring>
class Collection {
 public:
  using Deploy = DeployShape;
  /// Ring-specific outsourcing knobs (field size / modulus polynomial).
  /// The ring is fixed at Create for the collection's whole life; an Fp
  /// collection with options.p == 0 sizes the field for a default alphabet
  /// of kDefaultTagCapacity distinct tags across all documents.
  using OutsourceOptions = typename DeploymentCore<Ring>::OutsourceOptions;

  static constexpr uint64_t kDefaultTagCapacity =
      DeploymentCore<Ring>::kDefaultTagCapacity;

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  /// An empty collection with a live (in-process) server deployment.
  /// Documents are added incrementally with Add.
  static Result<std::unique_ptr<Collection>> Create(
      const DeterministicPrf& seed, const Deploy& deploy = {},
      const OutsourceOptions& options = {}) {
    ASSIGN_OR_RETURN(Core core, Core::Create(seed, deploy, options));
    core.set_legacy_share_paths(deploy.legacy_share_paths);
    auto col = std::unique_ptr<Collection>(new Collection(std::move(core)));
    RETURN_IF_ERROR(
        col->core_.MakeOwnedGroup(&col->servers_, deploy.transport));
    col->RebuildSession();
    return col;
  }

  /// A client-side collection over EXTERNAL server endpoints (e.g. one
  /// SocketEndpoint per remote registry), rebuilt from a key file. The
  /// endpoints are borrowed and positional: endpoint i is server i of the
  /// saved deployment. Search works immediately; Add/Remove manage the
  /// remote registries over the wire (v3 keys only — v1/v2 keys lack the
  /// document table, so they connect read-only with one legacy document).
  /// Sharded (v4 shard-table) keys belong to ShardedCollection.
  static Result<std::unique_ptr<Collection>> Connect(
      const ClientSecretFile& key, std::vector<ServerEndpoint*> endpoints,
      Executor* executor = nullptr) {
    ASSIGN_OR_RETURN(int num_servers, ServerCount(key));
    ASSIGN_OR_RETURN(Ring ring, Core::RingFromKey(key));
    ASSIGN_OR_RETURN(Core core, Core::FromKey(key, std::move(ring), executor));
    if (endpoints.size() != static_cast<size_t>(num_servers))
      return Status::InvalidArgument(
          "this key names " + std::to_string(num_servers) +
          " server(s); pass exactly that many endpoints, in server order");
    auto col = std::unique_ptr<Collection>(new Collection(std::move(core)));
    col->owns_servers_ = false;
    col->next_base_ = key.next_base;
    if (key.version < 3) {
      // Legacy key: one document at base 0 of unknown size — searchable,
      // but Add would need the node-id high-water mark the old key never
      // recorded.
      col->core_.docs().Insert({0, 0, 0, static_cast<int64_t>(INT32_MAX), ""});
      col->can_add_ = false;
    }
    RETURN_IF_ERROR(
        col->core_.FinishGroup(&col->servers_, std::move(endpoints)));
    col->RebuildSession();
    return col;
  }

  /// Reopens a persisted collection: the client key file plus the per-
  /// server store file(s) Save wrote — one file at `store_path` for
  /// two-party, one per server at MultiServerStorePath(store_path, i)
  /// otherwise. v1/v2 single-document keys (and their single-tree store
  /// files) load as a one-document collection.
  static Result<std::unique_ptr<Collection>> Open(
      const std::string& store_path, const std::string& key_path,
      EndpointKind transport = EndpointKind::kLoopback) {
    ASSIGN_OR_RETURN(ClientSecretFile key, Core::ReadKey(key_path));
    ASSIGN_OR_RETURN(int num_servers, ServerCount(key));
    ServerGroup<Ring> servers;
    for (int s = 0; s < num_servers; ++s) {
      const std::string path = key.scheme == ShareScheme::kTwoParty
                                   ? store_path
                                   : MultiServerStorePath(store_path, s);
      ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
      ASSIGN_OR_RETURN(std::unique_ptr<ServerStoreRegistry<Ring>> registry,
                       LoadStoreRegistry<Ring>(bytes));
      servers.registries.push_back(std::move(registry));
    }

    // v3 keys carry the document table; v1/v2 keys imply one legacy
    // document whose size comes from the store itself.
    ASSIGN_OR_RETURN(
        Core core, Core::FromKey(key, servers.registries[0]->ring(), nullptr));
    int64_t next_base = key.next_base;
    if (key.version < 3) {
      const auto stored = servers.registries[0]->docs();
      if (stored.size() != 1 || stored[0].base != 0)
        return Status::Corruption(
            "legacy single-document key cannot open a multi-document store");
      next_base = static_cast<int64_t>(stored[0].nodes);
      core.docs().Insert({stored[0].doc_id, 0, 0, next_base, ""});
    }
    RETURN_IF_ERROR(core.CheckStores(servers));
    auto col = std::unique_ptr<Collection>(new Collection(std::move(core)));
    col->servers_ = std::move(servers);
    col->next_base_ = next_base;
    RETURN_IF_ERROR(col->core_.AttachOwned(&col->servers_, transport));
    col->RebuildSession();
    return col;
  }

  // ----------------------------------------------------------- documents

  /// Outsources `document` as `doc_id` against the LIVE deployment: the
  /// new document's share trees travel to every server's registry (over
  /// whatever transport fronts it); no existing document is re-outsourced
  /// or re-shared, and their answers stay bit-identical. The collection's
  /// shared tag map grows by the document's unseen tags — failing cleanly
  /// (collection unchanged) if the ring's tag capacity is exhausted.
  Status Add(DocId doc_id, const XmlNode& document) {
    if (!can_add_)
      return Status::FailedPrecondition(
          "this collection was connected from a pre-collection key and is "
          "read-only; re-save with a current build to enable Add");
    ASSIGN_OR_RETURN(typename Core::Prepared doc,
                     core_.Prepare(doc_id, document));
    const int64_t size = doc.size();
    if (next_base_ + size - 1 > INT32_MAX)
      return Status::FailedPrecondition("collection node-id space exhausted");
    ASSIGN_OR_RETURN(const DocRecord* added,
                     core_.Ship(doc_id, std::move(doc),
                                static_cast<int32_t>(next_base_), servers_));
    next_base_ += size;
    // Only Add sees the plaintext, so this is the one chance to build the
    // document's pre-filter; docs outsourced before the knob was turned on
    // simply have none and are always walked.
    if (prefilter_enabled_) {
      filters_.emplace(doc_id,
                       DocBloomFilter::Build(core_.seed(), added->prefix,
                                             document.DistinctTags(),
                                             prefilter_options_));
    }
    ++generation_;
    RebuildSession();
    return Status::Ok();
  }

  /// Retires `doc_id` on every server. Other documents keep their node-id
  /// ranges (ids are never reused), so their answers are bit-identical.
  /// Idempotent and retryable: a partial failure leaves the doc in the
  /// collection, and a later Remove finishes the servers that missed it.
  Status Remove(DocId doc_id) {
    RETURN_IF_ERROR(core_.docs().Require(doc_id).status());
    RETURN_IF_ERROR(core_.Retire(doc_id, servers_.group));
    filters_.erase(doc_id);
    ++generation_;
    RebuildSession();
    return Status::Ok();
  }

  // ------------------------------------------------------------- queries

  /// Cross-document element lookup //tag: ONE pruned BFS whose frontier
  /// spans every document's tree — per round a single EvalRequest per
  /// server covers all documents, instead of one walk per document.
  Result<CollectionResult> Search(std::string_view tag,
                                  VerifyMode mode = VerifyMode::kVerified) {
    std::string key;
    if (cache_capacity_ > 0) {
      key = CacheKey("tag", static_cast<int>(mode), tag);
      if (const auto* hit = CacheFind(key)) return (*hit)[0];
    }
    ASSIGN_OR_RETURN(LookupResult r, session_->Lookup(tag, mode));
    ASSIGN_OR_RETURN(CollectionResult c, Partition(r));
    if (!key.empty()) CacheStore(std::move(key), {c});
    return c;
  }

  /// Batched cross-document lookup: several //tag queries AND all
  /// documents share one walk. Entry i answers queries[i]. With the Bloom
  /// pre-filter enabled, documents whose filter rejects every queried tag
  /// never enter the shared frontier.
  Result<std::vector<CollectionResult>> SearchMany(
      std::span<const Query> queries) {
    std::string key;
    if (cache_capacity_ > 0) {
      key = "many";
      for (const Query& q : queries) {
        key += '\x1f';
        key += static_cast<char>('0' + static_cast<int>(q.mode));
        key += '\x1e';
        key += q.tag;
      }
      if (const auto* hit = CacheFind(key)) return *hit;
    }
    ASSIGN_OR_RETURN(MultiLookupResult multi, RunBatch(queries));
    std::vector<CollectionResult> out;
    out.reserve(multi.per_tag.size());
    for (const LookupResult& r : multi.per_tag) {
      ASSIGN_OR_RETURN(CollectionResult c, Partition(r));
      out.push_back(std::move(c));
    }
    if (!key.empty()) CacheStore(std::move(key), out);
    return out;
  }

  /// Cross-document XPath (§4.3): every document root is a candidate
  /// starting context of the first step.
  Result<CollectionResult> SearchXPath(
      std::string_view xpath,
      XPathStrategy strategy = XPathStrategy::kAllAtOnce,
      VerifyMode mode = VerifyMode::kVerified) {
    std::string key;
    if (cache_capacity_ > 0) {
      key = CacheKey("xpath", static_cast<int>(mode) * 4 +
                                  static_cast<int>(strategy), xpath);
      if (const auto* hit = CacheFind(key)) return (*hit)[0];
    }
    ASSIGN_OR_RETURN(XPathQuery query, XPathQuery::Parse(std::string(xpath)));
    ASSIGN_OR_RETURN(LookupResult r,
                     session_->EvaluateXPath(query, strategy, mode));
    ASSIGN_OR_RETURN(CollectionResult c, Partition(r));
    if (!key.empty()) CacheStore(std::move(key), {c});
    return c;
  }

  /// Lookup restricted to one document (its own pruned walk). Node ids and
  /// paths in the result are document-local.
  Result<LookupResult> SearchDoc(DocId doc_id, std::string_view tag,
                                 VerifyMode mode = VerifyMode::kVerified) {
    ASSIGN_OR_RETURN(const DocRecord* doc, core_.docs().Require(doc_id));
    QuerySession<Ring> session(core_.client(), servers_.group,
                               {{doc->base, doc->prefix}});
    ASSIGN_OR_RETURN(LookupResult r, session.Lookup(tag, mode));
    ASSIGN_OR_RETURN(CollectionResult c, Partition(r));
    LookupResult out = std::move(c.per_doc[doc_id]);
    out.stats = r.stats;  // also when the document has no match
    return out;
  }

  // --------------------------------------------------------- persistence

  /// Persists the deployment as {per-server store file(s), client key
  /// file}: two-party writes one container at `store_path`, multi-server
  /// deployments one per server at MultiServerStorePath(store_path, i) —
  /// server i ships file i and nothing else. Requires collection-owned
  /// servers (a connected client persists only its key; see SaveKey).
  Status Save(const std::string& store_path,
              const std::string& key_path) const {
    if (!owns_servers_)
      return Status::FailedPrecondition(
          "connected collections do not hold the server stores; use "
          "SaveKey");
    for (size_t s = 0; s < servers_.registries.size(); ++s) {
      ByteWriter bytes;
      SaveStoreRegistry(*servers_.registries[s], &bytes);
      const std::string path = core_.scheme() == ShareScheme::kTwoParty
                                   ? store_path
                                   : MultiServerStorePath(store_path, s);
      RETURN_IF_ERROR(WriteFileBytes(path, bytes.span()));
    }
    return SaveKey(key_path);
  }

  /// Persists the client secret state (seed, tag map, deployment shape,
  /// document table) — everything a networked client needs to Connect.
  Status SaveKey(const std::string& key_path) const {
    ClientSecretFile key = core_.KeyFile();
    key.next_base = next_base_;
    return Core::WriteKey(key, key_path);
  }

  /// Where Save puts server `i`'s share file of a multi-server deployment.
  static std::string MultiServerStorePath(const std::string& store_path,
                                          size_t i) {
    return store_path + ".s" + std::to_string(i);
  }

  // -------------------------------------------------------- introspection

  const Ring& ring() const { return core_.ring(); }
  const ClientContext<Ring>& client() const { return *core_.client(); }
  ShareScheme scheme() const { return core_.scheme(); }
  size_t num_servers() const { return servers_.group.endpoints.size(); }
  size_t num_docs() const { return core_.docs().size(); }
  bool contains(DocId doc_id) const {
    return core_.docs().Find(doc_id) != nullptr;
  }
  /// Ids in node-id (insertion) order.
  std::vector<DocId> doc_ids() const { return core_.docs().ids(); }
  /// The PRF namespace of one document's derived secrets ("" for the
  /// legacy single document). Unique per Add — never reused even when a
  /// doc id is removed and re-added — so derived keys never collide.
  Result<std::string> share_prefix(DocId doc_id) const {
    ASSIGN_OR_RETURN(const DocRecord* doc, core_.docs().Require(doc_id));
    return doc->prefix;
  }

  /// Total nodes across every document of the collection.
  size_t total_nodes() const { return core_.docs().total_nodes(); }

  /// Server `s`'s registry (what a network frontend serves), or null for a
  /// connected collection whose servers live elsewhere.
  ServerStoreRegistry<Ring>* registry(size_t s = 0) {
    return s < servers_.registries.size() ? servers_.registries[s].get()
                                          : nullptr;
  }
  /// Server `s`'s protocol handler — thread-safe, SocketServer-servable.
  ServerHandler* handler(size_t s = 0) { return registry(s); }
  /// One document's share store on server `s` (collection-owned servers).
  Result<const ServerStore<Ring>*> doc_store(size_t s, DocId doc_id) const {
    if (s >= servers_.registries.size())
      return Status::InvalidArgument("no such server");
    return servers_.registries[s]->store(doc_id);
  }

  /// The session, for callers needing the full §4.3 API surface. Walks
  /// started here span every document.
  QuerySession<Ring>& session() { return *session_; }
  const QueryStats& last_stats() const { return session_->last_stats(); }

  /// Wraps server `i`'s endpoint in a FaultInjectingEndpoint (latency,
  /// failures, tampering) and returns it for mid-run reconfiguration, or
  /// null when `i` is not a server index. Composable: wrapping twice
  /// stacks faults.
  FaultInjectingEndpoint* InjectFaults(size_t i, FaultConfig config) {
    FaultInjectingEndpoint* fault =
        servers_.InjectFaults(i, std::move(config));
    if (fault == nullptr) return nullptr;
    ++generation_;  // cached answers predate the faults; don't serve them
    RebuildSession();
    return fault;
  }

  /// Reconfigures the fan-out executor: <= 1 reverts to sequential inline
  /// dispatch, larger values (re)build the worker pool. Answers are
  /// bit-identical either way; only wall time changes.
  void SetWorkerThreadCount(int worker_threads) {
    core_.SetUpPool(worker_threads);
    servers_.group.executor = core_.executor();
    if (session_ != nullptr) RebuildSession();
  }

  /// The executor fan-out currently runs on (null = sequential inline).
  Executor* executor() const { return core_.executor(); }

  // ------------------------------------------------- client-side caching

  /// Enables (capacity > 0) or disables (0, the default) the hot-query
  /// cache: a repeated identical Search/SearchMany/SearchXPath is answered
  /// from the client's memory with ZERO protocol messages. Entries are
  /// generation-stamped and die on any Add/Remove, so cached answers are
  /// always what a cold session would return. Least-recently-used entries
  /// are evicted past `capacity`.
  void SetQueryCacheCapacity(size_t capacity) {
    cache_capacity_ = capacity;
    while (cache_.size() > cache_capacity_) EvictOldest();
  }
  size_t query_cache_entries() const { return cache_.size(); }

  /// Turns on the per-document Bloom pre-filter for documents added FROM
  /// NOW ON (only Add sees the plaintext tag set the filter is built
  /// from). At query time, SearchMany skips any filtered document whose
  /// filter rejects every queried tag — a Bloom filter has no false
  /// negatives, so answers stay bit-identical; false positives only cost
  /// walk work. Unfiltered documents (added before this call, or loaded
  /// via Connect/Open) are always walked.
  void EnableBloomPrefilter(DocBloomFilter::Options options = {}) {
    prefilter_enabled_ = true;
    prefilter_options_ = options;
  }
  /// Documents the pre-filter excluded from the last SearchMany frontier.
  size_t last_prefilter_skipped() const { return last_prefilter_skipped_; }

  /// Cumulative wire cost across every server endpoint since attachment —
  /// unlike last_stats(), this moves only when messages actually flow, so
  /// a cache hit shows up as an unchanged snapshot.
  TransportCounters transport_totals() const { return servers_.counters(); }

  /// Resolves the document owning global node id `id` together with its
  /// document-local id — how cross-document results map back to documents.
  Result<std::pair<DocId, int32_t>> ResolveNode(int32_t id) const {
    const DocRecord* doc = core_.docs().FindByNode(id);
    if (doc == nullptr)
      return Status::NotFound("node id " + std::to_string(id) +
                              " belongs to no document");
    return std::make_pair(doc->id, id - doc->base);
  }

 private:
  using Core = DeploymentCore<Ring>;

  explicit Collection(Core core) : core_(std::move(core)) {}

  /// How many servers an unsharded key names. A v4 key with a shard table
  /// describes several server groups; read as one group it would misroute
  /// every node id, so it is refused up front.
  static Result<int> ServerCount(const ClientSecretFile& key) {
    if (!key.shards.empty())
      return Status::InvalidArgument(
          "key file has a shard table; open it with ShardedCollection");
    const int num_servers =
        key.scheme == ShareScheme::kTwoParty ? 1 : key.num_servers;
    if (num_servers < 1)
      return Status::Corruption("key file names no servers");
    return num_servers;
  }

  void RebuildSession() {
    session_ = std::make_unique<QuerySession<Ring>>(
        core_.client(), servers_.group,
        core_.docs().Roots([](const DocRecord&) { return true; }));
  }

  /// Runs the shared-walk batch, narrowing the frontier to documents whose
  /// Bloom filter admits at least one queried tag (when enabled). A filter
  /// built under a different num_hashes than the current options cannot be
  /// tested soundly, so such documents are conservatively walked.
  Result<MultiLookupResult> RunBatch(std::span<const Query> queries) {
    last_prefilter_skipped_ = 0;
    if (!prefilter_enabled_ || filters_.empty())
      return session_->LookupBatch(queries);
    std::vector<std::vector<std::array<uint8_t, 32>>> trapdoors;
    trapdoors.reserve(queries.size());
    for (const Query& q : queries)
      trapdoors.push_back(DocBloomFilter::QueryTrapdoors(core_.seed(), q.tag,
                                                         prefilter_options_));
    std::vector<SessionRoot> roots =
        core_.docs().Roots([&](const DocRecord& doc) {
          auto it = filters_.find(doc.id);
          bool include =
              it == filters_.end() ||
              it->second.num_hashes() != prefilter_options_.num_hashes;
          for (size_t i = 0; !include && i < trapdoors.size(); ++i)
            include = it->second.MayContain(trapdoors[i]);
          return include;
        });
    last_prefilter_skipped_ = core_.docs().size() - roots.size();
    if (last_prefilter_skipped_ == 0) return session_->LookupBatch(queries);
    QuerySession<Ring> session(core_.client(), servers_.group,
                               std::move(roots));
    return session.LookupBatch(queries);
  }

  static std::string CacheKey(std::string_view kind, int variant,
                              std::string_view text) {
    std::string key(kind);
    key += static_cast<char>('0' + variant);
    key += '\x1f';
    key += text;
    return key;
  }

  /// A cache hit only counts when the entry's generation is current; stale
  /// entries are reaped on contact instead of by sweeping at Add/Remove.
  const std::vector<CollectionResult>* CacheFind(const std::string& key) {
    auto it = cache_.find(key);
    if (it == cache_.end()) return nullptr;
    if (it->second.generation != generation_) {
      cache_order_.erase(it->second.order);
      cache_.erase(it);
      return nullptr;
    }
    cache_order_.splice(cache_order_.begin(), cache_order_, it->second.order);
    return &it->second.results;
  }

  void CacheStore(std::string key, std::vector<CollectionResult> results) {
    if (cache_capacity_ == 0) return;
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      cache_order_.erase(it->second.order);
      cache_.erase(it);
    }
    while (cache_.size() >= cache_capacity_) EvictOldest();
    cache_order_.push_front(std::move(key));
    cache_.emplace(cache_order_.front(),
                   CacheEntry{generation_, std::move(results),
                              cache_order_.begin()});
  }

  void EvictOldest() {
    if (cache_order_.empty()) return;
    cache_.erase(cache_order_.back());
    cache_order_.pop_back();
  }

  Result<CollectionResult> Partition(const LookupResult& r) const {
    CollectionResult out{{}, r.stats};
    RETURN_IF_ERROR(core_.docs().Scatter(r, r.stats, &out.per_doc));
    return out;
  }

  Core core_;
  ServerGroup<Ring> servers_;
  std::unique_ptr<QuerySession<Ring>> session_;
  bool owns_servers_ = true;
  bool can_add_ = true;
  int64_t next_base_ = 0;

  // Hot-query cache (off until SetQueryCacheCapacity).
  struct CacheEntry {
    uint64_t generation = 0;
    std::vector<CollectionResult> results;
    std::list<std::string>::iterator order;  ///< position in cache_order_
  };
  size_t cache_capacity_ = 0;
  uint64_t generation_ = 0;  ///< bumped by Add/Remove/InjectFaults
  std::list<std::string> cache_order_;  ///< most-recently-used first
  std::map<std::string, CacheEntry> cache_;

  // Bloom pre-filter (off until EnableBloomPrefilter).
  bool prefilter_enabled_ = false;
  DocBloomFilter::Options prefilter_options_;
  std::map<DocId, DocBloomFilter> filters_;
  size_t last_prefilter_skipped_ = 0;
};

using FpCollection = Collection<FpCyclotomicRing>;
using ZCollection = Collection<ZQuotientRing>;

}  // namespace polysse

#endif  // POLYSSE_CORE_COLLECTION_H_
