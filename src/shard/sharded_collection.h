// Sharded collections: one client key, MANY server groups, each group
// (a "shard") holding a disjoint slice of the collection's documents and
// node-id space. Search is scatter-gather — one shared-frontier walk per
// shard, fanned out across groups and merged — so wall time scales with
// the deepest shard instead of the whole collection, while every answer
// stays bit-identical to the same documents in one unsharded Collection.
//
//   ShardDeploy deploy;
//   deploy.num_shards = 4;
//   auto col = FpShardedCollection::Create(seed, deploy).value();
//   col->Add(1, patient_file_1);         // routed to the emptiest shard
//   auto r = col->Search("diagnosis");   // scatter-gather across 4 groups
//   col->SplitShard(2, 7);               // half of shard 2 moves to new
//                                        // group 7, results unchanged
//   col->MergeShards(0, 3);              // shard 3 drains into 0; its
//                                        // node-id range is reclaimed
//
// Why answers survive splits and merges bit-identically: a document's
// shares depend only on its PRF prefix and its document-LOCAL node ids —
// the global base is carried separately by AddDocRequest — so moving a
// document to another group (export + re-add at a new base + remove) or
// rebasing it in place never re-splits or re-ships the share trees, and
// localized results (node_id - base, prefix-stripped path) are invariant.
//
// Shard moves ride the same wire admin protocol as document management:
// ExportDoc pulls one tree per server, AddDoc re-registers it in the
// destination group, RebaseDoc packs a shard during compaction. Merge
// compacts the surviving shard first and then reclaims the retired
// shard's whole node-id range, so remove-heavy lifetimes shrink the id
// space instead of leaking ranges forever.
//
// The client state, write path, server groups and document table come from
// the DeploymentCore (core/deployment.h) under Collection too; this class
// adds the ShardMap, scatter-gather with its stats roll-up, split, merge,
// compact and the per-(shard, server) file layout. With one shard it stores
// the same bytes and pays the same protocol cost as a Collection.
#ifndef POLYSSE_SHARD_SHARDED_COLLECTION_H_
#define POLYSSE_SHARD_SHARDED_COLLECTION_H_

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/deployment.h"
#include "shard/shard_map.h"

namespace polysse {

/// Deployment shape of a sharded collection: `num_shards` identical server
/// groups, each of `num_servers` servers running `scheme`.
struct ShardDeploy {
  ShareScheme scheme = ShareScheme::kTwoParty;
  /// Servers PER GROUP (additive: k, Shamir: n; two-party groups have 1).
  int num_servers = 1;
  /// Shamir: t servers per group needed to answer; 0 means all.
  int threshold = 0;
  EndpointKind transport = EndpointKind::kLoopback;
  int num_shards = 1;
  /// Node-id span each shard owns. Splits allocate fresh ranges of the
  /// same span, so the int32 id space bounds span * total shards ever.
  int64_t shard_span = 1 << 20;
  /// Fan-out workers shared by shard-level scatter-gather and per-group
  /// server calls (ThreadPool::ParallelFor is caller-helps, so the nested
  /// fan-outs cannot deadlock). <= 1 runs everything sequentially.
  int worker_threads = 0;
};

/// How scatter-gather treats a shard whose group does not answer probes.
struct ShardSearchOptions {
  /// false: a dead shard fails the whole search (no partial answers
  /// presented as complete). true: probe every group first, skip shards
  /// without enough live servers and record them in skipped_shards.
  bool skip_dead_shards = false;
};

/// One shard's share of a scatter-gather query's cost.
struct ShardQueryStats {
  ShardId shard_id = 0;
  QueryStats stats;
};

/// A scatter-gather answer: per-document matches exactly as an unsharded
/// Collection reports them, plus the merged and per-shard protocol costs.
struct ShardedResult {
  std::map<DocId, LookupResult> per_doc;
  /// Collection-level roll-up: counters and traffic sum across shards;
  /// rounds/fetch_rounds take the max, because shards walk concurrently —
  /// the collection's latency is the deepest shard's, not the sum.
  QueryStats stats;
  std::vector<ShardQueryStats> per_shard;  ///< ascending shard id
  /// Shards skipped as dead (skip_dead_shards mode only). Non-empty means
  /// documents on those shards are missing from per_doc.
  std::vector<ShardId> skipped_shards;
};

template <typename Ring>
class ShardedCollection {
 public:
  using OutsourceOptions = typename DeploymentCore<Ring>::OutsourceOptions;

  ShardedCollection(const ShardedCollection&) = delete;
  ShardedCollection& operator=(const ShardedCollection&) = delete;

  /// An empty sharded collection with `deploy.num_shards` live in-process
  /// server groups. Documents are added incrementally with Add.
  static Result<std::unique_ptr<ShardedCollection>> Create(
      const DeterministicPrf& seed, const ShardDeploy& deploy = {},
      const OutsourceOptions& options = {}) {
    if (deploy.num_shards < 1)
      return Status::InvalidArgument("need at least one shard");
    ASSIGN_OR_RETURN(Core core, Core::Create(seed, deploy, options));
    auto col = std::unique_ptr<ShardedCollection>(
        new ShardedCollection(std::move(core)));
    col->transport_ = deploy.transport;
    for (int i = 0; i < deploy.num_shards; ++i) {
      const int64_t base = static_cast<int64_t>(i) * deploy.shard_span;
      if (base > INT32_MAX)
        return Status::InvalidArgument("shard layout exceeds the id space");
      RETURN_IF_ERROR(col->map_.AddShard(static_cast<ShardId>(i),
                                         static_cast<int32_t>(base),
                                         deploy.shard_span));
      RETURN_IF_ERROR(col->MakeOwnedGroup(static_cast<ShardId>(i)));
    }
    return col;
  }

  /// A client over EXTERNAL endpoints (e.g. SocketEndpoints), rebuilt from
  /// a v4 key file. Endpoints are borrowed and positional: shards in
  /// ascending shard-id order, `key.num_servers` endpoints each — endpoint
  /// i*k+s is server s of the i-th shard's group.
  static Result<std::unique_ptr<ShardedCollection>> Connect(
      const ClientSecretFile& key, std::vector<ServerEndpoint*> endpoints,
      Executor* executor = nullptr) {
    ASSIGN_OR_RETURN(auto col, FromKey(key, executor));
    col->owns_servers_ = false;
    const size_t per_group =
        static_cast<size_t>(col->core_.servers_per_group());
    if (endpoints.size() != col->map_.size() * per_group)
      return Status::InvalidArgument(
          "this key names " + std::to_string(col->map_.size()) +
          " shard(s) of " + std::to_string(per_group) +
          " server(s); pass exactly that many endpoints, shard-major");
    std::vector<ShardId> ids = col->SortedShardIds();
    for (size_t i = 0; i < ids.size(); ++i) {
      std::vector<ServerEndpoint*> eps(
          endpoints.begin() + i * per_group,
          endpoints.begin() + (i + 1) * per_group);
      RETURN_IF_ERROR(col->AttachExternalGroup(ids[i], std::move(eps)));
    }
    return col;
  }

  /// Reopens a persisted sharded collection: the v4 key file plus one
  /// store file per (shard, server) at ShardStorePath(store_path, g, s).
  static Result<std::unique_ptr<ShardedCollection>> Open(
      const std::string& store_path, const std::string& key_path,
      EndpointKind transport = EndpointKind::kLoopback) {
    ASSIGN_OR_RETURN(ClientSecretFile key, Core::ReadKey(key_path));
    ASSIGN_OR_RETURN(auto col, FromKey(key, nullptr));
    col->transport_ = transport;
    for (ShardId id : col->SortedShardIds()) {
      ShardGroup group;
      group.id = id;
      for (int s = 0; s < col->core_.servers_per_group(); ++s) {
        ASSIGN_OR_RETURN(
            std::vector<uint8_t> bytes,
            ReadFileBytes(ShardStorePath(store_path, id, s)));
        ASSIGN_OR_RETURN(std::unique_ptr<ServerStoreRegistry<Ring>> registry,
                         LoadStoreRegistry<Ring>(bytes));
        group.registries.push_back(std::move(registry));
      }
      RETURN_IF_ERROR(col->core_.CheckStores(group));
      RETURN_IF_ERROR(col->core_.AttachOwned(&group, transport));
      col->groups_.emplace(id, std::move(group));
    }
    return col;
  }

  // ----------------------------------------------------------- documents

  /// Outsources `document` as `doc_id` to the shard with the most free
  /// node-id space — only that group receives the new share trees. The
  /// collection-wide tag map grows by the document's unseen tags, exactly
  /// as in an unsharded Collection (same seed + same add order = same
  /// tags, prefixes and shares, which is what keeps answers comparable).
  Status Add(DocId doc_id, const XmlNode& document) {
    ASSIGN_OR_RETURN(typename Core::Prepared doc,
                     core_.Prepare(doc_id, document));
    ASSIGN_OR_RETURN(ShardId target, map_.PickForAdd(doc.size()));
    ASSIGN_OR_RETURN(int32_t base, map_.Allocate(target, doc.size()));
    auto added = core_.Ship(doc_id, std::move(doc), base, *FindGroup(target));
    if (!added.ok())  // hand the allocation back
      (void)map_.SetNext(target, base - map_.Find(target)->base);
    return added.status();
  }

  /// Retires `doc_id` on every server of its owning shard. Idempotent and
  /// retryable exactly like Collection::Remove. The document's node-id
  /// range inside the shard is not reused until the shard is compacted.
  Status Remove(DocId doc_id) {
    ASSIGN_OR_RETURN(const DocRecord* doc, core_.docs().Require(doc_id));
    return core_.Retire(doc_id, FindGroup(doc->group)->group);
  }

  // ------------------------------------------------------------- queries

  /// Scatter-gather element lookup //tag across every shard.
  Result<ShardedResult> Search(std::string_view tag,
                               VerifyMode mode = VerifyMode::kVerified,
                               ShardSearchOptions options = {}) {
    Query q{std::string(tag), mode};
    ASSIGN_OR_RETURN(std::vector<ShardedResult> out,
                     SearchMany(std::span<const Query>(&q, 1), options));
    return std::move(out[0]);
  }

  /// Batched scatter-gather: per shard ONE shared-frontier session answers
  /// all queries (entry i answers queries[i]); shards run concurrently on
  /// the worker pool when one was configured.
  Result<std::vector<ShardedResult>> SearchMany(
      std::span<const Query> queries, ShardSearchOptions options = {}) {
    struct Part {
      ShardGroup* group = nullptr;
      std::vector<SessionRoot> roots;
    };
    std::vector<Part> parts;
    std::vector<ShardId> skipped;
    for (auto& [id, group] : groups_) {
      std::vector<SessionRoot> roots = core_.docs().Roots(
          [id = id](const DocRecord& doc) { return doc.group == id; });
      if (roots.empty()) continue;  // nothing to walk, nothing to probe
      if (options.skip_dead_shards && !ShardAlive(group)) {
        skipped.push_back(id);
        continue;
      }
      parts.push_back({&group, std::move(roots)});
    }

    std::vector<Result<MultiLookupResult>> outcomes(
        parts.size(), Status::Internal("shard walk did not run"));
    auto run_one = [&](size_t i) {
      QuerySession<Ring> session(core_.client(), parts[i].group->group,
                                 parts[i].roots);
      outcomes[i] = session.LookupBatch(queries);
    };
    if (ThreadPool* pool = core_.pool()) {
      pool->ParallelFor(parts.size(), run_one);
    } else {
      for (size_t i = 0; i < parts.size(); ++i) run_one(i);
    }

    QueryStats rollup;
    std::vector<ShardQueryStats> per_shard;
    for (size_t i = 0; i < parts.size(); ++i) {
      RETURN_IF_ERROR(outcomes[i].status());
      MergeStats(&rollup, outcomes[i]->stats);
      per_shard.push_back({parts[i].group->id, outcomes[i]->stats});
    }

    std::vector<ShardedResult> out(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      ShardedResult& r = out[q];
      r.stats = rollup;
      r.per_shard = per_shard;
      r.skipped_shards = skipped;
      for (size_t i = 0; i < parts.size(); ++i)
        RETURN_IF_ERROR(core_.docs().Scatter(outcomes[i]->per_tag[q], rollup,
                                             &r.per_doc));
    }
    return out;
  }

  // -------------------------------------------------------- split / merge

  /// Online shard split: moves the upper half of `source`'s documents (by
  /// node-id order) to the brand-new shard `new_shard`, which gets a fresh
  /// node-id range of the same span and a new in-process server group.
  /// Every move is pure wire traffic (ExportDoc + AddDoc + RemoveDoc);
  /// search answers before and after are bit-identical.
  Status SplitShard(ShardId source, ShardId new_shard) {
    if (!owns_servers_)
      return Status::FailedPrecondition(
          "connected collections must supply the new group's endpoints");
    return SplitShardImpl(source, new_shard, nullptr);
  }

  /// Split against EXTERNAL endpoints for the new group (connected mode):
  /// `new_endpoints` are borrowed, one per server of the group shape.
  Status SplitShard(ShardId source, ShardId new_shard,
                    std::vector<ServerEndpoint*> new_endpoints) {
    if (new_endpoints.size() != static_cast<size_t>(core_.servers_per_group()))
      return Status::InvalidArgument(
          "pass one endpoint per server of the group shape");
    return SplitShardImpl(source, new_shard, &new_endpoints);
  }

  /// Online shard merge: compacts `into`, drains every document of
  /// `victim` into it, then retires `victim` — its whole node-id range
  /// returns to the free pool, which is how remove-heavy collections
  /// shrink their id space instead of leaking ranges.
  Status MergeShards(ShardId into, ShardId victim) {
    if (into == victim)
      return Status::InvalidArgument("cannot merge a shard into itself");
    ShardGroup* dst = FindGroup(into);
    ShardGroup* src = FindGroup(victim);
    if (dst == nullptr || src == nullptr)
      return Status::NotFound("no such shard");
    RETURN_IF_ERROR(CompactShard(into));
    int64_t need = 0;
    for (const DocRecord& doc : core_.docs())
      if (doc.group == victim) need += doc.size;
    if (need > map_.Find(into)->free_space())
      return Status::FailedPrecondition(
          "shard " + std::to_string(into) + " lacks " + std::to_string(need) +
          " free node ids for the merge");
    RETURN_IF_ERROR(MoveDocs(DocsOf(victim), src, dst));
    RETURN_IF_ERROR(map_.RemoveShard(victim));
    groups_.erase(victim);
    return Status::Ok();
  }

  /// Packs `shard`'s documents back against its range start via RebaseDoc
  /// (no share tree crosses the wire) and rewinds its allocation offset,
  /// reclaiming the holes removals left behind.
  Status CompactShard(ShardId shard) {
    ShardGroup* group = FindGroup(shard);
    const ShardRange* range = map_.Find(shard);
    if (group == nullptr || range == nullptr)
      return Status::NotFound("no such shard");
    int64_t offset = 0;
    // Ascending base: packing left never collides.
    for (DocId id : DocsOf(shard)) {
      const DocRecord* doc = core_.docs().Find(id);
      const int32_t target = static_cast<int32_t>(range->base + offset);
      offset += doc->size;
      if (target == doc->base) continue;
      RebaseDocRequest req;
      req.doc_id = id;
      req.new_base = target;
      for (ServerEndpoint* ep : group->group.endpoints)
        RETURN_IF_ERROR(ep->RebaseDoc(req).status());
      core_.docs().Rebase(id, shard, target);
    }
    return map_.SetNext(shard, offset);
  }

  // --------------------------------------------------------- persistence

  /// Persists every group's stores (one file per (shard, server) at
  /// ShardStorePath) plus the v4 client key. Owned servers only.
  Status Save(const std::string& store_path,
              const std::string& key_path) const {
    if (!owns_servers_)
      return Status::FailedPrecondition(
          "connected collections do not hold the server stores; use "
          "SaveKey");
    for (const auto& [id, group] : groups_) {
      for (size_t s = 0; s < group.registries.size(); ++s) {
        ByteWriter bytes;
        SaveStoreRegistry(*group.registries[s], &bytes);
        RETURN_IF_ERROR(WriteFileBytes(ShardStorePath(store_path, id, s),
                                       bytes.span()));
      }
    }
    return SaveKey(key_path);
  }

  /// Persists the client secret state as a v4 key file: seed, tag map,
  /// group shape, document table and shard table.
  Status SaveKey(const std::string& key_path) const {
    ClientSecretFile key = core_.KeyFile();
    for (const ShardRange& s : map_.shards())
      key.shards.push_back({s.shard_id, s.base, s.span, s.next});
    return Core::WriteKey(key, key_path);
  }

  /// Where Save puts shard `shard`'s server-`s` store file.
  static std::string ShardStorePath(const std::string& store_path,
                                    ShardId shard, size_t s) {
    return store_path + ".g" + std::to_string(shard) + ".s" +
           std::to_string(s);
  }

  // -------------------------------------------------------- introspection

  const Ring& ring() const { return core_.ring(); }
  const ShardMap& shard_map() const { return map_; }
  size_t num_shards() const { return map_.size(); }
  size_t num_docs() const { return core_.docs().size(); }
  bool contains(DocId doc_id) const {
    return core_.docs().Find(doc_id) != nullptr;
  }
  ShareScheme scheme() const { return core_.scheme(); }
  int servers_per_group() const { return core_.servers_per_group(); }

  /// Ids in node-id order.
  std::vector<DocId> doc_ids() const { return core_.docs().ids(); }

  /// The shard currently hosting `doc_id`.
  Result<ShardId> shard_of(DocId doc_id) const {
    ASSIGN_OR_RETURN(const DocRecord* doc, core_.docs().Require(doc_id));
    return doc->group;
  }

  size_t total_nodes() const { return core_.docs().total_nodes(); }

  /// Shard `shard`'s server-`s` registry, or null (connected mode, or no
  /// such shard/server).
  ServerStoreRegistry<Ring>* registry(ShardId shard, size_t s = 0) {
    ShardGroup* group = FindGroup(shard);
    if (group == nullptr || s >= group->registries.size()) return nullptr;
    return group->registries[s].get();
  }
  ServerHandler* handler(ShardId shard, size_t s = 0) {
    return registry(shard, s);
  }

  /// Probes shard `shard`'s group; true when enough servers answer for
  /// the scheme (Shamir: threshold, otherwise all).
  Result<bool> ProbeShard(ShardId shard) {
    ShardGroup* group = FindGroup(shard);
    if (group == nullptr) return Status::NotFound("no such shard");
    return ShardAlive(*group);
  }

  /// Wraps shard `shard`'s server-`s` endpoint in a FaultInjectingEndpoint
  /// and returns it, or null on a bad index. Composable, like
  /// Collection::InjectFaults.
  FaultInjectingEndpoint* InjectFaults(ShardId shard, size_t s,
                                       FaultConfig config) {
    ShardGroup* group = FindGroup(shard);
    if (group == nullptr) return nullptr;
    return group->InjectFaults(s, std::move(config));
  }

  /// Cumulative wire cost across every endpoint of every shard.
  TransportCounters transport_totals() const {
    TransportCounters sum;
    for (const auto& [id, group] : groups_) sum.Add(group.counters());
    return sum;
  }

 private:
  using Core = DeploymentCore<Ring>;
  /// One shard's server group; its id is the shard id.
  using ShardGroup = ServerGroup<Ring>;

  explicit ShardedCollection(Core core) : core_(std::move(core)) {}

  /// Shared Connect/Open front half: ring, client state, shard map and the
  /// document table from a v4 key.
  static Result<std::unique_ptr<ShardedCollection>> FromKey(
      const ClientSecretFile& key, Executor* executor) {
    if (key.shards.empty())
      return Status::InvalidArgument(
          "key file has no shard table; use Collection for unsharded keys");
    ASSIGN_OR_RETURN(Ring ring, Core::RingFromKey(key));
    ASSIGN_OR_RETURN(Core core,
                     Core::FromKey(key, std::move(ring), executor));
    auto col = std::unique_ptr<ShardedCollection>(
        new ShardedCollection(std::move(core)));
    std::vector<ShardRange> ranges;
    for (const auto& s : key.shards)
      ranges.push_back({s.shard_id, s.base, s.span, s.next});
    ASSIGN_OR_RETURN(col->map_, ShardMap::FromRanges(std::move(ranges)));
    for (const auto& doc : key.docs) {
      const ShardRange* owner = col->map_.OwnerOfNode(doc.base);
      if (owner == nullptr || !owner->Contains(doc.base, doc.size))
        return Status::Corruption(
            "key file document outside every shard range");
      col->core_.docs().Rebase(doc.doc_id, owner->shard_id, doc.base);
    }
    return col;
  }

  Status MakeOwnedGroup(ShardId id) {
    ShardGroup group;
    group.id = id;
    RETURN_IF_ERROR(core_.MakeOwnedGroup(&group, transport_));
    groups_.emplace(id, std::move(group));
    return Status::Ok();
  }

  Status AttachExternalGroup(ShardId id,
                             std::vector<ServerEndpoint*> endpoints) {
    ShardGroup group;
    group.id = id;
    RETURN_IF_ERROR(core_.FinishGroup(&group, std::move(endpoints)));
    groups_.emplace(id, std::move(group));
    return Status::Ok();
  }

  ShardGroup* FindGroup(ShardId id) {
    auto it = groups_.find(id);
    return it == groups_.end() ? nullptr : &it->second;
  }

  std::vector<ShardId> SortedShardIds() const {
    std::vector<ShardId> ids;
    for (const ShardRange& s : map_.shards()) ids.push_back(s.shard_id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// `shard`'s documents in node-id order.
  std::vector<DocId> DocsOf(ShardId shard) const {
    std::vector<DocId> ids;
    for (const DocRecord& doc : core_.docs())
      if (doc.group == shard) ids.push_back(doc.id);
    return ids;
  }

  bool ShardAlive(ShardGroup& group) {
    size_t alive = 0;
    for (ServerEndpoint* ep : group.group.endpoints)
      if (ep->Probe().ok()) ++alive;
    const size_t required =
        group.group.scheme == ShareScheme::kShamir
            ? static_cast<size_t>(group.group.threshold)
            : group.group.endpoints.size();
    return alive >= required;
  }

  /// Moves `ids`, in order, from `src` to freshly allocated bases in
  /// `dst`: per document and server export + re-add, then retire at the
  /// source. A failed move rolls back its destination copies, hands its
  /// allocation back and stops; documents already moved stay moved, and
  /// the doc table stays sorted.
  Status MoveDocs(const std::vector<DocId>& ids, ShardGroup* src,
                  ShardGroup* dst) {
    for (DocId id : ids) {
      ASSIGN_OR_RETURN(int32_t new_base,
                       map_.Allocate(dst->id, core_.docs().Find(id)->size));
      Status copied = [&]() -> Status {
        std::vector<ExportDocResponse> exports;
        for (ServerEndpoint* ep : src->group.endpoints) {
          ExportDocRequest req;
          req.doc_id = id;
          ASSIGN_OR_RETURN(ExportDocResponse resp, ep->ExportDoc(req));
          exports.push_back(std::move(resp));
        }
        return Core::AddToGroup(id, new_base, dst->group, [&](size_t s) {
          return std::move(exports[s].store_bytes);
        });
      }();
      if (!copied.ok()) {  // hand the allocation back, as Add does
        (void)map_.SetNext(dst->id, new_base - map_.Find(dst->id)->base);
        return copied;
      }
      (void)Core::RemoveFromGroup(id, src->group);
      core_.docs().Rebase(id, dst->id, new_base);
    }
    return Status::Ok();
  }

  Status SplitShardImpl(ShardId source, ShardId new_shard,
                        std::vector<ServerEndpoint*>* new_endpoints) {
    ShardGroup* src = FindGroup(source);
    if (src == nullptr || map_.Find(source) == nullptr)
      return Status::NotFound("no such shard");
    if (map_.Find(new_shard) != nullptr)
      return Status::InvalidArgument("shard id " +
                                     std::to_string(new_shard) +
                                     " already exists");
    const int64_t span = map_.Find(source)->span;
    ASSIGN_OR_RETURN(int32_t base, map_.FreeRangeBase(span));
    RETURN_IF_ERROR(map_.AddShard(new_shard, base, span));
    Status status =
        new_endpoints == nullptr
            ? MakeOwnedGroup(new_shard)
            : AttachExternalGroup(new_shard, std::move(*new_endpoints));

    // The upper half of the source's documents (by node-id order) moves.
    const std::vector<DocId> in_source = DocsOf(source);
    if (status.ok())
      status = MoveDocs(
          {in_source.begin() + (in_source.size() + 1) / 2, in_source.end()},
          src, FindGroup(new_shard));
    if (!status.ok() && DocsOf(new_shard).empty()) {
      // Nothing moved: unregister the new shard so the call can be retried.
      groups_.erase(new_shard);
      (void)map_.RemoveShard(new_shard);
    }
    return status;
  }

  static void MergeStats(QueryStats* into, const QueryStats& s) {
    into->total_server_nodes += s.total_server_nodes;
    into->nodes_visited += s.nodes_visited;
    into->server_evals += s.server_evals;
    into->client_evals += s.client_evals;
    into->client_share_derivations += s.client_share_derivations;
    into->rounds = std::max(into->rounds, s.rounds);
    into->fetch_rounds = std::max(into->fetch_rounds, s.fetch_rounds);
    into->zero_candidates += s.zero_candidates;
    into->reconstructions += s.reconstructions;
    into->polys_fetched_full += s.polys_fetched_full;
    into->consts_fetched += s.consts_fetched;
    into->trusted_fallbacks += s.trusted_fallbacks;
    into->false_positives_removed += s.false_positives_removed;
    into->server_failovers += s.server_failovers;
    into->transport.Add(s.transport);
  }

  Core core_;
  bool owns_servers_ = true;
  /// What fronts the owned groups; a split's new group gets the same.
  EndpointKind transport_ = EndpointKind::kLoopback;
  ShardMap map_;
  std::map<ShardId, ShardGroup> groups_;
};

using FpShardedCollection = ShardedCollection<FpCyclotomicRing>;
using ZShardedCollection = ShardedCollection<ZQuotientRing>;

}  // namespace polysse

#endif  // POLYSSE_SHARD_SHARDED_COLLECTION_H_
