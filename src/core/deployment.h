// The deployment core under both collection facades (Collection: one
// server group; ShardedCollection: many behind a ShardMap). DeploymentCore
// owns the client state — ring, seed, tag map, ClientContext, group shape —
// and the write path: extend the map, build the tree, prefix its paths,
// split, ship AddDoc with undo, commit; retire idempotently. ServerGroup is
// one group's registries, endpoints and faults. DocTable keeps documents
// sorted by base and localizes matches into per-document results. Both
// facades outsource, retire and localize through this code, so a one-shard
// ShardedCollection stores the same bytes and pays the same protocol cost
// as a Collection.
#ifndef POLYSSE_CORE_DEPLOYMENT_H_
#define POLYSSE_CORE_DEPLOYMENT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/client_context.h"
#include "core/endpoint.h"
#include "core/multi_server.h"
#include "core/outsource.h"
#include "core/persistence.h"
#include "core/poly_tree.h"
#include "core/query_session.h"
#include "core/server_store.h"
#include "core/sharing.h"
#include "core/store_registry.h"
#include "nt/primes.h"
#include "util/thread_pool.h"

namespace polysse {

/// Which transport fronts collection-owned in-process servers.
enum class EndpointKind {
  /// Serialize every message both ways: real byte counters, codecs
  /// exercised on every query (the measured-deployment default).
  kLoopback,
  /// Direct handler calls — zero-copy fast path for embedded use.
  kInProcess,
};

/// Stable client-chosen document identity inside a collection.
using DocId = uint64_t;

/// Joins a document's share-prefix with an in-document node path, matching
/// how the query session extends paths from the root downward.
std::string JoinSharePath(const std::string& prefix, const std::string& path);

/// One outsourced document as the client tracks it.
struct DocRecord {
  DocId id = 0;
  /// The server group holding its shares: the shard id, 0 when unsharded.
  uint32_t group = 0;
  /// First node id of the document's global range; size = node count.
  int32_t base = 0;
  int64_t size = 0;
  /// PRF namespace of the document's derived shares ("" = legacy).
  std::string prefix;
};

/// The client's document table. Every insert and rebase keeps it sorted by
/// base, so node-id routing stays right even after a reshape fails midway.
class DocTable {
 public:
  std::vector<DocRecord>::const_iterator begin() const { return docs_.begin(); }
  std::vector<DocRecord>::const_iterator end() const { return docs_.end(); }
  size_t size() const { return docs_.size(); }

  const DocRecord* Find(DocId id) const;
  /// Find, or NotFound naming the id.
  Result<const DocRecord*> Require(DocId id) const;
  /// The document whose node-id range holds `node_id`, or null.
  const DocRecord* FindByNode(int32_t node_id) const;

  void Insert(DocRecord doc);
  void Erase(DocId id);
  /// Moves `id` to `group` at `base`, keeping the table sorted.
  void Rebase(DocId id, uint32_t group, int32_t base);

  /// Session roots of the documents `keep` admits, in base order.
  template <typename Keep>
  std::vector<SessionRoot> Roots(Keep&& keep) const {
    std::vector<SessionRoot> roots;
    for (const DocRecord& doc : docs_)
      if (keep(doc)) roots.push_back({doc.base, doc.prefix});
    return roots;
  }
  /// Ids in node-id order.
  std::vector<DocId> ids() const;
  size_t total_nodes() const;

  /// Routes every match and possible match of a session-global result to
  /// its document, with document-local node ids and paths, and stamps
  /// `stats` on every per-document entry.
  Status Scatter(const LookupResult& from, const QueryStats& stats,
                 std::map<DocId, LookupResult>* per_doc) const;

 private:
  std::vector<DocRecord> docs_;  ///< sorted by base
};

/// One server group: registries and endpoints owned in live mode,
/// endpoints borrowed in connected mode. `group.endpoints` is what queries
/// and admin traffic actually use (faults splice in there).
template <typename Ring>
struct ServerGroup {
  uint32_t id = 0;
  std::vector<std::unique_ptr<ServerStoreRegistry<Ring>>> registries;
  std::vector<std::unique_ptr<ServerEndpoint>> owned;
  std::vector<std::unique_ptr<FaultInjectingEndpoint>> faults;
  EndpointGroup group;

  /// Wraps server `s`'s endpoint in a FaultInjectingEndpoint, or returns
  /// null when `s` is not a server index. Wrapping twice stacks faults.
  FaultInjectingEndpoint* InjectFaults(size_t s, FaultConfig config) {
    if (s >= group.endpoints.size()) return nullptr;
    faults.push_back(std::make_unique<FaultInjectingEndpoint>(
        group.endpoints[s], std::move(config)));
    group.endpoints[s] = faults.back().get();
    return faults.back().get();
  }

  TransportCounters counters() const {
    TransportCounters sum;
    for (const ServerEndpoint* ep : group.endpoints) sum.Add(ep->counters());
    return sum;
  }
};

template <typename Ring>
class DeploymentCore {
 public:
  /// Ring-specific outsourcing knobs (field size / modulus polynomial).
  using OutsourceOptions =
      std::conditional_t<std::is_same_v<Ring, FpCyclotomicRing>,
                         FpOutsourceOptions, ZOutsourceOptions>;

  /// An Fp ring created with options.p == 0 is sized for this many
  /// distinct tags across all documents.
  static constexpr uint64_t kDefaultTagCapacity = 64;

  /// A validated core for a fresh deployment shaped by a DeployShape or
  /// ShardDeploy (scheme, per-group servers, threshold, worker threads).
  template <typename Shape>
  static Result<DeploymentCore> Create(const DeterministicPrf& seed,
                                       const Shape& shape,
                                       const OutsourceOptions& options) {
    ASSIGN_OR_RETURN(Ring ring,
                     MakeRing(shape.scheme, shape.num_servers, options));
    DeploymentCore core(std::move(ring), seed, MakeSplitOptions(options));
    core.map_options_ = BuildMapOptions(core.ring_, options);
    RETURN_IF_ERROR(
        core.SetShape(shape.scheme, shape.num_servers, shape.threshold));
    core.SetUpPool(shape.worker_threads);
    return core;
  }

  /// The client state a key file carries, over `ring` (the key's own ring
  /// parameters, or a legacy key's store ring), fanning out on `executor`.
  /// The key's documents enter the table in group 0; a sharded caller
  /// routes them to their shards.
  static Result<DeploymentCore> FromKey(const ClientSecretFile& key,
                                        Ring ring, Executor* executor) {
    DeploymentCore core(std::move(ring), DeterministicPrf(key.seed),
                        ShareSplitOptions{key.z_coeff_bits});
    core.external_executor_ = executor;
    core.tag_map_ = key.tag_map;
    core.map_options_ = core.ReconstructMapOptions();
    core.RebuildClient();
    RETURN_IF_ERROR(core.SetShape(
        key.scheme,
        key.scheme == ShareScheme::kTwoParty ? 1 : key.num_servers,
        key.threshold));
    for (const auto& doc : key.docs)
      core.docs_.Insert({doc.doc_id, 0, doc.base, doc.size, doc.share_prefix});
    // A pre-collection (v1/v2) key's one document holds epoch 0's "".
    core.next_epoch_ = key.version < 3 ? 1 : key.next_epoch;
    return core;
  }

  static Result<Ring> RingFromKey(const ClientSecretFile& key) {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      if (key.ring_kind != static_cast<uint8_t>(StoredRingKind::kFpCyclotomic))
        return Status::InvalidArgument(
            "key file lacks F_p ring parameters (re-save with this build)");
      return FpCyclotomicRing::Create(key.fp_p);
    } else {
      if (key.ring_kind != static_cast<uint8_t>(StoredRingKind::kZQuotient))
        return Status::InvalidArgument(
            "key file lacks Z-ring parameters (re-save with this build)");
      return ZQuotientRing::Create(key.z_modulus);
    }
  }

  // ------------------------------------------------------------ write path

  /// A document ready to ship: its data tree under the tag map extended
  /// by the document's unseen tags. Nothing is committed yet.
  struct Prepared {
    TagMap tag_map;
    PolyTree<Ring> data;
    int64_t size() const { return static_cast<int64_t>(data.size()); }
  };

  /// Add, step 1: rejects a duplicate id, extends a copy of the tag map —
  /// failing cleanly if the ring's tag capacity is exhausted — and builds
  /// the document's polynomial tree.
  Result<Prepared> Prepare(DocId doc_id, const XmlNode& document) const {
    if (docs_.Find(doc_id) != nullptr)
      return Status::InvalidArgument("doc id " + std::to_string(doc_id) +
                                     " is already in the collection");
    Prepared out{tag_map_, {}};
    RETURN_IF_ERROR(
        out.tag_map.Extend(document.DistinctTags(), map_options_, seed_));
    ASSIGN_OR_RETURN(out.data, BuildPolyTree(ring_, out.tag_map, document));
    return out;
  }

  /// Add, step 2: prefixes the tree's paths with a fresh PRF namespace,
  /// splits it for `servers`, and ships one AddDoc per server at `base`.
  /// Only when every server took it does the core commit the tag map, the
  /// doc-table entry and the epoch; a failure leaves the core unchanged.
  Result<const DocRecord*> Ship(DocId doc_id, Prepared doc, int32_t base,
                                const ServerGroup<Ring>& servers) {
    // The legacy namespace "" belongs to the FIRST document ever added
    // (next_epoch_ 0), not merely the first live one — a remove/re-add
    // cycle must never hand a fresh document an already-used PRF prefix.
    const std::string prefix =
        (next_epoch_ == 0 && legacy_share_paths_)
            ? ""
            : "d" + std::to_string(doc_id) + "." + std::to_string(next_epoch_);
    for (auto& node : doc.data.nodes)
      node.path = JoinSharePath(prefix, node.path);
    const int64_t size = doc.size();
    ASSIGN_OR_RETURN(std::vector<PolyTree<Ring>> trees,
                     SplitForServers(doc.data, prefix));
    RETURN_IF_ERROR(AddToGroup(doc_id, base, servers.group, [&](size_t s) {
      ByteWriter bytes;
      ServerStore<Ring> store(ring_, std::move(trees[s]));
      SaveServerStore(store, &bytes);
      return bytes.Take();
    }));
    tag_map_ = std::move(doc.tag_map);
    RebuildClient();
    docs_.Insert({doc_id, servers.id, base, size, prefix});
    ++next_epoch_;
    return docs_.Find(doc_id);
  }

  /// Registers `doc_id` at `base` on every server of `group`, server s
  /// receiving bytes_for(s). On a partial failure the copies already
  /// registered are retired so the servers stay consistent.
  template <typename BytesFor>
  static Status AddToGroup(DocId doc_id, int32_t base,
                           const EndpointGroup& group, BytesFor&& bytes_for) {
    for (size_t s = 0; s < group.endpoints.size(); ++s) {
      AddDocRequest req;
      req.doc_id = doc_id;
      req.base = base;
      req.store_bytes = bytes_for(s);
      auto ack = group.endpoints[s]->AddDoc(req);
      if (!ack.ok()) {
        // Undo includes server s itself: a transport retry may have
        // applied the add there even though the call reported failure
        // (RemoveDoc is a harmless NotFound where it never landed).
        RemoveDocRequest undo;
        undo.doc_id = doc_id;
        for (size_t u = 0; u <= s; ++u)
          (void)group.endpoints[u]->RemoveDoc(undo);  // best effort
        return ack.status();
      }
    }
    return Status::Ok();
  }

  /// Retires `doc_id` on every server of `group`. Every server is
  /// attempted even after one fails, and one that already retired the doc
  /// (NotFound) counts as done, so a retry finishes a partial failure.
  static Status RemoveFromGroup(DocId doc_id, const EndpointGroup& group) {
    RemoveDocRequest req;
    req.doc_id = doc_id;
    Status first_error = Status::Ok();
    for (ServerEndpoint* ep : group.endpoints) {
      auto ack = ep->RemoveDoc(req);
      if (!ack.ok() && ack.status().code() != StatusCode::kNotFound &&
          first_error.ok()) {
        first_error = ack.status();
      }
    }
    return first_error;
  }

  /// RemoveFromGroup, then (once every server has it) drop the table entry.
  Status Retire(DocId doc_id, const EndpointGroup& group) {
    RETURN_IF_ERROR(RemoveFromGroup(doc_id, group));
    docs_.Erase(doc_id);
    return Status::Ok();
  }

  // ------------------------------------------------------- server groups

  /// Open-time consistency check: every registry of `servers` must hold
  /// the core's ring and exactly the table's documents of group
  /// `servers.id`, at the same bases and sizes.
  Status CheckStores(const ServerGroup<Ring>& servers) const {
    std::vector<const DocRecord*> expected;
    for (const DocRecord& doc : docs_)
      if (doc.group == servers.id) expected.push_back(&doc);
    for (const auto& registry : servers.registries) {
      if (!SameRing(registry->ring(), ring_))
        return Status::Corruption(
            "server store disagrees with the key file's ring");
      const auto stored = registry->docs();
      bool same = stored.size() == expected.size();
      for (size_t i = 0; same && i < stored.size(); ++i)
        same = stored[i].doc_id == expected[i]->id &&
               stored[i].base == expected[i]->base &&
               stored[i].nodes == static_cast<size_t>(expected[i]->size);
      if (!same)
        return Status::Corruption(
            "server store disagrees with the key file's document table");
    }
    return Status::Ok();
  }

  /// One empty registry per server, fronted by owned endpoints of `kind`.
  Status MakeOwnedGroup(ServerGroup<Ring>* servers, EndpointKind kind) {
    for (int s = 0; s < servers_per_group_; ++s)
      servers->registries.push_back(
          std::make_unique<ServerStoreRegistry<Ring>>(ring_));
    return AttachOwned(servers, kind);
  }

  /// Fronts each of `servers`' registries with an owned endpoint of `kind`.
  Status AttachOwned(ServerGroup<Ring>* servers, EndpointKind kind) {
    std::vector<ServerEndpoint*> eps;
    for (const auto& registry : servers->registries) {
      if (kind == EndpointKind::kLoopback) {
        servers->owned.push_back(
            std::make_unique<LoopbackEndpoint>(registry.get()));
      } else {
        servers->owned.push_back(
            std::make_unique<InProcessEndpoint>(registry.get()));
      }
      eps.push_back(servers->owned.back().get());
    }
    return FinishGroup(servers, std::move(eps));
  }

  /// Builds `servers`' EndpointGroup over `eps`, in server order.
  Status FinishGroup(ServerGroup<Ring>* servers,
                     std::vector<ServerEndpoint*> eps) const {
    switch (scheme_) {
      case ShareScheme::kTwoParty:
        servers->group = EndpointGroup::TwoParty(eps[0]);
        break;
      case ShareScheme::kAdditive:
        servers->group = EndpointGroup::Additive(std::move(eps));
        break;
      case ShareScheme::kShamir:
        servers->group = EndpointGroup::Shamir(std::move(eps), threshold_);
        break;
    }
    servers->group.executor = executor();
    return servers->group.Validate();
  }

  /// <= 1 runs fan-out sequentially on the caller thread (deterministic).
  void SetUpPool(int worker_threads) {
    pool_ = worker_threads > 1 ? std::make_unique<ThreadPool>(
                                     static_cast<size_t>(worker_threads))
                               : nullptr;
  }
  /// The executor fan-out runs on (null = sequential inline).
  Executor* executor() const {
    return pool_ != nullptr ? pool_.get() : external_executor_;
  }
  ThreadPool* pool() const { return pool_.get(); }

  // ---------------------------------------------------------- persistence

  /// The key-file fields both facades share.
  ClientSecretFile KeyFile() const {
    ClientSecretFile key;
    key.seed = seed_.seed();
    key.tag_map = tag_map_;
    key.z_coeff_bits = split_options_.z_coeff_bits;
    key.scheme = scheme_;
    key.num_servers = servers_per_group_;
    key.threshold = threshold_;
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      key.ring_kind = static_cast<uint8_t>(StoredRingKind::kFpCyclotomic);
      key.fp_p = ring_.p();
    } else {
      key.ring_kind = static_cast<uint8_t>(StoredRingKind::kZQuotient);
      key.z_modulus = ring_.modulus();
    }
    for (const DocRecord& doc : docs_)
      key.docs.push_back({doc.id, doc.base, doc.size, doc.prefix});
    key.next_epoch = next_epoch_;
    return key;
  }

  static Status WriteKey(const ClientSecretFile& key,
                         const std::string& key_path) {
    ByteWriter bytes;
    key.Serialize(&bytes);
    return WriteFileBytes(key_path, bytes.span());
  }
  static Result<ClientSecretFile> ReadKey(const std::string& key_path) {
    ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(key_path));
    ByteReader reader(bytes);
    return ClientSecretFile::Deserialize(&reader);
  }

  // -------------------------------------------------------- introspection

  const Ring& ring() const { return ring_; }
  const DeterministicPrf& seed() const { return seed_; }
  ClientContext<Ring>* client() const { return client_.get(); }
  ShareScheme scheme() const { return scheme_; }
  int servers_per_group() const { return servers_per_group_; }
  DocTable& docs() { return docs_; }
  const DocTable& docs() const { return docs_; }
  void set_legacy_share_paths(bool on) { legacy_share_paths_ = on; }

 private:
  DeploymentCore(Ring ring, DeterministicPrf seed,
                 ShareSplitOptions split_options)
      : ring_(std::move(ring)),
        seed_(std::move(seed)),
        split_options_(split_options) {
    RebuildClient();
  }

  /// The deployment's fixed ring from Create-time options.
  static Result<Ring> MakeRing(ShareScheme scheme, int num_servers,
                               const OutsourceOptions& options) {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      uint64_t p = options.p;
      if (p == 0) {
        // No document in sight yet: size the field for the default tag
        // capacity, leaving room for Shamir party points at x = 1..n.
        p = PrimeForAlphabet(kDefaultTagCapacity);
        if (scheme == ShareScheme::kShamir)
          p = NextPrime(std::max(p, static_cast<uint64_t>(num_servers) + 1));
      }
      return FpCyclotomicRing::Create(p);
    } else {
      return ZQuotientRing::Create(options.r);
    }
  }

  /// Map options for a freshly created deployment.
  static TagMap::Options BuildMapOptions(const Ring& ring,
                                         const OutsourceOptions& options) {
    TagMap::Options out;
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      out.max_value = ring.MaxTagValue();  // Lemma 3: exclude p-1
      out.assignment = options.assignment;
    } else {
      out.max_value = options.max_tag_value;
      if (options.safe_tag_values)
        out.allowed_values = ring.SafeTagValues(
            options.max_tag_value,
            /*max_tag_distance=*/options.max_tag_value);
    }
    return out;
  }

  static ShareSplitOptions MakeSplitOptions(const OutsourceOptions& options) {
    ShareSplitOptions out;
    if constexpr (std::is_same_v<Ring, ZQuotientRing>)
      out.z_coeff_bits = options.coeff_bits;
    return out;
  }

  /// Map options for Extend after a key load, from the ring (Fp) or the
  /// persisted map's value range (Z). Create-time knobs are not persisted,
  /// so a reloaded deployment extends with the defaults: keyed-random
  /// assignment and, for Z, the (stricter) safe-tag-value pool.
  TagMap::Options ReconstructMapOptions() const {
    TagMap::Options out;
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      out.max_value = ring_.MaxTagValue();
    } else {
      out.max_value = tag_map_.max_value();
      out.allowed_values = ring_.SafeTagValues(
          out.max_value, /*max_tag_distance=*/out.max_value);
    }
    return out;
  }

  /// Validates and records the group shape. A Shamir threshold of 0 means
  /// all servers; the effective t then drives the group, the Shamir split
  /// and the key file alike.
  Status SetShape(ShareScheme scheme, int num_servers, int threshold) {
    switch (scheme) {
      case ShareScheme::kTwoParty:
        if (num_servers != 1)
          return Status::InvalidArgument("two-party scheme takes one server");
        break;
      case ShareScheme::kAdditive:
        if (num_servers < 1)
          return Status::InvalidArgument("need at least one server");
        break;
      case ShareScheme::kShamir:
        if (!std::is_same_v<Ring, FpCyclotomicRing>)
          return Status::Unimplemented("Shamir t-of-n requires the F_p ring");
        break;  // t is range-checked by EndpointGroup::Validate
    }
    scheme_ = scheme;
    servers_per_group_ = num_servers;
    threshold_ = scheme != ShareScheme::kShamir ? 0
                 : threshold > 0 ? threshold : num_servers;
    return Status::Ok();
  }

  /// Splits a (prefixed) data tree for the group shape.
  Result<std::vector<PolyTree<Ring>>> SplitForServers(
      const PolyTree<Ring>& data, const std::string& prefix) const {
    std::vector<PolyTree<Ring>> trees;
    switch (scheme_) {
      case ShareScheme::kTwoParty: {
        SharedTrees<Ring> shares =
            SplitShares(ring_, data, seed_, split_options_);
        trees.push_back(std::move(shares.server));
        break;
      }
      case ShareScheme::kAdditive: {
        ASSIGN_OR_RETURN(trees, SplitSharesAcrossServers(
                                    ring_, data, seed_, servers_per_group_,
                                    split_options_));
        break;
      }
      case ShareScheme::kShamir: {
        if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
          // Per-document randomness stream; the unprefixed label is the
          // historical single-document one.
          ChaChaRng rng = seed_.Stream(
              prefix.empty() ? "shamir-split" : "shamir-split/" + prefix);
          ASSIGN_OR_RETURN(trees,
                           SplitSharesShamir(ring_, data, threshold_,
                                             servers_per_group_, rng));
        } else {
          return Status::Unimplemented("Shamir t-of-n requires the F_p ring");
        }
        break;
      }
    }
    return trees;
  }

  void RebuildClient() {
    client_ = std::make_unique<ClientContext<Ring>>(
        ClientContext<Ring>::SeedOnly(ring_, tag_map_, seed_, split_options_));
  }

  Ring ring_;
  DeterministicPrf seed_;
  TagMap tag_map_;
  TagMap::Options map_options_;
  ShareSplitOptions split_options_;
  std::unique_ptr<ClientContext<Ring>> client_;
  ShareScheme scheme_ = ShareScheme::kTwoParty;
  int servers_per_group_ = 1;
  int threshold_ = 0;
  /// Engine compatibility: the first document ever added shares in the
  /// pre-collection PRF namespace "".
  bool legacy_share_paths_ = false;
  uint64_t next_epoch_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  Executor* external_executor_ = nullptr;
  DocTable docs_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_DEPLOYMENT_H_
