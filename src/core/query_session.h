// The query protocol of §4.3, client side. One QuerySession drives lookups
// against a group of ServerEndpoints through the serialized wire protocol:
//
//  * Element lookup //tag: top-down BFS; each round every live server
//    evaluates the frontier's share polynomials at e = map(tag), the client
//    combines the answers (adding its own share evaluations in the additive
//    schemes, Lagrange-interpolating in Shamir t-of-n), and only nodes whose
//    combined value is 0 are expanded — dead branches are pruned without any
//    server ever touching them (the paper's "smart index").
//  * Answer determination: a zero node with no zero child is a definite
//    match; other zero nodes are disambiguated by reconstructing the node's
//    tag via Theorems 1/2 (which simultaneously verifies an untrusted
//    server's answers through the Eq. 3 coefficient checks).
//  * Advanced XPath //a/b//c (paper §4.3 "Advanced Querying"): left-to-right
//    stepping, or the paper's preferred all-at-once strategy that filters
//    every branch against the whole query's point set in a single pass.
//
// All three share schemes (§4.2's 2-party split, additive client+k servers,
// Shamir t-of-n) run through the same EvalRequest/FetchRequest exchange;
// only the client-side combination differs.
//
// One fan-out primitive carries every Eval and Fetch: choose the servers
// (all of them, or the first `threshold` live ones under Shamir), call
// Begin* on each through the group's Executor (inline by default,
// concurrently when the group carries a ThreadPool), await the Deferred
// answers into per-server slots and check their shape. Under Shamir a
// server that fails or answers malformed is marked dead and the request
// is retried with a replacement as long as at least `threshold` remain;
// the additive schemes return the error. Slots make the combined answers
// bit-identical whatever the executor, and synchronous endpoints resolve
// at Begin*, so they see the same call sequence as direct calls.
//
// Fetch rounds share that primitive and differ only in when they settle:
// plan-then-fetch settles each round at once; overlap (every endpoint
// pipelined) keeps one round per BFS round in flight until the walk ends.
#ifndef POLYSSE_CORE_QUERY_SESSION_H_
#define POLYSSE_CORE_QUERY_SESSION_H_

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/client_context.h"
#include "core/endpoint.h"
#include "core/protocol.h"
#include "mpc/shamir.h"
#include "nt/modular.h"
#include "xpath/xpath.h"

namespace polysse {

/// How much the client trusts the server (paper §4.3, discussion of Eq. 3).
enum class VerifyMode {
  /// No reconstruction: definite answers are zero nodes without zero
  /// children. Cheapest; cannot detect a cheating server, and in the
  /// Z[x]/(r) ring the evaluation filter may let false positives through.
  kOptimistic,
  /// Reconstruct every candidate's tag with full share polynomials and check
  /// all coefficient equations (Eq. 3) — rejects cheating servers.
  kVerified,
  /// The paper's trusted-server optimization: transfer only constant
  /// coefficients ("only the last equation is enough"), falling back to a
  /// full fetch for nodes whose true polynomial wraps the ring.
  kTrustedConstOnly,
};

/// §4.3 advanced-query evaluation order.
enum class XPathStrategy {
  kLeftToRight,  ///< evaluate steps one by one
  kAllAtOnce,    ///< filter branches against all query points simultaneously
};

/// One query answer.
struct MatchedNode {
  int32_t node_id = 0;
  std::string path;  ///< child-index path, e.g. "0/2" ("" = root)

  bool operator==(const MatchedNode& o) const {
    return node_id == o.node_id && path == o.path;
  }
};

/// Result of a lookup or XPath evaluation.
struct LookupResult {
  /// Confirmed matches in document order.
  std::vector<MatchedNode> matches;
  /// kOptimistic only: zero nodes that *may* additionally match (the paper's
  /// "may or may not represent correct answers").
  std::vector<MatchedNode> possible;
  QueryStats stats;
};

/// One element lookup of a batch: the tag plus its own verify mode.
struct TagQuery {
  std::string tag;
  VerifyMode mode = VerifyMode::kVerified;
};

/// One starting point of a session's walks. A single-document deployment
/// has the one root {0, ""}; a collection session carries one root per
/// document — the document's global root id plus its client-share path
/// prefix — and every walk descends all of them in one shared frontier.
struct SessionRoot {
  int32_t node_id = 0;
  /// The root node's path in the client-share PRF namespace ("" for the
  /// single legacy document; a collection uses per-document prefixes).
  std::string path;
};

/// Result of a batched multi-tag lookup: one entry per requested tag, plus
/// the shared protocol cost (a single BFS walk answers all tags at once via
/// multi-point evaluation requests).
struct MultiLookupResult {
  std::vector<LookupResult> per_tag;  ///< aligned with the request order
  QueryStats stats;                   ///< aggregate cost of the shared walk
};

template <typename Ring>
class QuerySession {
 public:
  /// Transport-aware session: the scheme and servers come from `group`,
  /// the walk starts from `roots` (default: the single document root 0).
  /// A collection passes one root per document; every query then runs one
  /// shared BFS over all of them — per round ONE EvalRequest per server
  /// covers the whole cross-document frontier.
  QuerySession(ClientContext<Ring>* client, EndpointGroup group,
               std::vector<SessionRoot> roots = {{0, ""}})
      : client_(client), group_(std::move(group)), roots_(std::move(roots)) {
    init_status_ = group_.Validate();
    if (init_status_.ok() && group_.scheme == ShareScheme::kShamir &&
        !std::is_same_v<Ring, FpCyclotomicRing>) {
      init_status_ =
          Status::Unimplemented("Shamir t-of-n requires the F_p ring");
    }
    for (const SessionRoot& r : roots_) root_ids_.insert(r.node_id);
    dead_.assign(group_.endpoints.size(), 0);
  }

  /// Element lookup //tagname. An unmapped tag short-circuits to an empty
  /// result without contacting the server (the map is client-private).
  /// A one-query LookupBatch: the shared-frontier walk degenerates to
  /// exactly the classic pruned descent (same requests, same rounds), and
  /// single lookups inherit the batch path's pipelined fetch overlap.
  Result<LookupResult> Lookup(std::string_view tagname, VerifyMode mode) {
    TagQuery query{std::string(tagname), mode};
    ASSIGN_OR_RETURN(MultiLookupResult multi,
                     LookupBatch(std::span<const TagQuery>(&query, 1)));
    LookupResult result = std::move(multi.per_tag[0]);
    result.stats = multi.stats;
    return result;
  }

  /// Batched element lookup: answers several //tag queries with ONE pruned
  /// walk. The frontier descends wherever *any* requested point vanishes,
  /// and every eval request carries all points, so the per-tag marginal
  /// cost is a word per node instead of a full round. Unmapped tags yield
  /// empty entries. Each query resolves under its own verify mode; the
  /// fetch/reconstruction caches are shared across the whole batch.
  Result<MultiLookupResult> LookupBatch(std::span<const TagQuery> queries) {
    RETURN_IF_ERROR(BeginQuery());
    MultiLookupResult out;
    out.per_tag.resize(queries.size());

    // Map the tags; deduplicate points (repeated tags share work).
    std::vector<uint64_t> points;
    std::vector<int> tag_point(queries.size(), -1);  // index into `points`
    for (size_t i = 0; i < queries.size(); ++i) {
      auto e_or = client_->tag_map().Value(queries[i].tag);
      if (!e_or.ok()) continue;
      RETURN_IF_ERROR(client_->ring().QueryModulus(*e_or).status());
      auto it = std::find(points.begin(), points.end(), *e_or);
      if (it == points.end()) {
        tag_point[i] = static_cast<int>(points.size());
        points.push_back(*e_or);
      } else {
        tag_point[i] = static_cast<int>(it - points.begin());
      }
    }
    if (points.empty()) {
      FinishStats(&out.stats);
      return out;
    }

    // Shared BFS: expand while ANY point vanishes. Over pipelined
    // transports the overlap policy submits each round's verification
    // fetches as soon as its evaluations land, and the next round's
    // EvalRequests go out while they drain. Sequential transports use
    // plan-then-fetch: overlap would only reorder the same round trips,
    // and the classic shape keeps their round/message counts bit-stable.
    const bool overlap = AllEndpointsPipelined();
    std::vector<int32_t> frontier = RootIds();
    std::unordered_set<int32_t> seen(frontier.begin(), frontier.end());
    std::vector<std::vector<int32_t>> zeros_per_point(points.size());
    while (!frontier.empty()) {
      RETURN_IF_ERROR(EnsureEvals(frontier, points));
      std::vector<int32_t> next;
      std::vector<std::vector<int32_t>> round_zeros(points.size());
      for (int32_t id : frontier) {
        bool any_zero = false;
        for (size_t k = 0; k < points.size(); ++k) {
          if (combined_evals_.at({id, points[k]}) == 0) {
            zeros_per_point[k].push_back(id);
            round_zeros[k].push_back(id);
            any_zero = true;
          }
        }
        if (!any_zero) continue;
        for (int32_t c : info_[id].children) {
          if (seen.insert(c).second) next.push_back(c);
        }
      }
      if (overlap)
        RETURN_IF_ERROR(SubmitVerifyFetches(queries, tag_point, round_zeros));
      frontier = std::move(next);
    }

    // Resolve answers per query, sharing the fetch/reconstruction caches.
    // All queries' verification needs are planned into shared batched fetch
    // rounds (one const-only, one full, per server); under overlap every id
    // is already in flight, so planning adds no round and settling drains
    // the walk's rounds.
    RETURN_IF_ERROR(SubmitVerifyFetches(queries, tag_point, zeros_per_point));
    RETURN_IF_ERROR(SettleFetches());
    for (size_t i = 0; i < queries.size(); ++i) {
      if (tag_point[i] < 0) continue;  // unmapped
      const uint64_t e = points[tag_point[i]];
      for (int32_t z : zeros_per_point[tag_point[i]]) {
        RETURN_IF_ERROR(ResolveCandidate(z, e, queries[i].mode,
                                         &out.per_tag[i].matches,
                                         &out.per_tag[i].possible));
      }
      SortMatches(&out.per_tag[i].matches);
      SortMatches(&out.per_tag[i].possible);
    }
    FinishStats(&out.stats);
    for (auto& r : out.per_tag) r.stats = out.stats;  // shared-cost view
    return out;
  }

  /// Single-mode convenience over LookupBatch.
  Result<MultiLookupResult> LookupMany(const std::vector<std::string>& tags,
                                       VerifyMode mode) {
    std::vector<TagQuery> queries;
    queries.reserve(tags.size());
    for (const std::string& t : tags) queries.push_back({t, mode});
    return LookupBatch(queries);
  }

  /// Advanced XPath query (§4.3). kOptimistic is promoted to kVerified —
  /// multi-step navigation needs exact tag identification at every step.
  Result<LookupResult> EvaluateXPath(const XPathQuery& query,
                                     XPathStrategy strategy, VerifyMode mode) {
    RETURN_IF_ERROR(BeginQuery());
    if (mode == VerifyMode::kOptimistic) mode = VerifyMode::kVerified;
    LookupResult result;

    std::vector<uint64_t> points(query.steps().size());
    for (size_t i = 0; i < query.steps().size(); ++i) {
      auto e_or = client_->tag_map().Value(query.steps()[i].name);
      if (!e_or.ok()) {
        FinishStats(&result.stats);
        return result;  // unmapped name can never match
      }
      points[i] = *e_or;
      RETURN_IF_ERROR(client_->ring().QueryModulus(points[i]).status());
    }

    std::set<int32_t> final_ids;
    if (strategy == XPathStrategy::kLeftToRight) {
      RETURN_IF_ERROR(RunLeftToRight(query, points, mode, &final_ids));
    } else {
      std::set<std::pair<int32_t, size_t>> memo;
      RETURN_IF_ERROR(
          RunAllAtOnce(query, points, mode, kVirtualRoot, 0, &memo, &final_ids));
    }
    for (int32_t id : final_ids) result.matches.push_back({id, info_[id].path});
    SortMatches(&result.matches);
    FinishStats(&result.stats);
    return result;
  }

  /// Stats of the most recent query.
  const QueryStats& last_stats() const { return stats_; }

  /// The transport configuration this session talks through.
  const EndpointGroup& endpoint_group() const { return group_; }

 private:
  using Elem = typename Ring::Elem;
  using Scalar = typename Ring::Scalar;

  static constexpr int32_t kVirtualRoot = -1;

  /// Client-side picture of a server node, learned from EvalResponses.
  struct NodeInfo {
    std::string path;
    std::vector<int32_t> children;
    int32_t subtree_size = 0;
    bool known = false;
  };

  /// Whether the client's own PRF share participates in combination
  /// (everything but Shamir, where the client holds no share).
  bool include_client() const {
    return group_.scheme != ShareScheme::kShamir;
  }

  /// The node ids every walk starts from (one per document).
  std::vector<int32_t> RootIds() const {
    std::vector<int32_t> ids;
    ids.reserve(roots_.size());
    for (const SessionRoot& r : roots_) ids.push_back(r.node_id);
    return ids;
  }

  Status BeginQuery() {
    RETURN_IF_ERROR(init_status_);
    stats_ = QueryStats();
    counters_before_ = SumCounters();
    info_.clear();
    // Root paths are known a priori (the client assigned them at
    // outsourcing time); everything else is learned from EvalResponses.
    for (const SessionRoot& r : roots_) info_[r.node_id].path = r.path;
    combined_evals_.clear();
    combined_polys_.clear();
    combined_consts_.clear();
    client_shares_.clear();
    visited_.clear();
    pending_fetches_.clear();
    for (auto& ids : requested_) ids.clear();
    return Status::Ok();
  }

  void FinishStats(QueryStats* out) {
    stats_.nodes_visited = visited_.size();
    const TransportCounters now = SumCounters();
    stats_.transport.bytes_up = now.bytes_up - counters_before_.bytes_up;
    stats_.transport.bytes_down = now.bytes_down - counters_before_.bytes_down;
    stats_.transport.messages_up =
        now.messages_up - counters_before_.messages_up;
    stats_.transport.messages_down =
        now.messages_down - counters_before_.messages_down;
    *out = stats_;
  }

  TransportCounters SumCounters() const {
    TransportCounters sum;
    for (const ServerEndpoint* ep : group_.endpoints) sum.Add(ep->counters());
    return sum;
  }

  static void SortMatches(std::vector<MatchedNode>* v) {
    std::sort(v->begin(), v->end(),
              [](const MatchedNode& a, const MatchedNode& b) {
                return a.node_id < b.node_id;  // preorder == document order
              });
  }

  /// Shared per-candidate answer determination of Lookup / LookupBatch.
  Status ResolveCandidate(int32_t z, uint64_t e, VerifyMode mode,
                          std::vector<MatchedNode>* matches,
                          std::vector<MatchedNode>* possible) {
    ASSIGN_OR_RETURN(bool definite, HasNoZeroChild(z, e));
    if (mode == VerifyMode::kOptimistic) {
      if (definite) {
        matches->push_back({z, info_[z].path});
      } else {
        possible->push_back({z, info_[z].path});
      }
      return Status::Ok();
    }
    ASSIGN_OR_RETURN(uint64_t t, ReconstructTag(z, mode));
    if (t == e) {
      matches->push_back({z, info_[z].path});
    } else if (definite) {
      // The evaluation filter said "match" but the tag differs: a Z-ring
      // false positive (or a cheating server, which kVerified rejects
      // earlier inside SolveTag).
      ++stats_.false_positives_removed;
    }
    return Status::Ok();
  }

  // ------------------------------------------------------------- transport
  //
  // Every Eval and Fetch goes through one fan-out primitive. Submit picks
  // the scheme's active servers and calls Begin* on each inside the group
  // executor's ParallelFor: a pooled group submits concurrently, a
  // synchronous endpoint answers right there, and a pipelined one puts the
  // request on the wire and returns. Settle awaits every answer, checks its
  // shape and, under Shamir, fails over past dead or lying servers.

  template <typename Req>
  using RespOf = std::conditional_t<std::is_same_v<Req, EvalRequest>,
                                    EvalResponse, FetchResponse>;

  /// One request fanned out to `servers`, its answers possibly in flight.
  template <typename Req>
  struct Flight {
    Req req;
    std::vector<size_t> servers;                   ///< endpoint indices asked
    std::vector<Deferred<RespOf<Req>>> answers;  ///< aligned with servers
  };
  /// A fetch round: {FetchMode, ids} plus its in-flight answers.
  using FetchRound = Flight<FetchRequest>;

  /// A settled fan-out: one well-formed answer per asked server, in server
  /// order, each with its combination weight.
  template <typename Resp>
  struct Answers {
    std::vector<Resp> resps;
    std::vector<uint64_t> weights;
  };

  static Deferred<EvalResponse> Begin(ServerEndpoint* ep,
                                      const EvalRequest& req) {
    return ep->BeginEval(req);
  }
  static Deferred<FetchResponse> Begin(ServerEndpoint* ep,
                                       const FetchRequest& req) {
    return ep->BeginFetch(req);
  }

  /// Answers are checked before anything indexes into them: one entry per
  /// requested id, and fetch entries in request order. A malformed answer
  /// identifies its server as lying.
  static Status CheckShape(const EvalRequest& req, const EvalResponse& resp) {
    if (resp.entries.size() != req.node_ids.size())
      return Status::Corruption("server returned wrong entry count");
    return Status::Ok();
  }
  static Status CheckShape(const FetchRequest& req,
                           const FetchResponse& resp) {
    bool bad = resp.entries.size() != req.node_ids.size();
    for (size_t j = 0; !bad && j < req.node_ids.size(); ++j)
      bad = resp.entries[j].node_id != req.node_ids[j];
    if (bad)
      return Status::Corruption("fetch response misaligned with the request");
    return Status::Ok();
  }

  /// Additive schemes ask every server; Shamir asks the first `threshold`
  /// live ones and refuses once fewer remain.
  Result<std::vector<size_t>> ChooseServers() const {
    const size_t want = group_.scheme == ShareScheme::kShamir
                            ? static_cast<size_t>(group_.threshold)
                            : group_.endpoints.size();
    std::vector<size_t> chosen;
    for (size_t i = 0; i < group_.endpoints.size() && chosen.size() < want;
         ++i)
      if (!dead_[i]) chosen.push_back(i);
    if (chosen.size() < want)
      return Status::Unavailable(
          "only " + std::to_string(chosen.size()) + " of the required " +
          std::to_string(want) + " servers are reachable");
    return chosen;
  }

  /// Puts `req` to the chosen servers — concurrently when the group carries
  /// a pooled executor, so k-server wall time is one round trip, not k.
  template <typename Req>
  Result<Flight<Req>> Submit(Req req) {
    Flight<Req> f;
    ASSIGN_OR_RETURN(f.servers, ChooseServers());
    f.req = std::move(req);
    for (size_t j = 0; j < f.servers.size(); ++j)
      f.answers.emplace_back(
          Result<RespOf<Req>>(Status::Internal("subrequest not run")));
    group_.executor_or_inline()->ParallelFor(f.servers.size(), [&](size_t j) {
      f.answers[j] = Begin(group_.endpoints[f.servers[j]], f.req);
    });
    return f;
  }

  /// Awaits every answer of `f` (all of them: nothing may stay pending).
  /// Additive schemes need every server, so a failed or malformed answer is
  /// the error. Under Shamir its server is marked dead for the rest of the
  /// session — one failover per death, however many rounds it answered —
  /// and the request goes out again to a replacement set. Weights are the
  /// Lagrange coefficients of the servers that answered.
  template <typename Req>
  Result<Answers<RespOf<Req>>> Settle(Flight<Req>& f) {
    const bool shamir = group_.scheme == ShareScheme::kShamir;
    for (;;) {
      Answers<RespOf<Req>> got;
      Status error = Status::Ok();
      for (size_t j = 0; j < f.servers.size(); ++j) {
        Result<RespOf<Req>> r = f.answers[j].Await();
        Status s = r.ok() ? CheckShape(f.req, *r) : r.status();
        if (s.ok()) {
          got.resps.push_back(std::move(r).value());
          continue;
        }
        if (error.ok()) error = std::move(s);
        if (shamir && !dead_[f.servers[j]]) {
          dead_[f.servers[j]] = 1;
          ++stats_.server_failovers;
        }
      }
      if (error.ok()) {
        got.weights.assign(got.resps.size(), 1);
        if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
          if (shamir) {
            std::vector<uint64_t> xs;
            for (size_t idx : f.servers) xs.push_back(group_.shamir_x[idx]);
            ASSIGN_OR_RETURN(got.weights, LagrangeWeightsAtZero(
                                              client_->ring().field(), xs));
          }
        }
        return got;
      }
      if (!shamir) return error;
      ASSIGN_OR_RETURN(f, Submit(f.req));
    }
  }

  /// Weighted server contribution for combination. Weights other than 1
  /// only arise under Shamir, which is F_p-only.
  template <typename V>
  V Scaled(V v, uint64_t w) const {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      if (w != 1) {
        if constexpr (std::is_same_v<V, Elem>) return v.ScalarMul(w);
        else return client_->ring().field().Mul(v, w);
      }
    }
    (void)w;
    return v;
  }

  // ------------------------------------------------------ combined evals

  Result<const Elem*> ClientShare(int32_t id) {
    auto it = client_shares_.find(id);
    if (it == client_shares_.end()) {
      ASSIGN_OR_RETURN(Elem share, client_->ShareForPath(info_[id].path));
      ++stats_.client_share_derivations;
      it = client_shares_.emplace(id, std::move(share)).first;
    }
    return &it->second;
  }

  /// Requests server evaluations for any (id, point) not yet cached from
  /// every active server, then combines them (plus the client's own share
  /// evaluations where the scheme includes one). All ids must have known
  /// paths (the root, or discovered via a parent's EvalEntry).
  Status EnsureEvals(const std::vector<int32_t>& ids,
                     const std::vector<uint64_t>& points) {
    std::vector<int32_t> need;
    for (int32_t id : ids) {
      bool missing = !info_[id].known;
      for (uint64_t e : points) {
        if (!combined_evals_.count({id, e})) missing = true;
      }
      if (missing) need.push_back(id);
    }
    if (need.empty()) return Status::Ok();

    EvalRequest req;
    req.points = points;
    req.node_ids = need;
    ASSIGN_OR_RETURN(Flight<EvalRequest> flight, Submit(std::move(req)));
    ASSIGN_OR_RETURN(Answers<EvalResponse> got, Settle(flight));
    ++stats_.rounds;
    const std::vector<EvalResponse>& resps = got.resps;
    const std::vector<uint64_t>& weights = got.weights;
    stats_.server_evals += need.size() * points.size() * resps.size();

    for (size_t j = 0; j < need.size(); ++j) {
      const EvalEntry& entry = resps[0].entries[j];
      // Structure must agree across servers: every share tree mirrors the
      // data tree's shape, so divergence means a corrupt or lying server.
      for (size_t s = 1; s < resps.size(); ++s) {
        const EvalEntry& other = resps[s].entries[j];
        if (other.node_id != entry.node_id ||
            other.children != entry.children ||
            other.subtree_size != entry.subtree_size ||
            other.values.size() != entry.values.size())
          return Status::Corruption("servers disagree on tree structure");
      }
      visited_.insert(entry.node_id);
      NodeInfo& info = info_[entry.node_id];
      if (!info.known) {
        info.children = entry.children;
        info.subtree_size = entry.subtree_size;
        info.known = true;
        if (root_ids_.count(entry.node_id)) {
          // A root's subtree is its whole document: summed over the roots,
          // the client's only honest view of the server-side node count.
          stats_.total_server_nodes += static_cast<size_t>(entry.subtree_size);
        }
        for (size_t i = 0; i < entry.children.size(); ++i) {
          NodeInfo& child = info_[entry.children[i]];
          if (child.path.empty() && !root_ids_.count(entry.children[i])) {
            child.path = info.path.empty()
                             ? std::to_string(i)
                             : info.path + "/" + std::to_string(i);
          }
        }
      }
      if (entry.values.size() != points.size())
        return Status::Corruption("server returned wrong value count");
      const Elem* share = nullptr;
      if (include_client()) {
        ASSIGN_OR_RETURN(share, ClientShare(entry.node_id));
      }
      for (size_t k = 0; k < points.size(); ++k) {
        const uint64_t e = points[k];
        ASSIGN_OR_RETURN(uint64_t m, client_->ring().QueryModulus(e));
        uint64_t sum = 0;
        for (size_t s = 0; s < resps.size(); ++s) {
          const uint64_t v = resps[s].entries[j].values[k];
          if (v >= m)
            return Status::Corruption("server evaluation outside Z_m");
          sum = AddMod(sum, weights[s] == 1 ? v : MulMod(weights[s], v, m), m);
        }
        if (share != nullptr) {
          ASSIGN_OR_RETURN(uint64_t cv, client_->ring().EvalAt(*share, e));
          ++stats_.client_evals;
          sum = AddMod(sum, cv, m);
        }
        combined_evals_[{entry.node_id, e}] = sum;
        if (sum == 0) ++stats_.zero_candidates;
      }
    }
    return Status::Ok();
  }

  /// Whether `id`'s cached combined evaluations vanish at every point.
  bool VanishesAtAll(int32_t id, const std::vector<uint64_t>& points) const {
    for (uint64_t e : points)
      if (combined_evals_.at({id, e}) != 0) return false;
    return true;
  }

  /// BFS from `roots` keeping only nodes whose combined evaluation vanishes
  /// at *all* points; returns those nodes (the paper's alive region).
  Result<std::vector<int32_t>> PrunedDescend(std::vector<int32_t> roots,
                                             const std::vector<uint64_t>& points) {
    std::vector<int32_t> alive;
    std::vector<int32_t> frontier = std::move(roots);
    std::unordered_set<int32_t> seen(frontier.begin(), frontier.end());
    while (!frontier.empty()) {
      RETURN_IF_ERROR(EnsureEvals(frontier, points));
      std::vector<int32_t> next;
      for (int32_t id : frontier) {
        if (!VanishesAtAll(id, points)) continue;  // dead branch: pruned
        alive.push_back(id);
        for (int32_t c : info_[id].children) {
          if (seen.insert(c).second) next.push_back(c);
        }
      }
      frontier = std::move(next);
    }
    return alive;
  }

  /// True when no child of `z` evaluates to zero at e — the paper's
  /// "zero element without zero sub element" definite-answer test.
  Result<bool> HasNoZeroChild(int32_t z, uint64_t e) {
    RETURN_IF_ERROR(EnsureEvals({z}, {e}));
    const std::vector<int32_t>& children = info_[z].children;
    if (children.empty()) return true;
    RETURN_IF_ERROR(EnsureEvals(children, {e}));
    for (int32_t c : children) {
      if (combined_evals_.at({c, e}) == 0) return false;
    }
    return true;
  }

  // -------------------------------------------------------- reconstruction
  //
  // Fetch scheduling. A fetch round is submitted through the fan-out
  // primitive and waits in pending_fetches_ until SettleFetches combines
  // its answers; the only policy is when that happens. Plan-then-fetch
  // (Fetch) settles a round as soon as it is submitted. Overlap, chosen
  // by LookupBatch when every endpoint pipelines, submits one round per
  // BFS round and settles them all after the walk, so the next round's
  // evaluations go out while earlier fetches drain.

  /// True when every endpoint genuinely pipelines (BeginFetch submits
  /// immediately). Only then does issuing fetches early buy wall time; on
  /// sequential transports it would merely reorder the same round trips.
  bool AllEndpointsPipelined() const {
    for (const ServerEndpoint* ep : group_.endpoints)
      if (!ep->SupportsPipelining()) return false;
    return !group_.endpoints.empty();
  }

  /// Submits one FetchRequest for every id of `ids` whose `mode` share is
  /// neither combined nor already in flight (no-op when nothing is new).
  Status SubmitFetch(FetchMode mode, const std::vector<int32_t>& ids) {
    FetchRequest req;
    req.mode = mode;
    for (int32_t id : ids)
      if (Requested(mode).insert(id).second) req.node_ids.push_back(id);
    if (req.node_ids.empty()) return Status::Ok();
    ASSIGN_OR_RETURN(FetchRound round, Submit(std::move(req)));
    pending_fetches_.push_back(std::move(round));
    return Status::Ok();
  }

  /// Settles every pending round (all of them, even after one fails) and
  /// combines the answers into the mode's cache.
  Status SettleFetches() {
    std::vector<FetchRound> rounds;
    rounds.swap(pending_fetches_);
    Status overall = Status::Ok();
    for (FetchRound& round : rounds) {
      Status s = SettleFetch(round);
      if (overall.ok()) overall = std::move(s);
    }
    return overall;
  }

  Status SettleFetch(FetchRound& round) {
    ASSIGN_OR_RETURN(Answers<FetchResponse> got, Settle(round));
    ++stats_.fetch_rounds;
    return round.req.mode == FetchMode::kFull
               ? Combine<FetchMode::kFull>(round.req.node_ids, got)
               : Combine<FetchMode::kConstOnly>(round.req.node_ids, got);
  }

  /// Plan-then-fetch: the shares of `ids` are combined when this returns.
  Status Fetch(FetchMode mode, const std::vector<int32_t>& ids) {
    RETURN_IF_ERROR(SubmitFetch(mode, ids));
    return SettleFetches();
  }

  /// What a fetch mode combines into: whole share polynomials, or their
  /// constant coefficients.
  template <FetchMode M>
  using Fetched = std::conditional_t<M == FetchMode::kFull, Elem, Scalar>;

  template <FetchMode M>
  std::unordered_map<int32_t, Fetched<M>>& Combined() {
    if constexpr (M == FetchMode::kFull) return combined_polys_;
    else return combined_consts_;
  }
  std::unordered_set<int32_t>& Requested(FetchMode mode) {
    return requested_[mode == FetchMode::kFull ? 0 : 1];
  }

  /// An element's `M` view, a decoded `M` payload, and `M` addition.
  template <FetchMode M>
  Fetched<M> Lift(const Elem& e) const {
    if constexpr (M == FetchMode::kFull) return e;
    else return client_->ring().ConstTerm(e);
  }
  template <FetchMode M>
  Result<Fetched<M>> Decode(ByteReader* r) const {
    if constexpr (M == FetchMode::kFull) return client_->ring().Deserialize(r);
    else return client_->ring().DeserializeScalar(r);
  }
  template <FetchMode M>
  Fetched<M> Plus(const Fetched<M>& a, const Fetched<M>& b) const {
    if constexpr (M == FetchMode::kFull) return client_->ring().Add(a, b);
    else return client_->ring().AddScalars(a, b);
  }

  /// Folds one settled fetch round into the `M` cache: each id's weighted
  /// server shares, plus the client's own share where the scheme has one.
  template <FetchMode M>
  Status Combine(const std::vector<int32_t>& ids,
                 const Answers<FetchResponse>& got) {
    (M == FetchMode::kFull ? stats_.polys_fetched_full
                           : stats_.consts_fetched) += ids.size();
    for (size_t j = 0; j < ids.size(); ++j) {
      Fetched<M> sum = Lift<M>(client_->ring().Zero());
      for (size_t s = 0; s < got.resps.size(); ++s) {
        ByteReader r(got.resps[s].entries[j].payload);
        ASSIGN_OR_RETURN(Fetched<M> part, Decode<M>(&r));
        sum = Plus<M>(sum, Scaled(std::move(part), got.weights[s]));
      }
      if (include_client()) {
        ASSIGN_OR_RETURN(const Elem* share, ClientShare(ids[j]));
        sum = Plus<M>(sum, Lift<M>(*share));
      }
      Combined<M>().emplace(ids[j], std::move(sum));
    }
    return Status::Ok();
  }

  /// Submits the verification fetches of every query's zero candidates
  /// (`zeros` is indexed by point, `tag_point` maps queries to points):
  /// each candidate plus its direct children, in one const-only round for
  /// wrap-free nodes under the trusted mode and one full round otherwise,
  /// so all queries of a batch share the same rounds.
  Status SubmitVerifyFetches(std::span<const TagQuery> queries,
                             const std::vector<int>& tag_point,
                             const std::vector<std::vector<int32_t>>& zeros) {
    std::vector<int32_t> consts, polys;
    for (size_t i = 0; i < queries.size(); ++i) {
      const VerifyMode mode = queries[i].mode;
      if (tag_point[i] < 0 || mode == VerifyMode::kOptimistic) continue;
      for (int32_t z : zeros[tag_point[i]]) {
        RETURN_IF_ERROR(EnsureStructure(z));
        const bool const_only =
            mode == VerifyMode::kTrustedConstOnly &&
            static_cast<size_t>(info_[z].subtree_size) <=
                MaxResidueDegree(client_->ring());
        std::vector<int32_t>* dst = const_only ? &consts : &polys;
        dst->push_back(z);
        for (int32_t c : info_[z].children) dst->push_back(c);
      }
    }
    RETURN_IF_ERROR(SubmitFetch(FetchMode::kConstOnly, consts));
    return SubmitFetch(FetchMode::kFull, polys);
  }

  /// Theorem 1/2 tag recovery for node `id` ("reconstruct the non-shared
  /// polynomials of both the element and all its direct children"). The
  /// node's and its children's shares arrive in ONE batched FetchRequest
  /// per server per round — cache-deduped, so a caller that already
  /// prefetched (SubmitVerifyFetches) pays no further round.
  Result<uint64_t> ReconstructTag(int32_t id, VerifyMode mode) {
    RETURN_IF_ERROR(EnsureStructure(id));
    ++stats_.reconstructions;
    const Ring& ring = client_->ring();
    std::vector<int32_t> need = {id};
    need.insert(need.end(), info_[id].children.begin(),
                info_[id].children.end());

    if (mode == VerifyMode::kTrustedConstOnly) {
      // Wrap-free nodes satisfy f_0 = -t * g_0 with g_0 the plain product of
      // the children's constant terms; wrapped nodes need the full Eq. 2.
      const bool wrap_free =
          static_cast<size_t>(info_[id].subtree_size) <= MaxResidueDegree(ring);
      if (wrap_free) {
        RETURN_IF_ERROR(Fetch(FetchMode::kConstOnly, need));
        Scalar g0 = ring.OneScalar();
        for (int32_t c : info_[id].children)
          g0 = ring.MulScalars(g0, combined_consts_.at(c));
        auto t = ring.SolveTagTrusted(combined_consts_.at(id), g0);
        if (t.ok()) return *t;
        // g_0 not invertible or inconsistent: fall back to a full fetch.
      }
      ++stats_.trusted_fallbacks;
      // fall through to the full reconstruction below
    }

    RETURN_IF_ERROR(Fetch(FetchMode::kFull, need));
    Elem g = ring.One();
    for (int32_t c : info_[id].children)
      g = ring.Mul(g, combined_polys_.at(c));
    return ring.SolveTag(combined_polys_.at(id), g);
  }

  /// Structure (children / subtree size) without caring about values: reuse
  /// the eval path with the node's own cheap point when unknown.
  Status EnsureStructure(int32_t id) {
    if (info_[id].known) return Status::Ok();
    // Any valid point works; use 1 if the ring accepts it, else 2.
    uint64_t probe = client_->ring().QueryModulus(1).ok() ? 1 : 2;
    return EnsureEvals({id}, {probe});
  }

  static size_t MaxResidueDegree(const FpCyclotomicRing& ring) {
    return ring.DenseCoeffCount() - 1;  // p - 2
  }
  static size_t MaxResidueDegree(const ZQuotientRing& ring) {
    return static_cast<size_t>(ring.degree()) - 1;  // deg r - 1
  }

  /// Tag-equality test used by XPath stepping: does node `id` carry exactly
  /// tag point `e`?
  Result<bool> NodeTagEquals(int32_t id, uint64_t e, VerifyMode mode) {
    RETURN_IF_ERROR(EnsureEvals({id}, {e}));
    if (combined_evals_.at({id, e}) != 0) return false;  // (x - e) absent
    // Cheap certificate: zero with no zero child means the node itself
    // matches (in F_p exactly; Z-ring FPs are caught by reconstruction
    // below only in verified/trusted modes — XPath always runs those).
    ASSIGN_OR_RETURN(bool definite, HasNoZeroChild(id, e));
    if (definite && std::is_same_v<Ring, FpCyclotomicRing>) return true;
    ASSIGN_OR_RETURN(uint64_t t, ReconstructTag(id, mode));
    if (definite && t != e) ++stats_.false_positives_removed;
    return t == e;
  }

  // ----------------------------------------------------------- strategies

  /// Where an XPath step starts: the document roots below the virtual
  /// root, else the context node's children.
  Result<std::vector<int32_t>> StepRoots(int32_t ctx) {
    if (ctx == kVirtualRoot) return RootIds();
    RETURN_IF_ERROR(EnsureStructure(ctx));
    return info_[ctx].children;
  }

  Status RunLeftToRight(const XPathQuery& query,
                        const std::vector<uint64_t>& points, VerifyMode mode,
                        std::set<int32_t>* out) {
    std::vector<int32_t> contexts = {kVirtualRoot};
    for (size_t i = 0; i < query.steps().size(); ++i) {
      const XPathStep& step = query.steps()[i];
      const uint64_t e = points[i];
      std::set<int32_t> next;
      for (int32_t ctx : contexts) {
        ASSIGN_OR_RETURN(std::vector<int32_t> roots, StepRoots(ctx));
        if (step.axis == XPathStep::Axis::kChild) {
          for (int32_t cand : roots) {
            ASSIGN_OR_RETURN(bool match, NodeTagEquals(cand, e, mode));
            if (match) next.insert(cand);
          }
        } else {
          ASSIGN_OR_RETURN(std::vector<int32_t> zeros,
                           PrunedDescend(roots, {e}));
          for (int32_t z : zeros) {
            ASSIGN_OR_RETURN(bool match, NodeTagEquals(z, e, mode));
            if (match) next.insert(z);
          }
        }
      }
      contexts.assign(next.begin(), next.end());
      if (contexts.empty()) break;
    }
    for (int32_t id : contexts) out->insert(id);
    return Status::Ok();
  }

  Status RunAllAtOnce(const XPathQuery& query,
                      const std::vector<uint64_t>& points, VerifyMode mode,
                      int32_t ctx, size_t step_index,
                      std::set<std::pair<int32_t, size_t>>* memo,
                      std::set<int32_t>* out) {
    if (!memo->insert({ctx, step_index}).second) return Status::Ok();
    if (step_index == query.steps().size()) {
      out->insert(ctx);
      return Status::Ok();
    }
    const XPathStep& step = query.steps()[step_index];
    const uint64_t e = points[step_index];

    // Distinct points of the query suffix: every one must vanish on a branch
    // for it to possibly contain a full match ("a single query can find all
    // elements that contain a, b, c, d and e").
    std::vector<uint64_t> suffix_points;
    for (size_t k = step_index; k < points.size(); ++k) {
      if (std::find(suffix_points.begin(), suffix_points.end(), points[k]) ==
          suffix_points.end())
        suffix_points.push_back(points[k]);
    }

    ASSIGN_OR_RETURN(std::vector<int32_t> roots, StepRoots(ctx));

    if (step.axis == XPathStep::Axis::kChild) {
      for (int32_t cand : roots) {
        RETURN_IF_ERROR(EnsureEvals({cand}, suffix_points));
        if (!VanishesAtAll(cand, suffix_points)) continue;
        ASSIGN_OR_RETURN(bool match, NodeTagEquals(cand, e, mode));
        if (match)
          RETURN_IF_ERROR(
              RunAllAtOnce(query, points, mode, cand, step_index + 1, memo, out));
      }
    } else {
      ASSIGN_OR_RETURN(std::vector<int32_t> zeros,
                       PrunedDescend(roots, suffix_points));
      for (int32_t z : zeros) {
        ASSIGN_OR_RETURN(bool match, NodeTagEquals(z, e, mode));
        if (match)
          RETURN_IF_ERROR(
              RunAllAtOnce(query, points, mode, z, step_index + 1, memo, out));
      }
    }
    return Status::Ok();
  }

  ClientContext<Ring>* client_;
  EndpointGroup group_;
  std::vector<SessionRoot> roots_;
  std::unordered_set<int32_t> root_ids_;
  Status init_status_;
  std::vector<char> dead_;  ///< Shamir: endpoints that stopped answering

  QueryStats stats_;
  TransportCounters counters_before_;
  std::unordered_map<int32_t, NodeInfo> info_;
  std::map<std::pair<int32_t, uint64_t>, uint64_t> combined_evals_;
  std::unordered_map<int32_t, Elem> combined_polys_;
  std::unordered_map<int32_t, Scalar> combined_consts_;
  std::unordered_map<int32_t, Elem> client_shares_;
  std::unordered_set<int32_t> visited_;

  // Fetch scheduling (cleared per query): rounds submitted but not yet
  // settled, and per mode (full, const-only) every id ever submitted, so
  // no share is fetched twice.
  std::vector<FetchRound> pending_fetches_;
  std::array<std::unordered_set<int32_t>, 2> requested_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_QUERY_SESSION_H_
