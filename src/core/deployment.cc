#include "core/deployment.h"

namespace polysse {
namespace {

/// Strips a document's share prefix off a session-global path.
std::string LocalPath(const DocRecord& doc, const std::string& path) {
  if (doc.prefix.empty()) return path;
  if (path == doc.prefix) return "";
  return path.substr(doc.prefix.size() + 1);
}

}  // namespace

std::string JoinSharePath(const std::string& prefix,
                          const std::string& path) {
  if (prefix.empty()) return path;
  if (path.empty()) return prefix;
  return prefix + "/" + path;
}

const DocRecord* DocTable::Find(DocId id) const {
  for (const DocRecord& doc : docs_)
    if (doc.id == id) return &doc;
  return nullptr;
}

Result<const DocRecord*> DocTable::Require(DocId id) const {
  const DocRecord* doc = Find(id);
  if (doc == nullptr)
    return Status::NotFound("doc id " + std::to_string(id) +
                            " is not in the collection");
  return doc;
}

const DocRecord* DocTable::FindByNode(int32_t node_id) const {
  // The owner is the last document starting at or below `node_id`, if
  // `node_id` falls inside its range.
  auto it = std::upper_bound(
      docs_.begin(), docs_.end(), node_id,
      [](int32_t id, const DocRecord& doc) { return id < doc.base; });
  if (it == docs_.begin()) return nullptr;
  const DocRecord& owner = *(it - 1);
  if (static_cast<int64_t>(node_id) >= owner.base + owner.size) return nullptr;
  return &owner;
}

void DocTable::Insert(DocRecord doc) {
  auto pos = std::upper_bound(
      docs_.begin(), docs_.end(), doc.base,
      [](int32_t base, const DocRecord& d) { return base < d.base; });
  docs_.insert(pos, std::move(doc));
}

void DocTable::Erase(DocId id) {
  if (const DocRecord* doc = Find(id))
    docs_.erase(docs_.begin() + (doc - docs_.data()));
}

void DocTable::Rebase(DocId id, uint32_t group, int32_t base) {
  const DocRecord* found = Find(id);
  if (found == nullptr) return;
  DocRecord doc = *found;
  Erase(id);
  doc.group = group;
  doc.base = base;
  Insert(std::move(doc));
}

std::vector<DocId> DocTable::ids() const {
  std::vector<DocId> out;
  out.reserve(docs_.size());
  for (const DocRecord& doc : docs_) out.push_back(doc.id);
  return out;
}

size_t DocTable::total_nodes() const {
  size_t sum = 0;
  for (const DocRecord& doc : docs_) sum += static_cast<size_t>(doc.size);
  return sum;
}

Status DocTable::Scatter(const LookupResult& from, const QueryStats& stats,
                         std::map<DocId, LookupResult>* per_doc) const {
  for (const bool possible : {false, true}) {
    for (const MatchedNode& m : possible ? from.possible : from.matches) {
      const DocRecord* doc = FindByNode(m.node_id);
      if (doc == nullptr)
        return Status::Internal("match outside every document's id range");
      LookupResult& out = (*per_doc)[doc->id];
      (possible ? out.possible : out.matches)
          .push_back({m.node_id - doc->base, LocalPath(*doc, m.path)});
    }
  }
  for (auto& [id, result] : *per_doc) result.stats = stats;
  return Status::Ok();
}

}  // namespace polysse
