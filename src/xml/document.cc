#include "xml/document.h"

#include <algorithm>
#include <atomic>

namespace blossomtree {
namespace xml {

namespace {

/// Process-wide generation counter shared by Finish() and AdoptExternal():
/// never reused, so every finished/adopted document has a distinct cache
/// identity (DESIGN.md §11).
uint64_t NextGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// PackedNodeRecord::text_ref of an element.
constexpr uint32_t kNullTextRef = static_cast<uint32_t>(-1);

}  // namespace

TagId TagDictionary::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  TagId id = static_cast<TagId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

TagId TagDictionary::Lookup(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kNullTag : it->second;
}

NodeId Document::AppendNode(TagId tag, uint32_t text_ref) {
  NodeId id = static_cast<NodeId>(records_.size());
  records_.push_back({tag, id, static_cast<uint32_t>(open_stack_.size()),
                      text_ref});
  parent_.push_back(open_stack_.empty() ? kNullNode : open_stack_.back());
  return id;
}

NodeId Document::BeginElement(std::string_view name) {
  TagId tag = tags_.Intern(name);
  NodeId id = AppendNode(tag, kNullTextRef);
  // Statistics are kept as the document grows, so Finish() needs no pass
  // over the nodes: the open count of a tag is its nesting degree here.
  if (tag >= open_per_tag_.size()) {
    open_per_tag_.resize(tag + 1, 0);
    tag_recursion_.resize(tag + 1, 0);
  }
  uint32_t degree = ++open_per_tag_[tag];
  tag_recursion_[tag] = std::max(tag_recursion_[tag], degree);
  layout_.max_recursion = std::max(layout_.max_recursion, degree);
  uint32_t depth = records_.back().level + 1;  // Table 1: root is depth 1.
  depth_sum_ += depth;
  layout_.max_depth = std::max(layout_.max_depth, depth);
  ++layout_.num_elements;
  open_stack_.push_back(id);
  return id;
}

void Document::AddAttribute(std::string_view name, std::string_view value) {
  NodeId owner = open_stack_.back();
  // The owner table is sorted and each owner's attributes are contiguous,
  // which holds only if attributes come before any child of their element.
  if (owner + 1 != records_.size()) {
    attr_after_child_ = true;
    return;
  }
  uint32_t name_off = static_cast<uint32_t>(text_pool_.size());
  text_pool_.append(name);
  uint32_t value_off = static_cast<uint32_t>(text_pool_.size());
  text_pool_.append(value);
  attrs_.push_back({name_off, static_cast<uint32_t>(name.size()), value_off,
                    static_cast<uint32_t>(value.size())});
  uint32_t last = static_cast<uint32_t>(attrs_.size());
  if (attr_owners_.empty() || attr_owners_.back().node != owner) {
    attr_owners_.push_back({owner, last - 1, last});
  } else {
    attr_owners_.back().last = last;
  }
}

NodeId Document::AddText(std::string_view text) {
  NodeId id = AppendNode(kNullTag, static_cast<uint32_t>(text_spans_.size()));
  text_spans_.push_back({static_cast<uint32_t>(text_pool_.size()),
                         static_cast<uint32_t>(text.size())});
  text_pool_.append(text);
  return id;
}

void Document::EndElement() {
  NodeId id = open_stack_.back();
  open_stack_.pop_back();
  records_[id].subtree_end = static_cast<NodeId>(records_.size() - 1);
  --open_per_tag_[records_[id].tag];
}

Status Document::Finish() {
  if (!open_stack_.empty()) {
    return Status::Internal("Document::Finish with unclosed elements");
  }
  if (attr_after_child_) {
    return Status::InvalidArgument(
        "Document::Finish: attribute added after a child of its element");
  }
  tag_recursion_.resize(tags_.size(), 0);
  layout_.num_nodes = records_.size();
  layout_.records = records_.data();
  layout_.parent = parent_.data();
  layout_.text_spans = text_spans_.data();
  layout_.num_text_spans = text_spans_.size();
  layout_.text_pool = text_pool_.data();
  layout_.text_pool_bytes = text_pool_.size();
  layout_.attr_owners = attr_owners_.data();
  layout_.num_attr_owners = attr_owners_.size();
  layout_.attrs = attrs_.data();
  layout_.num_attrs = attrs_.size();
  layout_.tag_recursion = tag_recursion_.data();
  layout_.avg_depth =
      layout_.num_elements == 0
          ? 0.0
          : static_cast<double>(depth_sum_) / layout_.num_elements;
  // Process-wide, never reused: identical bytes re-parsed into a new
  // Document get a new generation, which is what invalidates NoK result
  // cache entries keyed to the old object (DESIGN.md §11).
  generation_ = NextGeneration();
  return Status::OK();
}

Status Document::AdoptExternal(NodeLayout layout) {
  if (!records_.empty() || generation_ != 0) {
    return Status::Internal("AdoptExternal on a non-empty document");
  }
  if (layout.num_nodes > 0 &&
      (layout.records == nullptr || layout.parent == nullptr)) {
    return Status::InvalidArgument("AdoptExternal: missing node arrays");
  }
  if (!layout.tag_names.empty() &&
      (layout.tag_stream_offsets == nullptr ||
       layout.tag_recursion == nullptr)) {
    return Status::InvalidArgument("AdoptExternal: missing per-tag arrays");
  }
  if (layout.num_text_spans > 0 && layout.text_spans == nullptr) {
    return Status::InvalidArgument("AdoptExternal: missing text spans");
  }
  if ((layout.num_attrs > 0 && layout.attrs == nullptr) ||
      (layout.num_attr_owners > 0 && layout.attr_owners == nullptr)) {
    return Status::InvalidArgument("AdoptExternal: missing attribute arrays");
  }
  // Intern the persisted dictionary in TagId order, so on-disk TagIds and
  // in-memory TagIds coincide and the per-tag streams index directly.
  for (const std::string& name : layout.tag_names) tags_.Intern(name);
  if (tags_.size() != layout.tag_names.size()) {
    return Status::InvalidArgument(
        "AdoptExternal: duplicate names in tag dictionary");
  }
  layout_ = std::move(layout);
  // Names now live in tags_; keep the layout copy from doubling memory.
  layout_.tag_names.clear();
  layout_.tag_names.shrink_to_fit();
  external_ = true;
  generation_ = NextGeneration();
  return Status::OK();
}

std::string_view Document::Text(NodeId n) const {
  uint32_t ref = layout_.records[n].text_ref;
  if (ref == kNullTextRef) return {};
  const TextSpan& span = layout_.text_spans[ref];
  return std::string_view(layout_.text_pool + span.offset, span.length);
}

std::string Document::StringValue(NodeId n) const {
  if (Kind(n) == NodeKind::kText) return std::string(Text(n));
  std::string out;
  NodeId end = SubtreeEnd(n);
  for (NodeId i = n; i <= end; ++i) {
    if (Kind(i) == NodeKind::kText) {
      auto t = Text(i);
      out.append(t.data(), t.size());
    }
  }
  return out;
}

const AttrOwner* Document::FindAttrs(NodeId n) const {
  const AttrOwner* begin = layout_.attr_owners;
  const AttrOwner* end = begin + layout_.num_attr_owners;
  const AttrOwner* it = std::lower_bound(
      begin, end, n,
      [](const AttrOwner& o, NodeId node) { return o.node < node; });
  return (it != end && it->node == n) ? it : nullptr;
}

std::vector<std::pair<std::string_view, std::string_view>>
Document::Attributes(NodeId n) const {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  const AttrOwner* owner = FindAttrs(n);
  if (owner == nullptr) return out;
  std::string_view pool(layout_.text_pool, layout_.text_pool_bytes);
  for (uint32_t i = owner->first; i < owner->last; ++i) {
    const Attribute& a = layout_.attrs[i];
    out.emplace_back(pool.substr(a.name_offset, a.name_len),
                     pool.substr(a.value_offset, a.value_len));
  }
  return out;
}

bool Document::AttributeValue(NodeId n, std::string_view name,
                              std::string_view* value) const {
  const AttrOwner* owner = FindAttrs(n);
  if (owner == nullptr) return false;
  std::string_view pool(layout_.text_pool, layout_.text_pool_bytes);
  for (uint32_t i = owner->first; i < owner->last; ++i) {
    const Attribute& a = layout_.attrs[i];
    if (pool.substr(a.name_offset, a.name_len) == name) {
      *value = pool.substr(a.value_offset, a.value_len);
      return true;
    }
  }
  return false;
}

void Document::BindTagStreams() const {
  // At most once even under concurrent callers: documents are shared
  // read-only across a service's concurrent queries. An adopted image
  // already carries its streams; a built document counting-sorts its
  // elements by tag on first use, so Finish() stays O(#tags).
  std::call_once(tag_streams_once_, [this] {
    if (layout_.tag_stream_offsets != nullptr) return;
    tag_stream_offsets_.assign(tags_.size() + 1, 0);
    for (const PackedNodeRecord& r : Records()) {
      if (r.tag != kNullTag) ++tag_stream_offsets_[r.tag + 1];
    }
    for (size_t t = 0; t < tags_.size(); ++t) {
      tag_stream_offsets_[t + 1] += tag_stream_offsets_[t];
    }
    tag_streams_.resize(static_cast<size_t>(tag_stream_offsets_.back()));
    std::vector<uint64_t> next(tag_stream_offsets_.begin(),
                               tag_stream_offsets_.end() - 1);
    for (NodeId n = 0; n < NumNodes(); ++n) {
      TagId t = Tag(n);
      if (t != kNullTag) tag_streams_[next[t]++] = n;
    }
    layout_.tag_stream_offsets = tag_stream_offsets_.data();
    layout_.tag_streams = tag_streams_.data();
  });
}

const NodeLayout& Document::Layout() const {
  BindTagStreams();
  return layout_;
}

std::span<const NodeId> Document::TagIndex(TagId t) const {
  BindTagStreams();
  if (t == kNullTag || t >= tags_.size()) return {};
  uint64_t begin = layout_.tag_stream_offsets[t];
  uint64_t end = layout_.tag_stream_offsets[t + 1];
  return {layout_.tag_streams + begin, static_cast<size_t>(end - begin)};
}

uint32_t SiblingRank(const Document& doc, NodeId n, std::string_view tag) {
  NodeId parent = doc.Parent(n);
  if (parent == kNullNode) return 1;
  uint32_t rank = 0;
  for (NodeId c = doc.FirstChild(parent); c != kNullNode;
       c = doc.NextSibling(c)) {
    if (!doc.IsElement(c)) continue;
    if (tag == "*" || doc.TagName(c) == tag) ++rank;
    if (c == n) return rank;
  }
  return rank;
}

}  // namespace xml
}  // namespace blossomtree
