#ifndef BLOSSOMTREE_XML_DOCUMENT_H_
#define BLOSSOMTREE_XML_DOCUMENT_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace blossomtree {
namespace xml {

/// \brief Index of a node inside a Document. Node ids are assigned in
/// *document (preorder) order*, so `a < b` iff node a precedes node b in
/// document order — the `<<` operator of XPath is integer comparison.
using NodeId = uint32_t;

/// \brief Interned tag-name identifier (see TagDictionary).
using TagId = uint32_t;

constexpr NodeId kNullNode = static_cast<NodeId>(-1);
constexpr TagId kNullTag = static_cast<TagId>(-1);

/// \brief Kind of a tree node. Attributes are stored out-of-band on their
/// owning element, not as tree nodes, matching the region-encoding papers.
enum class NodeKind : uint8_t {
  kElement = 0,
  kText = 1,
};

/// \brief Bidirectional map between tag names and dense TagIds.
class TagDictionary {
 public:
  /// \brief Returns the id for `name`, interning it if new.
  TagId Intern(std::string_view name);

  /// \brief Returns the id for `name`, or kNullTag if never interned.
  TagId Lookup(std::string_view name) const;

  /// \brief Returns the name for a valid id.
  const std::string& Name(TagId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId> ids_;
};

/// \brief One attribute of an element: both strings live in the document's
/// text pool.
struct Attribute {
  uint32_t name_offset;
  uint32_t name_len;
  uint32_t value_offset;
  uint32_t value_len;
};

/// \brief One fixed-width node record of the document layout (the form the
/// BTSX v2 file persists; see DESIGN.md §13): everything the structural
/// accessors need, 16 bytes per node in document order. First-child /
/// next-sibling are derived from subtree extents, so no tree pointers are
/// stored.
struct PackedNodeRecord {
  TagId tag;           ///< kNullTag for text nodes.
  NodeId subtree_end;  ///< Largest NodeId in this node's subtree.
  uint32_t level;      ///< Depth (root = 0).
  uint32_t text_ref;   ///< Text-span index for text nodes, else UINT32_MAX.
};
static_assert(sizeof(PackedNodeRecord) == 16, "on-disk record is 16 bytes");
static_assert(std::is_trivially_copyable_v<PackedNodeRecord>,
              "records are memcpy'd out of mapped files");

/// \brief (offset, length) of one text node's payload in the text pool; one
/// entry per text node, indexed by PackedNodeRecord::text_ref.
struct TextSpan {
  uint32_t offset;
  uint32_t length;
};
static_assert(sizeof(TextSpan) == 8, "on-disk text span is 8 bytes");

/// \brief Attribute ownership: element `node` owns attrs [first, last).
/// Sorted by `node` for binary search.
struct AttrOwner {
  NodeId node;
  uint32_t first;
  uint32_t last;
};
static_assert(sizeof(AttrOwner) == 12, "on-disk owner is 12 bytes");

/// \brief The one node layout of a Document — the arrays a BTSX v2 image
/// persists, section for section. A built document points it at arrays it
/// owns; an adopted one at a (typically mmap'd) image, whose bytes must
/// outlive the Document (storage::DiskStore owns both).
///
/// AdoptExternal trusts these arrays to be internally consistent (record
/// extents nested, spans inside the pool, streams sorted); callers mapping
/// untrusted bytes must run storage::ValidateBtsx2Deep first.
struct NodeLayout {
  size_t num_nodes = 0;
  const PackedNodeRecord* records = nullptr;  ///< num_nodes entries.
  const NodeId* parent = nullptr;             ///< num_nodes entries.
  const TextSpan* text_spans = nullptr;
  size_t num_text_spans = 0;
  const char* text_pool = nullptr;
  size_t text_pool_bytes = 0;
  const AttrOwner* attr_owners = nullptr;  ///< Sorted by node.
  size_t num_attr_owners = 0;
  const Attribute* attrs = nullptr;
  size_t num_attrs = 0;
  const uint32_t* tag_recursion = nullptr;       ///< One per tag.
  const uint64_t* tag_stream_offsets = nullptr;  ///< tag count + 1 entries.
  const NodeId* tag_streams = nullptr;           ///< num_elements entries.
  /// Tag dictionary in TagId order (interned on adopt).
  std::vector<std::string> tag_names;
  /// Precomputed statistics (stored in the file; kept by the builder).
  size_t num_elements = 0;
  uint32_t max_depth = 0;
  double avg_depth = 0;
  uint32_t max_recursion = 0;
};

/// \brief An XML document: one NodeLayout of packed node records and side
/// tables.
///
/// Each node carries:
///  - its tag id (elements) or text payload (text nodes),
///  - its parent,
///  - its region label: `start` = its own NodeId (preorder rank),
///    `end` = the largest NodeId in its subtree, `level` = depth from the
///    root (root is level 0).
///
/// Region labels make the classic structural predicates O(1):
///  - `IsAncestor(a, d)`  ⇔  a < d && d <= end(a)
///  - document order      ⇔  NodeId comparison
///
/// Documents come into existence one of two ways:
///  - *built* in document order via BeginElement/AddText/EndElement (the
///    parser and the data generators) and frozen by Finish(), or
///  - *adopted* from an external BTSX v2 image via AdoptExternal(), so
///    opening is O(open), not O(parse).
/// The two differ only in who owns the layout's arrays: every accessor
/// reads the same layout, which is valid once Finish() or AdoptExternal()
/// returned. Either way the document is immutable afterwards.
class Document {
 public:
  Document() = default;

  // -- Construction (document order) ----------------------------------------

  /// \brief Opens a new element with tag `name`; returns its NodeId.
  NodeId BeginElement(std::string_view name);

  /// \brief Adds an attribute to the most recently opened element, which
  /// must not have children yet (Finish() rejects the document otherwise).
  void AddAttribute(std::string_view name, std::string_view value);

  /// \brief Adds a text node under the currently open element.
  NodeId AddText(std::string_view text);

  /// \brief Closes the most recently opened element.
  void EndElement();

  /// \brief Verifies the builder stack is empty and every attribute came
  /// before its element's children, then freezes the layout. O(#tags): the
  /// statistics are kept as nodes are added. Also stamps the document's
  /// generation (below).
  Status Finish();

  /// \brief Adopts an external (disk-resident) image instead of building:
  /// the document becomes a zero-copy view over `layout`'s arrays, which
  /// must stay alive and unchanged for this object's lifetime. Only valid
  /// on a fresh Document (nothing built, not finished). Stamps a fresh
  /// process generation — reopening the same file twice yields two
  /// generations, exactly like re-parsing the same bytes does.
  Status AdoptExternal(NodeLayout layout);

  /// \brief True when backed by an adopted external image.
  bool external() const { return external_; }

  /// \brief Process-unique generation stamp, assigned by Finish() (or
  /// AdoptExternal()) from a monotonically increasing process-wide counter
  /// starting at 1; 0 means "not finished". Two Document objects never
  /// share a generation, so (generation, node range) is a stable identity
  /// for cached NoK scan results (DESIGN.md §11): rebuilding or reloading a
  /// document — even from identical bytes — yields a fresh generation and
  /// thereby invalidates every cached result keyed to the old one.
  uint64_t generation() const { return generation_; }

  // -- Structure accessors ---------------------------------------------------

  size_t NumNodes() const { return layout_.num_nodes; }
  bool empty() const { return NumNodes() == 0; }

  /// \brief The document root element (first node), or kNullNode if empty.
  NodeId Root() const { return empty() ? kNullNode : 0; }

  NodeKind Kind(NodeId n) const {
    return Tag(n) == kNullTag ? NodeKind::kText : NodeKind::kElement;
  }
  bool IsElement(NodeId n) const { return Kind(n) == NodeKind::kElement; }

  /// \brief Tag id of an element node; kNullTag for text nodes.
  TagId Tag(NodeId n) const { return layout_.records[n].tag; }

  /// \brief Tag name of an element node.
  const std::string& TagName(NodeId n) const { return tags_.Name(Tag(n)); }

  NodeId Parent(NodeId n) const { return layout_.parent[n]; }

  /// \brief First child in document order, derived from the subtree extent
  /// (the paper's succinct-navigation identity: a non-leaf's first child is
  /// the next node in preorder).
  NodeId FirstChild(NodeId n) const {
    return layout_.records[n].subtree_end > n ? n + 1 : kNullNode;
  }

  /// \brief Next sibling in document order: the node just past this
  /// subtree, iff it sits at the same level.
  NodeId NextSibling(NodeId n) const {
    NodeId next = layout_.records[n].subtree_end + 1;
    if (next >= layout_.num_nodes) return kNullNode;
    return layout_.records[next].level == layout_.records[n].level
               ? next
               : kNullNode;
  }

  /// \brief Largest NodeId inside n's subtree (n itself if leaf).
  NodeId SubtreeEnd(NodeId n) const { return layout_.records[n].subtree_end; }

  /// \brief Depth of n; the root has level 0.
  uint32_t Level(NodeId n) const { return layout_.records[n].level; }

  /// \brief True iff `anc` is a proper ancestor of `desc`.
  bool IsAncestor(NodeId anc, NodeId desc) const {
    return anc < desc && desc <= SubtreeEnd(anc);
  }

  /// \brief True iff `anc` is `desc` or a proper ancestor of it.
  bool IsAncestorOrSelf(NodeId anc, NodeId desc) const {
    return anc <= desc && desc <= SubtreeEnd(anc);
  }

  /// \brief Text payload of a text node.
  std::string_view Text(NodeId n) const;

  /// \brief Concatenation of all descendant text (XPath string-value).
  std::string StringValue(NodeId n) const;

  /// \brief Attributes of an element, as (name, value) views.
  std::vector<std::pair<std::string_view, std::string_view>> Attributes(
      NodeId n) const;

  /// \brief Value of attribute `name` on element `n`; empty view + false if
  /// absent.
  bool AttributeValue(NodeId n, std::string_view name,
                      std::string_view* value) const;

  const TagDictionary& tags() const { return tags_; }

  /// \brief The record stream in document order — the input of the
  /// exec::FilterTagEqRecords scan kernel and of storage::PageStore.
  std::span<const PackedNodeRecord> Records() const {
    return {layout_.records, layout_.num_nodes};
  }

  /// \brief The whole layout, per-tag streams included — what
  /// storage::EncodeBtsx2 writes section for section.
  const NodeLayout& Layout() const;

  /// \brief All element nodes with tag id `t`, in document order.
  ///
  /// This is the "tag-name index" required by the join-based approaches
  /// (TwigStack, structural merge join). An adopted document views the
  /// per-tag streams persisted in its image; a built one builds them on
  /// first use, at most once (std::call_once), so concurrent queries over
  /// one shared document — the service::Corpus regime — may all call this
  /// without external locking.
  std::span<const NodeId> TagIndex(TagId t) const;

  // -- Statistics (valid after Finish) ---------------------------------------

  /// \brief Number of element nodes.
  size_t NumElements() const { return layout_.num_elements; }
  /// \brief Maximum element depth (root = 1), matching Table 1's convention.
  uint32_t MaxDepth() const { return layout_.max_depth; }
  /// \brief Average element depth.
  double AvgDepth() const { return layout_.avg_depth; }
  /// \brief Maximum same-tag nesting degree over all tags: 1 means
  /// non-recursive (no element is a descendant of a same-tag element).
  uint32_t MaxRecursionDegree() const { return layout_.max_recursion; }
  /// \brief True iff some element has a same-tag proper ancestor.
  bool IsRecursive() const { return MaxRecursionDegree() > 1; }
  /// \brief Per-tag nesting degree: 1 = elements of this tag never nest.
  /// The optimizer's fine-grained rule uses this — pipelined //-joins are
  /// order-preserving whenever the *outer* tag does not nest, even if the
  /// document is recursive elsewhere.
  uint32_t TagRecursionDegree(TagId t) const {
    return t < tags_.size() ? layout_.tag_recursion[t] : 0;
  }
  /// \brief Size of the structural arrays (records and parents) in bytes.
  size_t StructureBytes() const {
    return NumNodes() * (sizeof(PackedNodeRecord) + sizeof(NodeId));
  }
  /// \brief Total bytes of the text pool (text payloads and attributes).
  size_t TextBytes() const { return layout_.text_pool_bytes; }

 private:
  /// Appends one record under the open element; returns its NodeId.
  NodeId AppendNode(TagId tag, uint32_t text_ref);

  /// Builds a built document's per-tag streams, once.
  void BindTagStreams() const;

  /// Binary-searches the attr-owner table; nullptr when `n` owns no
  /// attributes.
  const AttrOwner* FindAttrs(NodeId n) const;

  TagDictionary tags_;

  // The layout every accessor reads. Mutable only so BindTagStreams() can
  // point it at the lazily built per-tag streams (under tag_streams_once_).
  mutable NodeLayout layout_;
  bool external_ = false;

  // The arrays a built document owns (empty for an adopted one); Finish()
  // points layout_ at them.
  std::vector<PackedNodeRecord> records_;
  std::vector<NodeId> parent_;
  std::vector<TextSpan> text_spans_;
  std::string text_pool_;
  std::vector<AttrOwner> attr_owners_;
  std::vector<Attribute> attrs_;
  std::vector<uint32_t> tag_recursion_;
  mutable std::vector<uint64_t> tag_stream_offsets_;
  mutable std::vector<NodeId> tag_streams_;
  // The call_once makes Document non-copyable, which it semantically always
  // was: nothing may copy a finished document's identity/generation.
  mutable std::once_flag tag_streams_once_;

  // Builder state: the open elements, each tag's open count (its nesting
  // degree so far), the element depth sum, and a misplaced-attribute flag.
  std::vector<NodeId> open_stack_;
  std::vector<uint32_t> open_per_tag_;
  uint64_t depth_sum_ = 0;
  bool attr_after_child_ = false;

  uint64_t generation_ = 0;  ///< Stamped by Finish(); 0 = unfinished.
};

/// \brief 1-based rank of element `n` among its parent's element children
/// that match `tag` ("*" = any element) — the counting positional
/// predicates use (`//book[2]` selects each parent's second book child).
/// The document root has rank 1.
uint32_t SiblingRank(const Document& doc, NodeId n, std::string_view tag);

}  // namespace xml
}  // namespace blossomtree

#endif  // BLOSSOMTREE_XML_DOCUMENT_H_
