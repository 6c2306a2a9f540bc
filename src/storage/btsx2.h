#ifndef BLOSSOMTREE_STORAGE_BTSX2_H_
#define BLOSSOMTREE_STORAGE_BTSX2_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/document.h"

namespace blossomtree {
namespace storage {

/// BTSX v2: the out-of-core successor of the v1 succinct encoding
/// (storage/succinct.h). Where v1 persists a *compressed* event stream that
/// must be decoded node-by-node into a fresh Document (O(parse) on open),
/// v2 persists the *decoded paged layout* itself — the fixed-width
/// NodeRecord stream plus every side table the engine reads — so a file
/// can be mmap'd and served directly (O(open)). See DESIGN.md §13.
///
/// Layout (all integers little-endian, fixed width; sections 16-byte
/// aligned so typed pointers into the mapping are well-aligned):
///   header (256 bytes): magic "BTSX2", version, endianness probe,
///     generation stamp (the source document's generation at ingest time),
///     counts + statistics, and a 10-entry section table {offset, bytes}.
///   sections, in file order:
///     0 tag dictionary   u32 length + bytes per name, in TagId order
///     1 node records     num_nodes × 16 B xml::PackedNodeRecord
///     2 parent ids       num_nodes × 4 B
///     3 text spans       num_text_spans × 8 B (offset, length into pool)
///     4 text pool        text-node payloads + attribute strings
///     5 attr owners      num_attr_owners × 12 B, sorted by NodeId
///     6 attrs            num_attrs × 16 B xml::Attribute
///     7 tag recursion    num_tags × 4 B per-tag nesting degree
///     8 tag stream offs  (num_tags + 1) × 8 B prefix offsets
///     9 tag streams      num_elements × 4 B NodeIds, per tag, doc order

inline constexpr char kBtsx2Magic[8] = {'B', 'T', 'S', 'X', '2', 0, 0, 0};
inline constexpr uint32_t kBtsx2Version = 2;
/// Written as 0x01020304 in little-endian byte order: a file produced by a
/// (hypothetical) big-endian writer would read back scrambled and be
/// rejected before any typed pointer is formed.
inline constexpr uint32_t kBtsx2EndianProbe = 0x01020304u;
inline constexpr size_t kBtsx2HeaderBytes = 256;
inline constexpr size_t kBtsx2NumSections = 10;

enum Btsx2Section : size_t {
  kSecTagDict = 0,
  kSecRecords = 1,
  kSecParent = 2,
  kSecTextSpans = 3,
  kSecTextPool = 4,
  kSecAttrOwners = 5,
  kSecAttrs = 6,
  kSecTagRecursion = 7,
  kSecTagStreamOffsets = 8,
  kSecTagStreams = 9,
};

/// \brief A validated, typed view over one BTSX v2 image. The pointers
/// borrow the image bytes; the view is only valid while they stay mapped.
struct Btsx2View {
  uint64_t generation = 0;  ///< Ingest-time document generation stamp.
  uint64_t num_nodes = 0;
  uint64_t num_elements = 0;
  uint64_t num_tags = 0;
  uint64_t num_text_spans = 0;
  uint64_t num_attr_owners = 0;
  uint64_t num_attrs = 0;
  uint32_t max_depth = 0;
  uint32_t max_recursion = 0;
  double avg_depth = 0;

  const xml::PackedNodeRecord* records = nullptr;
  const xml::NodeId* parent = nullptr;
  const xml::TextSpan* text_spans = nullptr;
  const char* text_pool = nullptr;
  uint64_t text_pool_bytes = 0;
  const xml::AttrOwner* attr_owners = nullptr;
  const xml::Attribute* attrs = nullptr;
  const uint32_t* tag_recursion = nullptr;
  const uint64_t* tag_stream_offsets = nullptr;
  const xml::NodeId* tag_streams = nullptr;
  std::vector<std::string> tag_names;

  /// Byte extent of the record section within the image — the block cache's
  /// substrate (DiskStore reads records block-at-a-time through it).
  uint64_t records_offset = 0;
  uint64_t records_bytes = 0;

  /// \brief Borrows this view's arrays as a Document layout
  /// (copies the tag names; everything else stays zero-copy).
  xml::NodeLayout ToLayout() const;
};

/// \brief Serializes a finished document into BTSX v2 bytes. Fails
/// (InvalidArgument) on documents whose text pool or node count exceeds
/// the format's 32-bit offsets, and on unfinished documents.
Result<std::string> EncodeBtsx2(const xml::Document& doc);

/// \brief Writes the BTSX v2 encoding to `path` (the `btingest` backend).
Status WriteBtsx2(const xml::Document& doc, const std::string& path);

/// \brief Parses and *structurally* validates a BTSX v2 image: header
/// fields, exact section sizes and bounds, alignment, the tag dictionary,
/// and tag-stream offset monotonicity — O(header + #tags), which is what
/// keeps opening O(open). Does NOT prove the node arrays are internally
/// consistent; run ValidateBtsx2Deep before trusting an untrusted file.
Result<Btsx2View> MapBtsx2(std::string_view image);

/// \brief Full O(n) consistency check of a mapped view: record extents
/// properly nested with consistent levels and parents, text refs/spans in
/// bounds, attribute tables contiguous and sorted, per-tag streams sorted
/// and exhaustive, statistics consistent. Everything AdoptExternal's
/// zero-copy accessors rely on.
Status ValidateBtsx2Deep(const Btsx2View& view);

}  // namespace storage
}  // namespace blossomtree

#endif  // BLOSSOMTREE_STORAGE_BTSX2_H_
