// A built Document holds the BTSX v2 arrays themselves (DESIGN.md §13):
// every array of its layout must equal the same section of its own
// encoding, that encoding must pass the untrusted-file validator, and an
// adopted image must re-encode to the same bytes but for the generation.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/datagen.h"
#include "storage/btsx2.h"
#include "xml/parser.h"

namespace blossomtree {
namespace storage {
namespace {

/// Header byte offset of the generation stamp (after magic, version and
/// endianness probe).
constexpr size_t kGenerationOffset = 16;

/// A 16-byte-aligned copy of an image, as MapBtsx2 requires.
struct AlignedImage {
  struct alignas(16) Chunk {
    char bytes[16];
  };
  explicit AlignedImage(const std::string& image)
      : chunks(image.size() / sizeof(Chunk) + 1), size(image.size()) {
    std::memcpy(chunks.data(), image.data(), image.size());
  }
  std::string_view view() const { return {chunks.data()->bytes, size}; }
  std::vector<Chunk> chunks;
  size_t size;
};

template <typename T>
void ExpectSameArray(const T* built, const T* mapped, size_t n,
                     const char* what) {
  SCOPED_TRACE(what);
  if (n == 0) return;
  ASSERT_NE(built, nullptr);
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(std::memcmp(built, mapped, n * sizeof(T)), 0);
}

void ExpectLayoutIdentity(const xml::Document& doc) {
  Result<std::string> encoded = EncodeBtsx2(doc);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  AlignedImage image(*encoded);
  Result<Btsx2View> view = MapBtsx2(image.view());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Status deep = ValidateBtsx2Deep(*view);
  ASSERT_TRUE(deep.ok()) << deep.ToString();

  const xml::NodeLayout& l = doc.Layout();
  const size_t num_tags = doc.tags().size();
  ASSERT_EQ(view->num_nodes, l.num_nodes);
  ASSERT_EQ(view->num_elements, l.num_elements);
  ASSERT_EQ(view->num_tags, num_tags);
  ASSERT_EQ(view->num_text_spans, l.num_text_spans);
  ASSERT_EQ(view->num_attr_owners, l.num_attr_owners);
  ASSERT_EQ(view->num_attrs, l.num_attrs);
  ASSERT_EQ(view->text_pool_bytes, l.text_pool_bytes);
  EXPECT_EQ(view->max_depth, l.max_depth);
  EXPECT_EQ(view->max_recursion, l.max_recursion);
  EXPECT_EQ(view->avg_depth, l.avg_depth);
  for (xml::TagId t = 0; t < num_tags; ++t) {
    EXPECT_EQ(view->tag_names[t], doc.tags().Name(t));
  }
  ExpectSameArray(l.records, view->records, l.num_nodes, "records");
  ExpectSameArray(l.parent, view->parent, l.num_nodes, "parent");
  ExpectSameArray(l.text_spans, view->text_spans, l.num_text_spans,
                  "text spans");
  ExpectSameArray(l.text_pool, view->text_pool, l.text_pool_bytes,
                  "text pool");
  ExpectSameArray(l.attr_owners, view->attr_owners, l.num_attr_owners,
                  "attr owners");
  ExpectSameArray(l.attrs, view->attrs, l.num_attrs, "attrs");
  ExpectSameArray(l.tag_recursion, view->tag_recursion, num_tags,
                  "tag recursion");
  ExpectSameArray(l.tag_stream_offsets, view->tag_stream_offsets,
                  num_tags + 1, "tag stream offsets");
  ExpectSameArray(l.tag_streams, view->tag_streams, l.num_elements,
                  "tag streams");

  // Re-encoding the adopted image gives the same bytes; only the header's
  // generation stamp (the adopting document's own) differs.
  xml::Document adopted;
  ASSERT_TRUE(adopted.AdoptExternal(view->ToLayout()).ok());
  Result<std::string> again = EncodeBtsx2(adopted);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->size(), encoded->size());
  EXPECT_NE(std::memcmp(again->data() + kGenerationOffset,
                        encoded->data() + kGenerationOffset, 8),
            0);
  std::string expected = *encoded;
  std::memcpy(expected.data() + kGenerationOffset,
              again->data() + kGenerationOffset, 8);
  EXPECT_TRUE(*again == expected);
}

TEST(LayoutIdentityTest, GeneratedDatasets) {
  datagen::GenOptions options;
  options.scale = 0.02;
  options.seed = 7;
  for (datagen::Dataset ds : datagen::AllDatasets()) {
    SCOPED_TRACE(datagen::DatasetName(ds));
    auto doc = datagen::GenerateDataset(ds, options);
    ExpectLayoutIdentity(*doc);
  }
}

TEST(LayoutIdentityTest, ParsedDocumentWithAttributesAndMixedText) {
  auto doc = xml::ParseDocument(
      R"(<lib id="l1" xmlns:x="urn:x">intro<book year="2005" lang="en">)"
      R"(<title>Blossom <i>Tree</i> paper</title>tail</book>)"
      R"(<book><title x:k="v">Second</title><empty a="" b="2"/></book>)"
      R"(<lib id="nested">deep<book year="1999"/></lib>end</lib>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_GT((*doc)->Layout().num_attrs, 0u);
  ExpectLayoutIdentity(**doc);
}

}  // namespace
}  // namespace storage
}  // namespace blossomtree
