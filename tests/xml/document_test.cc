#include "xml/document.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace blossomtree {
namespace xml {
namespace {

std::unique_ptr<Document> Parse(std::string_view s) {
  auto r = ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(TagDictionaryTest, InternIsIdempotent) {
  TagDictionary d;
  TagId a = d.Intern("book");
  TagId b = d.Intern("title");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("book"), a);
  EXPECT_EQ(d.Name(a), "book");
  EXPECT_EQ(d.Lookup("title"), b);
  EXPECT_EQ(d.Lookup("nope"), kNullTag);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DocumentTest, BuilderBasicStructure) {
  Document doc;
  NodeId a = doc.BeginElement("a");
  NodeId b = doc.BeginElement("b");
  doc.EndElement();
  NodeId c = doc.BeginElement("c");
  doc.EndElement();
  doc.EndElement();
  ASSERT_TRUE(doc.Finish().ok());

  EXPECT_EQ(doc.Root(), a);
  EXPECT_EQ(doc.FirstChild(a), b);
  EXPECT_EQ(doc.NextSibling(b), c);
  EXPECT_EQ(doc.NextSibling(c), kNullNode);
  EXPECT_EQ(doc.Parent(b), a);
  EXPECT_EQ(doc.Parent(c), a);
  EXPECT_EQ(doc.Parent(a), kNullNode);
}

TEST(DocumentTest, PreorderIdsAreDocumentOrder) {
  auto doc = Parse("<a><b><d/></b><c/></a>");
  // Preorder: a=0, b=1, d=2, c=3.
  EXPECT_EQ(doc->TagName(0), "a");
  EXPECT_EQ(doc->TagName(1), "b");
  EXPECT_EQ(doc->TagName(2), "d");
  EXPECT_EQ(doc->TagName(3), "c");
}

TEST(DocumentTest, SubtreeEndBoundsSubtree) {
  auto doc = Parse("<a><b><d/><e/></b><c/></a>");
  // a=0 b=1 d=2 e=3 c=4
  EXPECT_EQ(doc->SubtreeEnd(0), 4u);
  EXPECT_EQ(doc->SubtreeEnd(1), 3u);
  EXPECT_EQ(doc->SubtreeEnd(2), 2u);
  EXPECT_EQ(doc->SubtreeEnd(4), 4u);
}

TEST(DocumentTest, IsAncestor) {
  auto doc = Parse("<a><b><d/></b><c/></a>");
  EXPECT_TRUE(doc->IsAncestor(0, 1));
  EXPECT_TRUE(doc->IsAncestor(0, 2));
  EXPECT_TRUE(doc->IsAncestor(1, 2));
  EXPECT_FALSE(doc->IsAncestor(1, 3));
  EXPECT_FALSE(doc->IsAncestor(2, 1));
  EXPECT_FALSE(doc->IsAncestor(1, 1));
  EXPECT_TRUE(doc->IsAncestorOrSelf(1, 1));
}

TEST(DocumentTest, Levels) {
  auto doc = Parse("<a><b><d/></b><c/></a>");
  EXPECT_EQ(doc->Level(0), 0u);
  EXPECT_EQ(doc->Level(1), 1u);
  EXPECT_EQ(doc->Level(2), 2u);
  EXPECT_EQ(doc->Level(3), 1u);
}

TEST(DocumentTest, TextAndStringValue) {
  auto doc = Parse("<a><b>hello</b><c>wo<d>r</d>ld</c></a>");
  // a=0 b=1 "hello"=2 c=3 "wo"=4 d=5 "r"=6 "ld"=7
  EXPECT_TRUE(doc->IsElement(1));
  EXPECT_FALSE(doc->IsElement(2));
  EXPECT_EQ(doc->Text(2), "hello");
  EXPECT_EQ(doc->StringValue(1), "hello");
  EXPECT_EQ(doc->StringValue(3), "world");
  EXPECT_EQ(doc->StringValue(0), "helloworld");
}

TEST(DocumentTest, Attributes) {
  auto doc = Parse(R"(<a x="1" y="two"><b z="3"/></a>)");
  auto attrs = doc->Attributes(0);
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0].first, "x");
  EXPECT_EQ(attrs[0].second, "1");
  EXPECT_EQ(attrs[1].first, "y");
  EXPECT_EQ(attrs[1].second, "two");
  std::string_view v;
  EXPECT_TRUE(doc->AttributeValue(1, "z", &v));
  EXPECT_EQ(v, "3");
  EXPECT_FALSE(doc->AttributeValue(1, "w", &v));
  EXPECT_TRUE(doc->Attributes(1).size() == 1);
}

TEST(DocumentTest, TagIndexIsDocumentOrder) {
  auto doc = Parse("<a><b/><c><b/></c><b/></a>");
  TagId b = doc->tags().Lookup("b");
  const auto& idx = doc->TagIndex(b);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_TRUE(idx[0] < idx[1] && idx[1] < idx[2]);
  EXPECT_EQ(doc->TagName(idx[0]), "b");
}

TEST(DocumentTest, TagIndexUnknownTagEmpty) {
  auto doc = Parse("<a/>");
  EXPECT_TRUE(doc->TagIndex(kNullTag).empty());
}

TEST(DocumentTest, StatsNonRecursive) {
  auto doc = Parse("<a><b><d/></b><c/></a>");
  EXPECT_EQ(doc->NumElements(), 4u);
  EXPECT_EQ(doc->MaxDepth(), 3u);  // Root counted as depth 1.
  EXPECT_FALSE(doc->IsRecursive());
  EXPECT_EQ(doc->MaxRecursionDegree(), 1u);
  // Depths: a=1 b=2 d=3 c=2 → avg = 2.
  EXPECT_DOUBLE_EQ(doc->AvgDepth(), 2.0);
}

TEST(DocumentTest, StatsRecursive) {
  auto doc = Parse("<a><a><b><a/></b></a></a>");
  EXPECT_TRUE(doc->IsRecursive());
  EXPECT_EQ(doc->MaxRecursionDegree(), 3u);
}

TEST(DocumentTest, RecursionCountsOnlyAncestry) {
  // Two sibling b's are not recursion.
  auto doc = Parse("<a><b/><b/></a>");
  EXPECT_FALSE(doc->IsRecursive());
}

TEST(DocumentTest, PerTagRecursionDegrees) {
  auto doc = Parse("<r><x><x><a/></x></x><a/><b><b><b/></b></b></r>");
  EXPECT_EQ(doc->TagRecursionDegree(doc->tags().Lookup("x")), 2u);
  EXPECT_EQ(doc->TagRecursionDegree(doc->tags().Lookup("a")), 1u);
  EXPECT_EQ(doc->TagRecursionDegree(doc->tags().Lookup("b")), 3u);
  EXPECT_EQ(doc->TagRecursionDegree(doc->tags().Lookup("r")), 1u);
  EXPECT_EQ(doc->MaxRecursionDegree(), 3u);
}

TEST(DocumentTest, SiblingRank) {
  auto doc = Parse("<r><a/><b/><a/>text<a/></r>");
  // Element nodes: r=0 a=1 b=2 a=3 (text=4) a=5.
  EXPECT_EQ(xml::SiblingRank(*doc, 1, "a"), 1u);
  EXPECT_EQ(xml::SiblingRank(*doc, 3, "a"), 2u);
  EXPECT_EQ(xml::SiblingRank(*doc, 5, "a"), 3u);
  EXPECT_EQ(xml::SiblingRank(*doc, 2, "b"), 1u);
  // Wildcard counts all element siblings.
  EXPECT_EQ(xml::SiblingRank(*doc, 2, "*"), 2u);
  EXPECT_EQ(xml::SiblingRank(*doc, 5, "*"), 4u);
  // The root has rank 1.
  EXPECT_EQ(xml::SiblingRank(*doc, 0, "r"), 1u);
}

TEST(DocumentTest, FinishRejectsAttributeAfterChild) {
  // An element's attributes must come before its children: the attribute
  // owner table is sorted by element with one contiguous range each, so
  // z (added to a after its child b) cannot be expressed, and b's y would
  // otherwise leak into a's range.
  Document doc;
  doc.BeginElement("a");
  doc.AddAttribute("x", "1");
  doc.BeginElement("b");
  doc.AddAttribute("y", "2");
  doc.EndElement();
  doc.AddAttribute("z", "3");
  doc.EndElement();
  Status st = doc.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(doc.generation(), 0u);
}

TEST(DocumentTest, AttributesBeforeChildrenStayWithTheirElement) {
  Document doc;
  NodeId a = doc.BeginElement("a");
  doc.AddAttribute("x", "1");
  NodeId b = doc.BeginElement("b");
  doc.AddAttribute("y", "2");
  doc.AddText("t");
  doc.EndElement();
  doc.EndElement();
  ASSERT_TRUE(doc.Finish().ok());
  auto attrs_a = doc.Attributes(a);
  ASSERT_EQ(attrs_a.size(), 1u);
  EXPECT_EQ(attrs_a[0].first, "x");
  auto attrs_b = doc.Attributes(b);
  ASSERT_EQ(attrs_b.size(), 1u);
  EXPECT_EQ(attrs_b[0].first, "y");
  EXPECT_EQ(doc.Text(b + 1), "t");
}

TEST(DocumentTest, EmptyDocumentAccessors) {
  Document doc;
  EXPECT_TRUE(doc.empty());
  EXPECT_EQ(doc.Root(), kNullNode);
  ASSERT_TRUE(doc.Finish().ok());
  EXPECT_EQ(doc.NumElements(), 0u);
}

}  // namespace
}  // namespace xml
}  // namespace blossomtree
