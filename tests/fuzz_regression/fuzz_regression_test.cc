// Replays the checked-in fuzz crash corpus (fuzz/regressions/) through the
// same entry points the libFuzzer harnesses drive, on every toolchain — the
// fuzzers themselves are Clang-only, but a crash must stay fixed everywhere.
// Each input once crashed, hung, or invoked UB; the assertions pin the clean
// behavior that replaced it.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flwor/parser.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "storage/succinct.h"
#include "util/resource_guard.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<fs::path> InputsIn(const std::string& subdir) {
  fs::path dir = fs::path(BLOSSOMTREE_FUZZ_DIR) / "regressions" / subdir;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Mirror of the harness configurations in fuzz/*.cc.
xml::ParseOptions XmlFuzzOptions() {
  xml::ParseOptions options;
  options.max_depth = 512;
  options.max_input_bytes = 1 << 20;
  return options;
}

util::ParseLimits QueryFuzzLimits() {
  util::ParseLimits limits;
  limits.max_depth = 256;
  limits.max_input_bytes = 1 << 20;
  return limits;
}

TEST(FuzzRegressionTest, CorpusIsNonEmpty) {
  EXPECT_FALSE(InputsIn("xml").empty());
  EXPECT_FALSE(InputsIn("xpath").empty());
  EXPECT_FALSE(InputsIn("flwor").empty());
  EXPECT_FALSE(InputsIn("btsx").empty());
}

// Every input must come back with a Status — OK or error — and never crash.
// As in fuzz_xml_parser.cc, every parsed document must encode to a BTSX v2
// image that MapBtsx2 and ValidateBtsx2Deep accept.
TEST(FuzzRegressionTest, ReplayAllXmlInputs) {
  for (const fs::path& p : InputsIn("xml")) {
    SCOPED_TRACE(p.filename().string());
    auto doc = xml::ParseDocument(ReadFile(p), XmlFuzzOptions());
    if (doc.ok()) {
      EXPECT_GE(doc.value()->NumNodes(), 1u);
      auto image = storage::EncodeBtsx2(**doc);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      // MapBtsx2 wants a 16-byte-aligned image base.
      struct alignas(16) Chunk {
        char bytes[16];
      };
      std::vector<Chunk> aligned(image->size() / sizeof(Chunk) + 1);
      std::memcpy(aligned.data(), image->data(), image->size());
      auto view = storage::MapBtsx2(
          std::string_view(aligned.data()->bytes, image->size()));
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      Status deep = storage::ValidateBtsx2Deep(*view);
      EXPECT_TRUE(deep.ok()) << deep.ToString();
    }
  }
}

TEST(FuzzRegressionTest, ReplayAllXpathInputs) {
  for (const fs::path& p : InputsIn("xpath")) {
    SCOPED_TRACE(p.filename().string());
    auto path = xpath::ParsePath(ReadFile(p), /*max_depth=*/256);
    if (path.ok()) {
      EXPECT_FALSE(path.value().ToString().empty());
    }
  }
}

TEST(FuzzRegressionTest, ReplayAllFlworInputs) {
  for (const fs::path& p : InputsIn("flwor")) {
    SCOPED_TRACE(p.filename().string());
    auto expr = flwor::ParseQuery(ReadFile(p), QueryFuzzLimits());
    (void)expr;
  }
}

// Mirror of fuzz_btsx.cc: every input through the BTSX family's decoders.
// Inputs that decode must re-encode stably; v2 images that pass deep
// validation must adopt and serialize; accepted .btsi index images must
// re-encode byte-identically (the decoder pins the canonical layout).
TEST(FuzzRegressionTest, ReplayAllBtsxInputs) {
  for (const fs::path& p : InputsIn("btsx")) {
    SCOPED_TRACE(p.filename().string());
    std::string input = ReadFile(p);
    auto v1 = storage::DecodeSuccinct(input);
    if (v1.ok()) {
      std::string first = xml::Serialize(**v1);
      auto again = storage::DecodeSuccinct(storage::EncodeSuccinct(**v1));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(xml::Serialize(**again), first);
    }
    auto v2 = storage::MapBtsx2(input);
    if (v2.ok() && storage::ValidateBtsx2Deep(*v2).ok()) {
      xml::Document adopted;
      ASSERT_TRUE(adopted.AdoptExternal(v2->ToLayout()).ok());
      EXPECT_FALSE(xml::Serialize(adopted).empty());
    }
    auto idx = index::DecodeBtsi(input);
    if (idx.ok()) {
      auto bytes = index::EncodeBtsi(**idx);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(*bytes, input);
    }
  }
}

// The v1 decoder once accepted arbitrary bytes after the event payloads,
// so a corrupt or concatenated file round-tripped silently as a prefix
// document.
TEST(FuzzRegressionTest, BtsxTrailingGarbageRejected) {
  auto r = storage::DecodeSuccinct(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/btsx/v1_trailing_garbage.btsx"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A 2^64-ish tag count once reached vector::reserve and threw
// std::length_error instead of returning a Status.
TEST(FuzzRegressionTest, BtsxHostileTagCountRejected) {
  auto r = storage::DecodeSuccinct(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/btsx/v1_hostile_tag_count.btsx"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// (num_events + 3) / 4 once overflowed for a 64-bit event count, passing
// the bounds check with a tiny byte length.
TEST(FuzzRegressionTest, BtsxEventCountOverflowRejected) {
  auto r = storage::DecodeSuccinct(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/btsx/v1_event_count_overflow.btsx"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// MapBtsx2 once ignored bytes after the last section, accepting
// concatenated images.
TEST(FuzzRegressionTest, Btsx2TrailingBytesRejected) {
  auto r = storage::MapBtsx2(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/btsx/v2_trailing_bytes.btsx2"));
  EXPECT_FALSE(r.ok());
}

// A stray ']' in the internal subset once drove the bracket counter
// negative, so the following '>' never terminated the DOCTYPE and parsing
// ran off the end of the declaration.
TEST(FuzzRegressionTest, DoctypeStrayBracketParses) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/doctype_stray_bracket.xml"),
      XmlFuzzOptions());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value()->NumNodes(), 1u);
}

// '>' inside a quoted SYSTEM literal once terminated the DOCTYPE early,
// leaving `b">` to be mis-parsed as content before the root element.
TEST(FuzzRegressionTest, DoctypeQuotedGtParses) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/doctype_quoted_gt.xml"),
      XmlFuzzOptions());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value()->NumNodes(), 1u);
}

// The hex character-reference accumulator once overflowed (signed, UB);
// now any code point above 0x10FFFF is rejected as soon as it is exceeded.
TEST(FuzzRegressionTest, HexCharRefOverflowRejected) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/charref_overflow.xml"),
      XmlFuzzOptions());
  EXPECT_FALSE(doc.ok());
}

TEST(FuzzRegressionTest, DeepXmlNestingResourceExhausted) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/deep_nesting.xml"),
      XmlFuzzOptions());
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
}

// Deep mixed content once hit two serializer bugs at once: indentation
// whitespace was injected around every text child of an element that also
// had element children, and the recursive walk burned one stack frame per
// document level. The round trip through indented serialization must
// preserve the document exactly.
TEST(FuzzRegressionTest, DeepMixedContentSerializeRoundTrip) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/deep_mixed_content.xml"),
      XmlFuzzOptions());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  xml::SerializeOptions opts;
  opts.indent = true;
  std::string pretty = xml::Serialize(*doc.value(), opts);
  auto doc2 = xml::ParseDocument(pretty, XmlFuzzOptions());
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
  EXPECT_EQ(xml::Serialize(*doc2.value()), xml::Serialize(*doc.value()));
}

// 100k nested predicates once recursed the parser off the stack.
TEST(FuzzRegressionTest, DeepXpathPredicatesRejected) {
  auto path = xpath::ParsePath(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xpath/deep_predicates.txt"),
      /*max_depth=*/256);
  EXPECT_FALSE(path.ok());
}

// 100k nested parentheses in a where clause once recursed ParseBool /
// ParsePrimary off the stack.
TEST(FuzzRegressionTest, DeepFlworParensRejected) {
  auto expr = flwor::ParseQuery(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/flwor/deep_parens.txt"),
      QueryFuzzLimits());
  EXPECT_FALSE(expr.ok());
}

}  // namespace
}  // namespace blossomtree
