// Parity of the SIMD inner-loop kernels (DESIGN.md §16) with their scalar
// references: FilterTagEqRecords must emit the identical candidate list
// under every backend, on every alignment (including deliberately
// misaligned record buffers), and CountLessEq must agree with
// std::upper_bound on arbitrary sorted inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "exec/kernels.h"
#include "util/rng.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {
namespace {

/// The trivially-correct reference the kernels must reproduce exactly.
std::vector<xml::NodeId> ReferenceFilter(const std::vector<xml::TagId>& tags,
                                         xml::TagId target,
                                         xml::NodeId base) {
  std::vector<xml::NodeId> out;
  for (size_t i = 0; i < tags.size(); ++i) {
    if (tags[i] == target) out.push_back(base + static_cast<xml::NodeId>(i));
  }
  return out;
}

std::vector<xml::TagId> RandomTags(Rng* rng, size_t n, uint32_t alphabet) {
  std::vector<xml::TagId> tags(n);
  for (auto& t : tags) {
    // Mix in kNullTag so text-node records appear in the stream.
    t = rng->Uniform(alphabet + 1) == alphabet
            ? xml::kNullTag
            : static_cast<xml::TagId>(rng->Uniform(alphabet));
  }
  return tags;
}

/// Records carrying `tags`, with arbitrary other fields: the kernel must
/// read the tag lane only.
std::vector<xml::PackedNodeRecord> Records(
    Rng* rng, const std::vector<xml::TagId>& tags) {
  std::vector<xml::PackedNodeRecord> recs(tags.size());
  for (size_t i = 0; i < tags.size(); ++i) {
    recs[i].tag = tags[i];
    recs[i].subtree_end = static_cast<xml::NodeId>(i);
    recs[i].level = static_cast<uint32_t>(rng->Uniform(32));
    recs[i].text_ref = UINT32_MAX;
  }
  return recs;
}

TEST(KernelsTest, BackendSelection) {
  // allow_simd=false always pins the scalar reference, whatever the build.
  EXPECT_EQ(EffectiveKernelBackend(false), KernelBackend::kScalar);
  if (!ForceScalarKernels()) {
    EXPECT_EQ(EffectiveKernelBackend(true), CompiledKernelBackend());
  } else {
    EXPECT_EQ(EffectiveKernelBackend(true), KernelBackend::kScalar);
  }
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
}

TEST(KernelsTest, FilterTagEqRecordsMatchesReferenceAtEveryLength) {
  Rng rng(41);
  // Lengths straddle every vector-width boundary: 0..4 lanes plus tails.
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u,
                   64u, 100u, 511u, 512u, 513u, 4096u}) {
    std::vector<xml::TagId> tags = RandomTags(&rng, n, 5);
    std::vector<xml::PackedNodeRecord> recs = Records(&rng, tags);
    for (xml::TagId target : {xml::TagId{0}, xml::TagId{3}, xml::kNullTag,
                              xml::TagId{999}}) {
      std::vector<xml::NodeId> expected = ReferenceFilter(tags, target, 10);
      for (bool simd : {false, true}) {
        std::vector<xml::NodeId> got;
        FilterTagEqRecords(recs.data(), n, target, 10, simd, &got);
        EXPECT_EQ(got, expected) << "n=" << n << " target=" << target
                                 << " simd=" << simd;
      }
    }
  }
}

TEST(KernelsTest, FilterTagEqRecordsAppendsWithoutClearing) {
  Rng rng(43);
  std::vector<xml::PackedNodeRecord> recs = Records(&rng, {1, 2, 1});
  std::vector<xml::NodeId> got = {777};
  FilterTagEqRecords(recs.data(), recs.size(), 1, 0, true, &got);
  EXPECT_EQ(got, (std::vector<xml::NodeId>{777, 0, 2}));
}

TEST(KernelsTest, FilterTagEqRecordsHandlesMisalignedBuffers) {
  // The record kernel must use unaligned loads only: feed it a stream at
  // every byte offset 1..15 off natural alignment (UBSan-clean by
  // construction — satellite (c)'s kernel half).
  Rng rng(47);
  constexpr size_t kN = 257;
  std::vector<xml::TagId> tags = RandomTags(&rng, kN, 4);
  std::vector<xml::PackedNodeRecord> recs(kN);
  for (size_t i = 0; i < kN; ++i) {
    recs[i].tag = tags[i];
    recs[i].subtree_end = static_cast<xml::NodeId>(i);
    recs[i].level = 1;
    recs[i].text_ref = UINT32_MAX;
  }
  std::vector<xml::NodeId> expected = ReferenceFilter(tags, 2, 0);
  auto raw = std::make_unique<char[]>(sizeof(recs[0]) * kN + 16);
  for (size_t offset = 1; offset < 16; ++offset) {
    char* base = raw.get() + offset;
    std::memcpy(base, recs.data(), sizeof(recs[0]) * kN);
    const auto* misaligned =
        reinterpret_cast<const xml::PackedNodeRecord*>(base);
    for (bool simd : {false, true}) {
      std::vector<xml::NodeId> got;
      FilterTagEqRecords(misaligned, kN, 2, 0, simd, &got);
      EXPECT_EQ(got, expected) << "offset=" << offset << " simd=" << simd;
    }
  }
}

TEST(KernelsTest, CountLessEqMatchesUpperBound) {
  Rng rng(53);
  for (size_t n : {0u, 1u, 2u, 3u, 5u, 8u, 16u, 100u, 1023u}) {
    std::vector<xml::NodeId> sorted(n);
    xml::NodeId v = 0;
    for (auto& x : sorted) {
      v += static_cast<xml::NodeId>(rng.Uniform(4));  // Duplicates included.
      x = v;
    }
    for (size_t probe = 0; probe < 64; ++probe) {
      xml::NodeId key = static_cast<xml::NodeId>(rng.Uniform(v + 3));
      size_t expected = static_cast<size_t>(
          std::upper_bound(sorted.begin(), sorted.end(), key) -
          sorted.begin());
      EXPECT_EQ(CountLessEq(sorted.data(), n, key), expected)
          << "n=" << n << " key=" << key;
    }
    // Boundary keys.
    EXPECT_EQ(CountLessEq(sorted.data(), n, 0),
              static_cast<size_t>(std::upper_bound(sorted.begin(),
                                                   sorted.end(), 0u) -
                                  sorted.begin()));
    EXPECT_EQ(CountLessEq(sorted.data(), n, xml::kNullNode), n);
  }
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
