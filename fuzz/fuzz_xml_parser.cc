// libFuzzer harness for the XML parser: any input must either parse into a
// well-formed Document or fail with a clean Status — never crash, leak, or
// trip ASan/UBSan. Every parsed document must also encode to a BTSX v2
// image that the untrusted-file validators accept: the builder's layout is
// the file's layout. Depth and size limits are set low enough that the
// fuzzer spends its budget on the grammar, not on giant inputs.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "storage/btsx2.h"
#include "xml/parser.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  blossomtree::xml::ParseOptions options;
  options.max_depth = 512;
  options.max_input_bytes = 1 << 20;
  auto doc = blossomtree::xml::ParseDocument(input, options);
  if (doc.ok()) {
    auto image = blossomtree::storage::EncodeBtsx2(**doc);
    if (!image.ok()) __builtin_trap();
    // MapBtsx2 wants a 16-byte-aligned image base.
    struct alignas(16) Chunk {
      char bytes[16];
    };
    std::vector<Chunk> aligned(image->size() / sizeof(Chunk) + 1);
    std::memcpy(aligned.data(), image->data(), image->size());
    auto view = blossomtree::storage::MapBtsx2(
        std::string_view(aligned.data()->bytes, image->size()));
    if (!view.ok() || !blossomtree::storage::ValidateBtsx2Deep(*view).ok()) {
      __builtin_trap();  // The builder wrote a layout the validator rejects.
    }
  }
  return 0;
}
