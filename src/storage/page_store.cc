#include "storage/page_store.h"

#include "util/trace.h"

namespace blossomtree {
namespace storage {

std::vector<NodeRange> PartitionSubtrees(const xml::Document& doc,
                                         size_t max_partitions) {
  util::TraceSpan span("storage", "PartitionSubtrees");
  // The store walk over the document's own records: one partition walk
  // for documents and stores alike.
  return PageStore(doc).Partition(max_partitions);
}

PageStore::PageStore(const xml::Document& doc, size_t page_bytes)
    : records_(doc.Records()), generation_(doc.generation()) {
  nodes_per_page_ = page_bytes / sizeof(NodeRecord);
  if (nodes_per_page_ == 0) nodes_per_page_ = 1;
  num_pages_ = (records_.size() + nodes_per_page_ - 1) / nodes_per_page_;
}

}  // namespace storage
}  // namespace blossomtree
