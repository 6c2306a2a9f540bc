#include "exec/nok_scan.h"

#include <algorithm>
#include <memory>
#include <span>

#include "exec/kernels.h"
#include "exec/value_ops.h"
#include "nestedlist/ops.h"
#include "pattern/fingerprint.h"

namespace blossomtree {
namespace exec {

using nestedlist::Entry;
using nestedlist::Group;
using pattern::EdgeMode;
using pattern::SlotId;
using pattern::VertexId;

NokMatcher::NokMatcher(const xml::Document* doc,
                       const pattern::BlossomTree* tree,
                       const pattern::NokTree* nok)
    : doc_(doc), tree_(tree), nok_(nok) {
  // Build the local vertex table in the NoK's DFS vertex order; the root is
  // locals_[0].
  std::vector<uint32_t> local_of(tree->NumVertices(),
                                 static_cast<uint32_t>(-1));
  locals_.reserve(nok->vertices.size());
  for (VertexId v : nok->vertices) {
    local_of[v] = static_cast<uint32_t>(locals_.size());
    LocalVertex lv;
    lv.vertex = v;
    locals_.push_back(std::move(lv));
  }
  for (LocalVertex& lv : locals_) {
    for (VertexId c : tree->vertex(lv.vertex).children) {
      if (xpath::IsLocalAxis(tree->vertex(c).axis) &&
          local_of[c] != static_cast<uint32_t>(-1)) {
        lv.local_children.push_back(local_of[c]);
      }
    }
  }
  // next_slots: bottom-up over the NoK (children have larger local index
  // only if DFS order guarantees it — Algorithm 1 pushes children after
  // parents, so iterate in reverse).
  for (size_t i = locals_.size(); i-- > 0;) {
    LocalVertex& lv = locals_[i];
    const pattern::Vertex& vx = tree->vertex(lv.vertex);
    if (vx.returning) {
      lv.next_slots.push_back(tree->SlotOfVertex(lv.vertex));
    } else {
      for (uint32_t c : lv.local_children) {
        lv.next_slots.insert(lv.next_slots.end(),
                             locals_[c].next_slots.begin(),
                             locals_[c].next_slots.end());
      }
    }
    if (vx.returning) {
      // Map each child-contributed slot to its index in the global child
      // layout of this vertex's slot.
      SlotId my_slot = tree->SlotOfVertex(lv.vertex);
      for (uint32_t c : lv.local_children) {
        for (SlotId s : locals_[c].next_slots) {
          lv.child_slot_index.push_back(
              nestedlist::ChildIndex(*tree, my_slot, s));
        }
      }
    }
  }
  top_slots_ = locals_[0].next_slots;
  scratch_.resize(locals_.size());
}

bool NokMatcher::TagOk(const pattern::Vertex& v, xml::NodeId x) const {
  if (v.IsVirtualRoot()) return x == kVirtualRootNode;
  if (x == kVirtualRootNode) return false;
  if (!doc_->IsElement(x)) return false;
  return v.MatchesAnyTag() || doc_->TagName(x) == v.tag;
}

bool NokMatcher::ConstraintsOk(const pattern::Vertex& v, xml::NodeId x) const {
  if (!TagOk(v, x)) return false;
  if (v.value && x != kVirtualRootNode) {
    if (!CompareValues(doc_->StringValue(x), v.value->op, v.value->literal)) {
      return false;
    }
  }
  return true;
}

bool NokMatcher::RootTest(xml::NodeId x) const {
  return ConstraintsOk(tree_->vertex(locals_[0].vertex), x);
}

bool NokMatcher::MatchAt(xml::NodeId x, nestedlist::NestedList* out) {
  // Positional predicate on the NoK root (e.g. //book[2] after the cut):
  // positions count among same-parent siblings matching the tag test.
  const pattern::Vertex& root = tree_->vertex(locals_[0].vertex);
  if (root.position > 0 && x != kVirtualRootNode) {
    if (xml::SiblingRank(*doc_, x, root.tag) !=
        static_cast<uint32_t>(root.position)) {
      return false;
    }
  }
  std::vector<Group> groups;
  if (!MatchVertex(0, x, 0, &groups)) return false;
  out->tops = std::move(groups);
  return true;
}

namespace {

/// Moves the entries of `src` to the end of `dst` — the whole buffer when
/// `dst` is still empty, which is the common case of one match per child.
void AppendGroup(Group* src, Group* dst) {
  if (dst->empty()) {
    std::swap(*src, *dst);
  } else {
    dst->insert(dst->end(), std::make_move_iterator(src->begin()),
                std::make_move_iterator(src->end()));
  }
  src->clear();
}

}  // namespace

bool NokMatcher::MatchVertex(uint32_t local_index, xml::NodeId x,
                             size_t depth, std::vector<Group>* out_groups) {
  ++match_work_;
  // Guard sample (DESIGN.md §9): a full Check (clock + token) every ~1k
  // work units keeps deadline detection prompt even when one match recurses
  // for a long time, at negligible cost. A tripped guard aborts the match;
  // the driver stops the scan and the engine reports guard->status().
  if (guard_ != nullptr && (match_work_ & 0x3FF) == 0 && !guard_->Check()) {
    return false;
  }
  const LocalVertex& lv = locals_[local_index];
  const pattern::Vertex& vx = tree_->vertex(lv.vertex);
  if (!ConstraintsOk(vx, x)) return false;

  // Accumulate matches per local child (each child contributes a fixed
  // number of slot groups). Attribute children are constraints evaluated
  // directly on x.
  size_t n_children = lv.local_children.size();
  std::vector<ChildAcc>& acc = scratch_[depth].acc;
  std::vector<Group>& sub = scratch_[depth].sub;
  acc.resize(n_children);
  for (size_t k = 0; k < n_children; ++k) {
    acc[k].groups.clear();
    acc[k].groups.resize(locals_[lv.local_children[k]].next_slots.size());
    acc[k].tag_count = 0;
    acc[k].matched = false;
  }
  auto try_child = [&](size_t k, xml::NodeId u) {
    const LocalVertex& s = locals_[lv.local_children[k]];
    const pattern::Vertex& sv = tree_->vertex(s.vertex);
    ++match_work_;
    if (!TagOk(sv, u)) return;
    if (sv.position > 0 && ++acc[k].tag_count != sv.position) return;
    if (!MatchVertex(lv.local_children[k], u, depth + 1, &sub)) return;
    acc[k].matched = true;
    for (size_t g = 0; g < sub.size(); ++g) {
      AppendGroup(&sub[g], &acc[k].groups[g]);
    }
  };

  for (size_t k = 0; k < n_children; ++k) {
    const LocalVertex& s = locals_[lv.local_children[k]];
    const pattern::Vertex& sv = tree_->vertex(s.vertex);
    if (!sv.tag.empty() && sv.tag[0] == '@') {
      // Attribute constraint: check presence (and value) on x itself.
      std::string_view value;
      if (x != kVirtualRootNode &&
          doc_->AttributeValue(x, sv.tag.substr(1), &value)) {
        if (!sv.value ||
            CompareValues(value, sv.value->op, sv.value->literal)) {
          acc[k].matched = true;
          if (sv.returning) {
            Entry e;
            e.node = x;  // Attribute matches surface their owner element.
            e.groups.resize(
                tree_->slot(tree_->SlotOfVertex(s.vertex)).children.size());
            acc[k].groups[0].push_back(std::move(e));
          }
        }
      }
      continue;
    }
    if (sv.axis == xpath::Axis::kFollowingSibling) {
      if (x == kVirtualRootNode) continue;
      for (xml::NodeId u = doc_->NextSibling(x); u != xml::kNullNode;
           u = doc_->NextSibling(u)) {
        try_child(k, u);
      }
      continue;
    }
    // Child axis.
    if (x == kVirtualRootNode) {
      if (!doc_->empty()) try_child(k, doc_->Root());
    } else {
      for (xml::NodeId u = doc_->FirstChild(x); u != xml::kNullNode;
           u = doc_->NextSibling(u)) {
        try_child(k, u);
      }
    }
  }

  // Mandatory (f-mode) children must have matched (Algorithm 2 line 21:
  // unmatched pattern nodes invalidate the partial result).
  for (size_t k = 0; k < n_children; ++k) {
    const pattern::Vertex& sv =
        tree_->vertex(locals_[lv.local_children[k]].vertex);
    if (sv.mode == EdgeMode::kFor && !acc[k].matched) return false;
  }

  // Assemble this vertex's contribution.
  out_groups->clear();
  if (vx.returning) {
    SlotId my_slot = tree_->SlotOfVertex(lv.vertex);
    Entry e;
    e.node = x;
    e.groups.resize(tree_->slot(my_slot).children.size());
    size_t flat = 0;
    for (size_t k = 0; k < n_children; ++k) {
      for (size_t g = 0; g < acc[k].groups.size(); ++g, ++flat) {
        AppendGroup(&acc[k].groups[g], &e.groups[lv.child_slot_index[flat]]);
      }
    }
    Group mine;
    mine.push_back(std::move(e));
    out_groups->push_back(std::move(mine));
  } else {
    for (size_t k = 0; k < n_children; ++k) {
      for (Group& g : acc[k].groups) {
        out_groups->push_back(std::move(g));
      }
    }
  }
  return true;
}

NokScanOperator::NokScanOperator(const xml::Document* doc,
                                 const pattern::BlossomTree* tree,
                                 const pattern::NokTree* nok,
                                 util::ThreadPool* pool,
                                 util::ResourceGuard* guard,
                                 NokResultCache* cache,
                                 const storage::NodeStore* store,
                                 ExecOptions exec)
    : NestedListOperator(guard),
      doc_(doc),
      tree_(tree),
      nok_(nok),
      matcher_(doc, tree, nok),
      virtual_root_(tree->vertex(nok->root).IsVirtualRoot()),
      range_end_(doc->NumNodes() == 0
                     ? 0
                     : static_cast<xml::NodeId>(doc->NumNodes() - 1)),
      pool_(pool),
      cache_(cache),
      store_(store),
      exec_(exec) {
  matcher_.set_guard(guard);
  if (cache_ != nullptr) {
    canonical_nok_ = pattern::CanonicalNok(*tree, *nok);
  }
  // Kernel candidate prefiltering needs a concrete element root tag: the
  // prefilter `tag_id(x) == target` then implies exactly the set of nodes
  // a per-node RootTest would spend any counted work on (TagOk is a free
  // string compare; value comparisons and match work only start after it
  // passes), so counters stay bitwise-identical. Wildcard and attribute
  // roots run the per-node loop; a virtual root is its one node.
  const pattern::Vertex& rootv = tree->vertex(nok->root);
  kernel_eligible_ = !virtual_root_ && !rootv.MatchesAnyTag() &&
                     !rootv.tag.empty() && rootv.tag[0] != '@';
  if (kernel_eligible_) {
    // A tag absent from the document (Lookup -> kNullTag) means zero
    // candidates — the correct answer, since no node can pass TagOk.
    target_tag_ = doc->tags().Lookup(rootv.tag);
    // Without a value test, RootTest is the tag test the kernel has
    // already passed; MatchAt re-checks the root's constraints anyway.
    candidates_pass_root_test_ = !rootv.value;
  }
  Rewind();
}

void NokScanOperator::Restrict(xml::NodeId begin, xml::NodeId end) {
  range_begin_ = begin;
  range_end_ = end;
  Rewind();
}

void NokScanOperator::Rewind() {
  // The buffer hands entries out by move, so a rewound scan rescans (or
  // re-probes the cache) rather than replaying it.
  cursor_ = range_begin_;
  bool empty_range = range_begin_ > range_end_ ||
                     static_cast<size_t>(range_begin_) >= doc_->NumNodes();
  exhausted_ = !virtual_root_ && empty_range;
  buf_.clear();
  buf_pos_ = 0;
  io_cursor_ = storage::ScanCursor();
}

bool NokScanOperator::ParallelEligible() const {
  return pool_ != nullptr && pool_->NumThreads() > 1 && !virtual_root_ &&
         range_begin_ == 0 && doc_->NumNodes() > 1 &&
         static_cast<size_t>(range_end_) + 1 >= doc_->NumNodes();
}

bool NokScanOperator::CacheEligible() const {
  // Full-document scans only: the BNLJ's range-restricted inner re-scans
  // are many, small, and keyed by arbitrary subtree ranges — caching them
  // would flood the budget with entries that rarely recur. An unfinished
  // document (generation 0) has no invalidation identity, so it is never
  // cached either.
  return cache_ != nullptr && doc_->generation() != 0 &&
         doc_->NumNodes() > 0 && range_begin_ == 0 &&
         static_cast<size_t>(range_end_) + 1 >= doc_->NumNodes();
}

void NokScanOperator::FillCache(
    const NokCacheKey& key,
    const std::vector<nestedlist::NestedList>& matches) {
  if (guard() != nullptr && guard()->Tripped()) return;
  util::TraceSpan span("cache", "result.fill");
  auto entry = std::make_shared<CachedNokScan>();
  entry->matches = matches;
  for (const nestedlist::NestedList& nl : matches) {
    entry->cells += CountCells(nl);
  }
  cache_->Put(key, std::move(entry));
}

void NokScanOperator::GatherCandidates(xml::NodeId first, xml::NodeId last,
                                       storage::ScanCursor* io,
                                       std::vector<xml::NodeId>* out) const {
  if (store_ != nullptr) {
    // Block-at-a-time through the store: NextBlock counts one read per
    // block entered — exactly what sequential per-node Gets count — and
    // the kernel filters each resident block in place.
    for (xml::NodeId n = first; n <= last;) {
      std::span<const storage::NodeRecord> block =
          store_->NextBlock(n, last, io);
      if (target_tag_ != xml::kNullTag) {
        FilterTagEqRecords(block.data(), block.size(), target_tag_, n,
                           exec_.simd, out);
      }
      if (block.size() >= static_cast<size_t>(last - n) + 1) break;
      n += static_cast<xml::NodeId>(block.size());
    }
    return;
  }
  if (target_tag_ == xml::kNullTag) return;
  FilterTagEqRecords(doc_->Records().data() + first,
                     static_cast<size_t>(last - first) + 1, target_tag_,
                     first, exec_.simd, out);
}

bool NokScanOperator::ScanRange(NokMatcher* m, xml::NodeId begin,
                                xml::NodeId end, storage::ScanCursor* io,
                                std::vector<xml::NodeId>* candidates,
                                uint64_t* scanned, uint64_t* vcmps,
                                std::vector<nestedlist::NestedList>* out)
    const {
  util::ResourceGuard* guard = this->guard();
  nestedlist::NestedList nl;
  // Appends the match rooted at `c`, if any (`root_ok`: RootTest is known
  // to pass); false once the guard tripped (a tripped match's output is
  // garbage and is dropped).
  auto try_node = [&](xml::NodeId c, bool root_ok) {
    if ((root_ok || m->RootTest(c)) && m->MatchAt(c, &nl) &&
        (guard == nullptr || !guard->Tripped())) {
      out->push_back(std::move(nl));
      nl = nestedlist::NestedList();
    }
    return guard == nullptr || !guard->Tripped();
  };
  uint64_t cmp_before = ValueComparisonCount();
  bool ok = true;
  if (virtual_root_) {
    ++*scanned;
    ok = try_node(kVirtualRootNode, false);
  } else {
    size_t total = doc_->NumNodes();
    if (static_cast<size_t>(end) >= total) {
      end = static_cast<xml::NodeId>(total - 1);
    }
    for (xml::NodeId x = begin; ok && total > 0 && x <= end;) {
      // Chunk-top guard sample. Check() never mutates a counter, so
      // untripped-run counters do not depend on the cadence; only trip
      // *timing* does (results are discarded on a trip).
      if (guard != nullptr && (guard->Tripped() || !guard->Check())) {
        ok = false;
        break;
      }
      xml::NodeId chunk_end = end;
      if (chunk_end - x >= kScanChunk) {
        chunk_end = x + static_cast<xml::NodeId>(kScanChunk) - 1;
      }
      *scanned += chunk_end - x + 1;
      if (kernel_eligible_) {
        candidates->clear();
        GatherCandidates(x, chunk_end, io, candidates);
        for (size_t i = 0; ok && i < candidates->size(); ++i) {
          ok = try_node((*candidates)[i], candidates_pass_root_test_);
        }
      } else {
        // Per-node body for roots the prefilter cannot represent
        // (wildcard / attribute roots).
        for (xml::NodeId c = x; ok && c <= chunk_end; ++c) {
          if (store_ != nullptr) store_->Get(c, io);
          ok = try_node(c, false);
        }
      }
      if (chunk_end == end) break;
      x = chunk_end + 1;
    }
  }
  *vcmps += ValueComparisonCount() - cmp_before;
  return ok;
}

void NokScanOperator::FillNextChunk() {
  xml::NodeId end = range_end_;
  if (end - cursor_ >= kScanChunk) {
    end = cursor_ + static_cast<xml::NodeId>(kScanChunk) - 1;
  }
  bool ok = ScanRange(&matcher_, cursor_, end, &io_cursor_, &candidates_,
                      &nodes_scanned_, &value_cmps_, &buf_);
  cursor_ = end + 1;
  exhausted_ = !ok || virtual_root_ || end >= range_end_ ||
               static_cast<size_t>(cursor_) >= doc_->NumNodes();
}

void NokScanOperator::FillPartitions() {
  const bool parallel = ParallelEligible();
  std::vector<storage::NodeRange> parts;
  if (parallel) {
    parts = store_ != nullptr
                ? store_->Partition(pool_->NumThreads())
                : storage::PartitionSubtrees(*doc_, pool_->NumThreads());
    partitions_used_ = parts.size();
  } else {
    parts.push_back(storage::NodeRange{range_begin_, range_end_});
  }
  std::vector<std::vector<nestedlist::NestedList>> results(parts.size());
  std::vector<uint64_t> scanned(parts.size(), 0);
  std::vector<uint64_t> work(parts.size(), 0);
  std::vector<uint64_t> vcmp(parts.size(), 0);
  // Per-partition cache probe (main thread): hit partitions replay their
  // stored matches; only the misses scan. Partition ranges are a pure
  // function of (document, thread count), so a warm run at the same thread
  // count hits every key, and any hit replays exactly what a cold scan of
  // that range produced — concatenation stays byte-identical.
  const bool cached = CacheEligible();
  std::vector<std::shared_ptr<const CachedNokScan>> hits(parts.size());
  if (cached) {
    util::TraceSpan span("cache", "result.lookup");
    for (size_t i = 0; i < parts.size(); ++i) {
      hits[i] = cache_->Get(NokCacheKey{doc_->generation(), canonical_nok_,
                                        parts[i].begin, parts[i].end});
    }
  }
  std::vector<size_t> missing;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (hits[i] == nullptr) missing.push_back(i);
  }
  auto scan_partition = [&](size_t mi) {
    size_t i = missing[mi];
    util::TraceSpan part_span(
        "exec", util::Tracer::Get().enabled()
                    ? "partition[" + std::to_string(i) + "] nodes [" +
                          std::to_string(parts[i].begin) + "," +
                          std::to_string(parts[i].end) + "]"
                    : std::string());
    // A private matcher per partition: constraint checks are read-only on
    // the shared document, and counters stay thread-local. One partition
    // runs entirely on one thread, so ScanRange's thread-local
    // value-comparison delta is exactly this partition's comparisons.
    NokMatcher m(doc_, tree_, nok_);
    m.set_guard(guard());
    // Private I/O cursor per partition: block pins and read counts stay
    // local to this thread, so the aggregate equals the sum of partition
    // read counts at every thread count and interleaving.
    storage::ScanCursor io;
    std::vector<xml::NodeId> candidates;
    ScanRange(&m, parts[i].begin, parts[i].end, &io, &candidates, &scanned[i],
              &vcmp[i], &results[i]);
    work[i] = m.MatchWork();
  };
  if (parallel) {
    pool_->ParallelFor(missing.size(), scan_partition, guard());
  } else {
    for (size_t mi = 0; mi < missing.size(); ++mi) scan_partition(mi);
  }
  // Deterministic merge point (DESIGN.md §8): per-partition counters fold
  // in partition order, matching the result concatenation. Hit partitions
  // contribute no scan work — they replay a deep copy of their entry, so
  // the cached master stays intact for the next hit. Complete cold scans
  // fill their entries (FillCache refuses after a trip).
  for (size_t i = 0; i < parts.size(); ++i) {
    nodes_scanned_ += scanned[i];
    eager_work_ += work[i];
    value_cmps_ += vcmp[i];
    if (hits[i] != nullptr) {
      buf_.insert(buf_.end(), hits[i]->matches.begin(),
                  hits[i]->matches.end());
      continue;
    }
    if (cached) {
      FillCache(NokCacheKey{doc_->generation(), canonical_nok_,
                            parts[i].begin, parts[i].end},
                results[i]);
    }
    if (buf_.empty()) {
      buf_ = std::move(results[i]);
    } else {
      buf_.insert(buf_.end(), std::make_move_iterator(results[i].begin()),
                  std::make_move_iterator(results[i].end()));
    }
  }
  exhausted_ = true;
}

bool NokScanOperator::Next(nestedlist::NestedList* out) {
  while (buf_pos_ >= buf_.size()) {
    if (exhausted_) return false;
    buf_.clear();
    buf_pos_ = 0;
    if (ParallelEligible() || CacheEligible()) {
      FillPartitions();
    } else {
      FillNextChunk();
    }
  }
  // After a guard trip mid-fill the buffer may hold a partial prefix; the
  // base class's charge refuses every row once the guard tripped, so no
  // truncated stream is ever handed out as if complete.
  *out = std::move(buf_[buf_pos_++]);
  return true;
}

ExecStats NokScanOperator::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.nodes_scanned = nodes_scanned_;
  s.comparisons = MatchWork() + value_cmps_;
  return s;
}

}  // namespace exec
}  // namespace blossomtree
