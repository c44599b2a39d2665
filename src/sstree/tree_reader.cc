#include "sstree/tree_reader.h"

#include <algorithm>
#include <cassert>

namespace blsm::sstree {

namespace {

// Checks a block whose `ptr.size` raw bytes `raw` were read into `*buf`, then
// trims the checksum trailer so `*buf` holds just the payload. Errors carry
// the component's identity: "which file, which block" is what a repair
// workflow (blsm_inspect verify) needs to act on.
Status FinishBlockRead(const std::string& fname, const BlockPointer& ptr,
                       const Slice& raw, std::string* buf) {
  if (raw.size() != ptr.size) {
    return Status::Corruption(fname + " @" + std::to_string(ptr.offset) +
                              ": short block read");
  }
  Slice payload;
  Status s = VerifyBlock(raw, &payload);
  if (!s.ok()) {
    return Status::Corruption(fname + " @" + std::to_string(ptr.offset) +
                              ": " + s.ToString());
  }
  if (raw.data() == buf->data()) {
    buf->resize(payload.size());
  } else {  // the Env handed back bytes outside the scratch buffer
    buf->assign(payload.data(), payload.size());
  }
  return Status::OK();
}

}  // namespace

Status TreeReader::Open(Env* env, BlockCache* cache, uint64_t file_id,
                        const std::string& fname,
                        std::unique_ptr<TreeReader>* out) {
  auto reader = std::unique_ptr<TreeReader>(new TreeReader());
  reader->env_ = env;
  reader->cache_ = cache;
  reader->file_id_ = file_id;
  reader->fname_ = fname;

  Status s = env->GetFileSize(fname, &reader->file_size_);
  if (!s.ok()) return s;
  if (reader->file_size_ < Footer::kEncodedLength) {
    return Status::Corruption("tree component smaller than footer: " + fname);
  }
  s = env->NewRandomAccessFile(fname, &reader->file_);
  if (!s.ok()) return s;

  // Footer.
  char scratch[Footer::kEncodedLength];
  Slice footer_bytes;
  s = reader->file_->Read(reader->file_size_ - Footer::kEncodedLength,
                          Footer::kEncodedLength, &footer_bytes, scratch);
  if (!s.ok()) return s;
  s = reader->footer_.DecodeFrom(footer_bytes);
  if (!s.ok()) return Status::Corruption(fname + ": " + s.ToString());
  const Footer& footer = reader->footer_;
  const uint64_t body_size = reader->file_size_ - Footer::kEncodedLength;
  if (footer.bloom_offset > body_size ||
      footer.bloom_size > body_size - footer.bloom_offset) {
    return Status::Corruption(fname + ": bloom filter extends past the footer");
  }

  // Bloom filter: loaded whole at open; it lives in RAM for the component's
  // lifetime (the paper's filters are memory-resident, §4.4.3).
  if (reader->footer_.bloom_size > 0) {
    std::string bloom_buf(reader->footer_.bloom_size, '\0');
    Slice bloom_bytes;
    s = reader->file_->Read(reader->footer_.bloom_offset,
                            reader->footer_.bloom_size, &bloom_bytes,
                            bloom_buf.data());
    if (!s.ok()) return s;
    s = BloomFilter::DecodeFrom(bloom_bytes, &reader->bloom_);
    if (!s.ok()) return s;
  }

  *out = std::move(reader);
  return Status::OK();
}

TreeReader::~TreeReader() {
  if (cache_ != nullptr) cache_->EraseFile(file_id_);
}

Status TreeReader::ReadBlock(const BlockPointer& ptr, bool fill_cache,
                             BlockCache::BlockHandle* out) const {
  if (cache_ != nullptr) {
    auto handle = cache_->Lookup(file_id_, ptr.offset);
    if (handle != nullptr) {
      *out = std::move(handle);
      return Status::OK();
    }
  }
  auto block = std::make_shared<std::string>(ptr.size, '\0');
  Slice raw;
  Status s = file_->Read(ptr.offset, ptr.size, &raw, block->data());
  if (!s.ok()) return s;
  s = FinishBlockRead(fname_, ptr, raw, block.get());
  if (!s.ok()) return s;
  if (cache_ != nullptr && fill_cache) {
    cache_->Insert(file_id_, ptr.offset, block);
  }
  *out = std::move(block);
  return Status::OK();
}

bool TreeReader::MayContain(const Slice& user_key) const {
  return bloom_ == nullptr || bloom_->MayContain(user_key);
}

std::optional<TreeReader::GetResult> TreeReader::Get(const Slice& user_key,
                                                     bool use_bloom,
                                                     Status* io_status) const {
  if (io_status != nullptr) *io_status = Status::OK();
  if (footer_.index_levels == 0) return std::nullopt;  // empty component
  if (use_bloom && bloom_ != nullptr && !bloom_->MayContain(user_key)) {
    return std::nullopt;
  }

  std::string target = InternalLookupKey(user_key);
  BlockPointer ptr{footer_.root_offset, footer_.root_size};
  BlockCache::BlockHandle handle;

  // Descend index levels; each cursor.Seek finds the first child whose last
  // key is >= target.
  for (uint32_t level = 0; level < footer_.index_levels; level++) {
    Status s = ReadBlock(ptr, /*fill_cache=*/true, &handle);
    if (!s.ok()) {
      if (io_status != nullptr) *io_status = s;
      return std::nullopt;
    }
    BlockCursor cursor{Slice(*handle)};
    cursor.Seek(target);
    if (!cursor.Valid()) return std::nullopt;  // past the largest key
    Slice v = cursor.value();
    if (!BlockPointer::DecodeFrom(&v, &ptr)) {
      if (io_status != nullptr) {
        *io_status = Status::Corruption("bad index entry");
      }
      return std::nullopt;
    }
  }

  Status s = ReadBlock(ptr, /*fill_cache=*/true, &handle);
  if (!s.ok()) {
    if (io_status != nullptr) *io_status = s;
    return std::nullopt;
  }
  BlockCursor cursor{Slice(*handle)};
  cursor.Seek(target);
  if (!cursor.Valid()) return std::nullopt;
  ParsedInternalKey parsed;
  if (!ParseInternalKey(cursor.key(), &parsed)) {
    if (io_status != nullptr) {
      *io_status = Status::Corruption("bad internal key");
    }
    return std::nullopt;
  }
  if (parsed.user_key != user_key) return std::nullopt;
  GetResult result;
  result.type = parsed.type;
  result.seq = parsed.seq;
  result.value.assign(cursor.value().data(), cursor.value().size());
  return result;
}

std::vector<std::optional<TreeReader::GetResult>> TreeReader::MultiGet(
    const std::vector<Slice>& user_keys, std::vector<Status>* io_statuses,
    uint64_t* blocks_coalesced) const {
  std::vector<std::optional<GetResult>> results(user_keys.size());
  io_statuses->assign(user_keys.size(), Status::OK());
  if (footer_.index_levels == 0) return results;  // empty component

  // Phase 1: resolve every key to its data-block pointer by descending the
  // index levels (through the cache — index blocks are hot by design). The
  // data blocks themselves are NOT read here; collecting all the pointers
  // first is what lets phase 2 fetch the misses as one batch.
  struct KeyPlan {
    BlockPointer ptr;
    bool resolved = false;
    size_t block_slot = 0;  // index into `blocks`, set in phase 2
  };
  std::vector<KeyPlan> plans(user_keys.size());
  std::vector<std::string> targets(user_keys.size());
  size_t limit = user_keys.size();

  for (size_t i = 0; i < limit; i++) {
    targets[i] = InternalLookupKey(user_keys[i]);
    BlockPointer ptr{footer_.root_offset, footer_.root_size};
    BlockCache::BlockHandle handle;
    bool descended = true;
    for (uint32_t level = 0; level < footer_.index_levels; level++) {
      Status s = ReadBlock(ptr, /*fill_cache=*/true, &handle);
      if (!s.ok()) {
        (*io_statuses)[i] = s;
        descended = false;
        break;
      }
      BlockCursor cursor{Slice(*handle)};
      cursor.Seek(targets[i]);
      if (!cursor.Valid()) {
        if (level == 0) {
          // Past the component's largest key — and so is every later key of
          // this ascending batch.
          limit = i;
          break;
        }
        // A parent entry promised this subtree's last key >= target.
        (*io_statuses)[i] = Status::Corruption("bad index entry");
        descended = false;
        break;
      }
      Slice v = cursor.value();
      if (!BlockPointer::DecodeFrom(&v, &ptr)) {
        (*io_statuses)[i] = Status::Corruption("bad index entry");
        descended = false;
        break;
      }
    }
    if (i < limit && descended) {
      plans[i].ptr = ptr;
      plans[i].resolved = true;
    }
  }

  // Phase 2: unique data blocks, in key order. Ascending keys resolve to
  // non-decreasing block offsets, so consecutive dedup is global dedup; a
  // repeat is exactly the block reuse the old one-block lookbehind counted.
  struct BlockSlot {
    BlockPointer ptr;
    BlockCache::BlockHandle handle;  // null until fetched
    Status status;
    size_t batch_index = 0;  // position in `batch` when it is a cache miss
    std::shared_ptr<std::string> buf;  // a miss's read target
    bool miss = false;
  };
  std::vector<BlockSlot> blocks;
  for (size_t i = 0; i < limit; i++) {
    if (!plans[i].resolved) continue;
    if (!blocks.empty() && blocks.back().ptr.offset == plans[i].ptr.offset &&
        blocks.back().ptr.size == plans[i].ptr.size) {
      if (blocks_coalesced != nullptr) (*blocks_coalesced)++;
    } else {
      BlockSlot slot;
      slot.ptr = plans[i].ptr;
      if (cache_ != nullptr) slot.handle = cache_->Lookup(file_id_, slot.ptr.offset);
      slot.miss = slot.handle == nullptr;
      blocks.push_back(std::move(slot));
    }
    plans[i].block_slot = blocks.size() - 1;
  }

  // One batched submission for every miss, each read straight into the
  // buffer that becomes its cached block.
  std::vector<ReadRequest> batch;
  for (auto& slot : blocks) {
    if (!slot.miss) continue;
    slot.buf = std::make_shared<std::string>(slot.ptr.size, '\0');
    ReadRequest req;
    req.offset = slot.ptr.offset;
    req.len = slot.ptr.size;
    req.scratch = slot.buf->data();
    slot.batch_index = batch.size();
    batch.push_back(req);
  }
  if (!batch.empty()) {
    Status s = file_->MultiRead(batch.data(), batch.size());
    for (auto& slot : blocks) {
      if (!slot.miss) continue;
      const ReadRequest& req = batch[slot.batch_index];
      Status rs = s.ok() ? req.status : s;
      if (rs.ok()) {
        rs = FinishBlockRead(fname_, slot.ptr, req.result, slot.buf.get());
      }
      if (!rs.ok()) {
        slot.status = rs;
        continue;
      }
      if (cache_ != nullptr) {
        cache_->Insert(file_id_, slot.ptr.offset, slot.buf);
      }
      slot.handle = std::move(slot.buf);
    }
  }

  // Phase 3: resolve each key inside its (now in-memory) data block.
  for (size_t i = 0; i < limit; i++) {
    if (!plans[i].resolved || !(*io_statuses)[i].ok()) continue;
    BlockSlot& slot = blocks[plans[i].block_slot];
    if (!slot.status.ok()) {
      (*io_statuses)[i] = slot.status;
      continue;
    }
    BlockCursor cursor{Slice(*slot.handle)};
    cursor.Seek(targets[i]);
    if (!cursor.Valid()) continue;  // key beyond this block: absent
    ParsedInternalKey parsed;
    if (!ParseInternalKey(cursor.key(), &parsed)) {
      (*io_statuses)[i] = Status::Corruption("bad internal key");
      continue;
    }
    if (parsed.user_key != user_keys[i]) continue;
    GetResult result;
    result.type = parsed.type;
    result.seq = parsed.seq;
    result.value.assign(cursor.value().data(), cursor.value().size());
    results[i] = std::move(result);
  }
  return results;
}

std::unique_ptr<TreeIterator> TreeReader::NewIterator(bool sequential) const {
  return std::make_unique<TreeIterator>(this, sequential);
}

Status TreeReader::VerifyBlockAt(const BlockPointer& ptr, uint32_t depth,
                                 uint64_t* bad_offset, uint64_t* entries,
                                 uint64_t* data_end) const {
  BlockCache::BlockHandle handle;
  // fill_cache=false: verification must read the media, and a one-shot walk
  // of the whole file would only evict useful entries.
  Status s = ReadBlock(ptr, /*fill_cache=*/false, &handle);
  if (!s.ok()) {
    if (bad_offset != nullptr) *bad_offset = ptr.offset;
    return s;
  }
  BlockCursor cursor{Slice(*handle)};
  if (depth == footer_.index_levels) {  // data block
    for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) (*entries)++;
    if (data_end != nullptr) {
      *data_end = std::max(*data_end, ptr.offset + ptr.size);
    }
    return Status::OK();
  }
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) {
    Slice v = cursor.value();
    BlockPointer child;
    if (!BlockPointer::DecodeFrom(&v, &child)) {
      if (bad_offset != nullptr) *bad_offset = ptr.offset;
      return Status::Corruption(fname_ + " @" + std::to_string(ptr.offset) +
                                ": bad index entry");
    }
    s = VerifyBlockAt(child, depth + 1, bad_offset, entries, data_end);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status TreeReader::VerifyAllBlocks(uint64_t* bad_offset) const {
  if (bad_offset != nullptr) *bad_offset = 0;
  uint64_t entries = 0;
  uint64_t data_end = 0;
  if (footer_.index_levels > 0) {
    // Root is index level 0; data blocks sit below the last index level.
    Status s = VerifyBlockAt(BlockPointer{footer_.root_offset,
                                          footer_.root_size},
                             /*depth=*/0, bad_offset, &entries, &data_end);
    if (!s.ok()) return s;
  }
  // The footer carries no checksum of its own; the offsets vouch for
  // themselves by resolving to valid blocks, but the two summary fields need
  // cross-checking against what the walk actually saw. The builder writes
  // data blocks contiguously from 0, so the data region ends exactly at the
  // last data block's end.
  if (entries != footer_.num_entries) {
    return Status::Corruption(
        fname_ + ": footer claims " + std::to_string(footer_.num_entries) +
        " entries, blocks hold " + std::to_string(entries));
  }
  if (data_end != footer_.data_bytes) {
    return Status::Corruption(
        fname_ + ": footer claims " + std::to_string(footer_.data_bytes) +
        " data bytes, blocks end at " + std::to_string(data_end));
  }
  if (footer_.bloom_size > 0) {
    std::string buf(footer_.bloom_size, '\0');
    Slice bytes;
    Status s = file_->Read(footer_.bloom_offset, footer_.bloom_size, &bytes,
                           buf.data());
    if (s.ok() && bytes.size() != footer_.bloom_size) {
      s = Status::Corruption("short bloom read");
    }
    std::unique_ptr<BloomFilter> bloom;
    if (s.ok()) s = BloomFilter::DecodeFrom(bytes, &bloom);
    if (!s.ok()) {
      if (bad_offset != nullptr) *bad_offset = footer_.bloom_offset;
      return Status::Corruption(fname_ + " @" +
                                std::to_string(footer_.bloom_offset) +
                                ": " + s.ToString());
    }
  }
  return Status::OK();
}

// --- TreeIterator -----------------------------------------------------------

TreeIterator::TreeIterator(const TreeReader* tree, bool sequential)
    : tree_(tree), sequential_(sequential) {}

bool TreeIterator::DescendFrom(size_t i, const Slice* seek_target) {
  // levels_[i] must be a valid index cursor; loads its child into
  // levels_[i+1] and positions that cursor.
  Slice v = levels_[i].cursor->value();
  BlockPointer ptr;
  if (!BlockPointer::DecodeFrom(&v, &ptr)) {
    status_ = Status::Corruption("bad index entry");
    return false;
  }
  BlockCache::BlockHandle handle;
  Status s = tree_->ReadBlock(ptr, /*fill_cache=*/!sequential_, &handle);
  if (!s.ok()) {
    status_ = s;
    return false;
  }
  Level& child = levels_[i + 1];
  child.handle = std::move(handle);
  child.cursor = std::make_unique<BlockCursor>(Slice(*child.handle));
  if (seek_target != nullptr) {
    child.cursor->Seek(*seek_target);
  } else {
    child.cursor->SeekToFirst();
  }
  return child.cursor->Valid();
}

void TreeIterator::SeekToFirst() { Seek(Slice()); }

void TreeIterator::Seek(const Slice& target) {
  valid_ = false;
  status_ = Status::OK();
  const Footer& footer = tree_->footer();
  if (footer.index_levels == 0) return;

  levels_.clear();
  levels_.resize(footer.index_levels + 1);

  // Root.
  BlockPointer root{footer.root_offset, footer.root_size};
  BlockCache::BlockHandle handle;
  Status s = tree_->ReadBlock(root, /*fill_cache=*/!sequential_, &handle);
  if (!s.ok()) {
    status_ = s;
    return;
  }
  levels_[0].handle = std::move(handle);
  levels_[0].cursor = std::make_unique<BlockCursor>(Slice(*levels_[0].handle));
  const bool seeking = !target.empty();
  if (seeking) {
    levels_[0].cursor->Seek(target);
  } else {
    levels_[0].cursor->SeekToFirst();
  }
  if (!levels_[0].cursor->Valid()) return;

  for (size_t i = 0; i + 1 < levels_.size(); i++) {
    if (!DescendFrom(i, seeking ? &target : nullptr)) return;
  }
  valid_ = true;
}

void TreeIterator::Next() {
  assert(valid_);
  Level& leaf = levels_.back();
  leaf.cursor->Next();
  if (leaf.cursor->Valid()) return;
  AdvanceLeaf();
}

void TreeIterator::AdvanceLeaf() {
  // Walk up to the deepest index level that can advance; then descend
  // leftmost back to the leaf.
  valid_ = false;
  if (levels_.size() < 2) return;
  size_t i = levels_.size() - 2;  // deepest index level
  while (true) {
    levels_[i].cursor->Next();
    if (levels_[i].cursor->Valid()) break;
    if (i == 0) return;  // root exhausted
    i--;
  }
  for (size_t j = i; j + 1 < levels_.size(); j++) {
    if (!DescendFrom(j, nullptr)) return;
  }
  valid_ = true;
}

Slice TreeIterator::key() const { return levels_.back().cursor->key(); }
Slice TreeIterator::value() const { return levels_.back().cursor->value(); }

}  // namespace blsm::sstree
