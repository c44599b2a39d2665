#ifndef BLSM_SSTREE_TREE_READER_H_
#define BLSM_SSTREE_TREE_READER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "buffer/block_cache.h"
#include "io/env.h"
#include "lsm/record.h"
#include "sstree/block.h"
#include "sstree/tree_format.h"

namespace blsm::sstree {

class TreeIterator;

// Read side of an on-disk tree component. Immutable once opened; safe for
// concurrent readers. Point lookups consult the component's Bloom filter
// first (zero I/O on a negative), then descend the index through the shared
// block cache — with indexes cached, one seek per lookup (§3.1.1).
class TreeReader {
 public:
  // `file_id` keys this component's blocks in the shared cache; `cache` may
  // be nullptr (every read goes to the file — used to measure cold-cache
  // seek counts).
  static Status Open(Env* env, BlockCache* cache, uint64_t file_id,
                     const std::string& fname,
                     std::unique_ptr<TreeReader>* out);

  ~TreeReader();
  TreeReader(const TreeReader&) = delete;
  TreeReader& operator=(const TreeReader&) = delete;

  struct GetResult {
    RecordType type;
    std::string value;
    SequenceNumber seq;
  };

  // Returns the newest record for user_key, or nullopt. `*io_status` (if
  // non-null) receives any I/O error. use_bloom=false is the ablation knob.
  std::optional<GetResult> Get(const Slice& user_key, bool use_bloom,
                               Status* io_status = nullptr) const;

  // Batched point lookups: results[i] / io_statuses->at(i) correspond to
  // user_keys[i]. `user_keys` must be ascending (duplicates allowed); the
  // batch reuses the most recently decoded data block, so adjacent keys
  // landing in the same block decode it once (`*blocks_coalesced`, if
  // non-null, counts those reuses) and a key past the component's largest
  // short-circuits the rest of the batch. Bloom filtering is the caller's
  // job: every key given here descends the index.
  std::vector<std::optional<GetResult>> MultiGet(
      const std::vector<Slice>& user_keys, std::vector<Status>* io_statuses,
      uint64_t* blocks_coalesced = nullptr) const;

  // True if the Bloom filter admits the key (or there is no filter). This is
  // the §3.1.2 "insert if not exists" fast path: all-negative filters prove
  // absence with zero seeks.
  bool MayContain(const Slice& user_key) const;

  // `sequential` iterators bypass the block cache and are intended for
  // merges and long scans: they read blocks in file order, which the I/O
  // accounting (correctly) treats as sequential bandwidth rather than seeks.
  // Only sequential iterators issue readahead hints.
  std::unique_ptr<TreeIterator> NewIterator(bool sequential = false) const;

  uint64_t num_entries() const { return footer_.num_entries; }
  uint64_t data_bytes() const { return footer_.data_bytes; }
  uint64_t file_size() const { return file_size_; }
  uint64_t file_id() const { return file_id_; }
  bool has_bloom() const { return bloom_ != nullptr; }
  const Footer& footer() const { return footer_; }

  // Reads (and caches) the block at `ptr`; exposed for the iterator.
  // Checksum failures come back as Corruption naming this component's file
  // and the block's offset, so the damage is actionable from any read path.
  Status ReadBlock(const BlockPointer& ptr, bool fill_cache,
                   BlockCache::BlockHandle* out) const;

  // Advisory prefetch passthrough to the underlying file (iterator
  // readahead). Never fails; a no-op on environments without it.
  void HintReadAhead(uint64_t offset, uint64_t len) const {
    file_->ReadAheadHint(offset, len);
  }

  // Offline/paranoid verification: reads and checksums every reachable
  // block — the index levels, every data block, and the Bloom filter —
  // bypassing the cache, and cross-checks the record count against the
  // footer (whose fields have no checksum of their own). On failure returns
  // the error (Corruption for a bad checksum) and, if `bad_offset` is
  // non-null, the file offset of the first damaged block.
  Status VerifyAllBlocks(uint64_t* bad_offset = nullptr) const;

 private:
  TreeReader() = default;

  // Recursive descent for VerifyAllBlocks: `depth` counts index levels
  // consumed so far; at depth == footer_.index_levels the block is data,
  // its records are tallied into `entries`, and `data_end` tracks the
  // furthest data-block end seen.
  Status VerifyBlockAt(const BlockPointer& ptr, uint32_t depth,
                       uint64_t* bad_offset, uint64_t* entries,
                       uint64_t* data_end) const;

  Env* env_ = nullptr;
  BlockCache* cache_ = nullptr;
  uint64_t file_id_ = 0;
  uint64_t file_size_ = 0;
  std::string fname_;
  std::unique_ptr<RandomAccessFile> file_;
  Footer footer_;
  std::unique_ptr<BloomFilter> bloom_;
};

// Forward iterator over a component in internal-key order, descending the
// multi-level index with one cursor per level.
class TreeIterator {
 public:
  TreeIterator(const TreeReader* tree, bool sequential);

  bool Valid() const { return valid_; }
  void SeekToFirst();
  void Seek(const Slice& internal_key_target);
  void Next();

  Slice key() const;    // internal key
  Slice value() const;

  Status status() const { return status_; }

 private:
  struct Level {
    BlockCache::BlockHandle handle;
    std::unique_ptr<BlockCursor> cursor;
  };

  // Loads the child block pointed to by levels_[i]'s current entry into
  // levels_[i+1].
  bool DescendFrom(size_t i, const Slice* seek_target);
  // Advances the deepest advanceable ancestor and re-descends.
  void AdvanceLeaf();

  const TreeReader* tree_;
  bool sequential_;
  std::vector<Level> levels_;  // [0] = root ... back() = data block
  bool valid_ = false;
  Status status_;
  // Merge inputs (sequential_) read to the end, and data blocks sit
  // contiguously from offset 0 in build order, so "the next blocks in the
  // file" are exactly the blocks this iterator will visit next. Each time
  // the traversal catches up with the hinted frontier, the next fixed
  // window is hinted. Scans never hint: their hinted-but-unread tail is
  // wasted IO, and on buffered storage each hint measured a net loss
  // (EXPERIMENTS.md, "IO backend").
  uint64_t readahead_until_ = 0;
};

}  // namespace blsm::sstree

#endif  // BLSM_SSTREE_TREE_READER_H_
