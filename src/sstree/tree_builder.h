#ifndef BLSM_SSTREE_TREE_BUILDER_H_
#define BLSM_SSTREE_TREE_BUILDER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "sstree/block.h"
#include "sstree/tree_format.h"

namespace blsm::sstree {

// Deferred-execution sink for builder file appends. An implementation runs
// submitted tasks asynchronously but IN SUBMISSION ORDER with respect to any
// one file (the builder relies on that: block offsets are assigned at
// enqueue time, so reordered appends would interleave the file). Submit may
// block for backpressure; after any task fails, Submit fails fast with the
// first error and drops the new task. Drain blocks until everything
// submitted has run and returns the first error.
//
// The interface lives here (not in the engine layer) so sstree stays free
// of engine dependencies; engine::BackgroundRunner::TaskPipeline is the
// production implementation.
class AppendExecutor {
 public:
  virtual ~AppendExecutor() = default;
  virtual Status Submit(std::function<Status()> task) = 0;
  virtual Status Drain() = 0;
};

struct TreeBuilderOptions {
  size_t block_size = 4096;  // Appendix A.2: 4 KiB data pages
  // Bloom filter at BloomFilter's default 10 bits per key: <1% false
  // positives (§4.4.3).
  bool build_bloom = true;
  // When set, sealed blocks are handed to this executor instead of being
  // Append()ed inline, overlapping the builder's compute (sorting the next
  // block, checksumming) with file IO. Offsets are assigned at submission,
  // so the executor must preserve per-file submission order. The builder
  // drains before Sync/Close and before Abandon. Not owned.
  AppendExecutor* append_executor = nullptr;
};

// Streams sorted records into a new on-disk tree component. Records must be
// Add()ed in strictly increasing internal-key order (merges produce exactly
// that). Single-threaded: one builder per merge.
class TreeBuilder {
 public:
  TreeBuilder(Env* env, std::string fname, TreeBuilderOptions options);
  ~TreeBuilder();
  TreeBuilder(const TreeBuilder&) = delete;
  TreeBuilder& operator=(const TreeBuilder&) = delete;

  // Must be called once before Add.
  Status Open();

  Status Add(const Slice& internal_key, const Slice& value);

  // Writes index levels, Bloom filter and footer, then syncs the file. No
  // Adds may follow.
  Status Finish();

  // Abandons the build; the caller deletes the file.
  void Abandon();

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_size() const { return offset_; }
  const std::string& smallest_key() const { return smallest_; }
  const std::string& largest_key() const { return largest_; }

 private:
  Status FlushDataBlock();
  Status WriteBlock(const Slice& payload, BlockPointer* out);
  // Appends `data` at the current offset, inline or via the executor.
  Status AppendSealed(std::string data);
  // Waits out the executor's queue (no-op without one).
  Status DrainAppends();

  Env* env_;
  std::string fname_;
  TreeBuilderOptions options_;
  std::unique_ptr<WritableFile> file_;

  BlockBuilder data_block_;
  std::string last_key_in_block_;
  std::vector<std::pair<std::string, BlockPointer>> level0_index_;
  std::vector<uint64_t> user_key_hashes_;  // for the Bloom filter
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t data_bytes_ = 0;
  std::string smallest_;
  std::string largest_;
  bool finished_ = false;
};

}  // namespace blsm::sstree

#endif  // BLSM_SSTREE_TREE_BUILDER_H_
