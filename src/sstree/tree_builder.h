#ifndef BLSM_SSTREE_TREE_BUILDER_H_
#define BLSM_SSTREE_TREE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "sstree/block.h"
#include "sstree/tree_format.h"

namespace blsm::sstree {

struct TreeBuilderOptions {
  size_t block_size = 4096;  // Appendix A.2: 4 KiB data pages
  // Bloom filter at BloomFilter's default 10 bits per key: <1% false
  // positives (§4.4.3).
  bool build_bloom = true;
};

// Streams sorted records into a new on-disk tree component. Records must be
// Add()ed in strictly increasing internal-key order (merges produce exactly
// that). Single-threaded: one builder per merge, and each sealed block is
// appended to the file on the calling thread.
class TreeBuilder {
 public:
  TreeBuilder(Env* env, std::string fname, TreeBuilderOptions options);
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
  // Appends `data` to the file at the current offset.
  Status AppendSealed(const Slice& data);

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
