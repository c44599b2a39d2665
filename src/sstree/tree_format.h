#ifndef BLSM_SSTREE_TREE_FORMAT_H_
#define BLSM_SSTREE_TREE_FORMAT_H_

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace blsm::sstree {

// On-disk layout of a tree component (an append-only B-tree, Figure 1's C1
// or C2):
//
//   [data block]*            -- records, written in key order
//   [index block, level 1]*  -- (last key of child, pointer) per data block
//   [index block, level 2]*  -- ... repeated until one root block ...
//   [bloom filter]           -- serialized BloomFilter over user keys
//   [footer]                 -- fixed-size locator, written last
//
// The file is written strictly append-only: merges stream data blocks out,
// then emit the index bottom-up, the Bloom filter, and the footer. A
// component is valid iff its footer is intact, so a crash mid-build leaves a
// garbage file that recovery simply deletes (it is not yet in the manifest).
struct Footer {
  static constexpr uint64_t kMagic = 0xb15a7ee0f00dull;
  static constexpr size_t kEncodedLength = 8 * 7 + 4;
  // The footer carries no checksum, and readers size per-level state by
  // index_levels. Every real tree is far shallower than this.
  static constexpr uint32_t kMaxIndexLevels = 32;

  uint64_t root_offset = 0;
  uint64_t root_size = 0;
  uint32_t index_levels = 0;  // 0 => empty tree (no blocks at all)
  uint64_t bloom_offset = 0;
  uint64_t bloom_size = 0;
  uint64_t num_entries = 0;
  uint64_t data_bytes = 0;  // total size of the data-block region

  void EncodeTo(std::string* dst) const {
    PutFixed64(dst, root_offset);
    PutFixed64(dst, root_size);
    PutFixed32(dst, index_levels);
    PutFixed64(dst, bloom_offset);
    PutFixed64(dst, bloom_size);
    PutFixed64(dst, num_entries);
    PutFixed64(dst, data_bytes);
    PutFixed64(dst, kMagic);
  }

  Status DecodeFrom(Slice input) {
    if (input.size() < kEncodedLength) {
      return Status::Corruption("footer too short");
    }
    GetFixed64(&input, &root_offset);
    GetFixed64(&input, &root_size);
    GetFixed32(&input, &index_levels);
    GetFixed64(&input, &bloom_offset);
    GetFixed64(&input, &bloom_size);
    GetFixed64(&input, &num_entries);
    GetFixed64(&input, &data_bytes);
    uint64_t magic;
    GetFixed64(&input, &magic);
    if (magic != kMagic) return Status::Corruption("bad tree footer magic");
    if (index_levels > kMaxIndexLevels) {
      return Status::Corruption("implausible tree footer index_levels");
    }
    return Status::OK();
  }
};

}  // namespace blsm::sstree

#endif  // BLSM_SSTREE_TREE_FORMAT_H_
