#include "sstree/tree_builder.h"

#include <cassert>

#include "bloom/bloom_filter.h"
#include "lsm/record.h"

namespace blsm::sstree {

TreeBuilder::TreeBuilder(Env* env, std::string fname,
                         TreeBuilderOptions options)
    : env_(env), fname_(std::move(fname)), options_(options) {}

Status TreeBuilder::Open() { return env_->NewWritableFile(fname_, &file_); }

Status TreeBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(!finished_);
  assert(last_key_in_block_.empty() ||
         CompareInternalKey(last_key_in_block_, internal_key) < 0);

  if (smallest_.empty() && num_entries_ == 0) {
    smallest_.assign(internal_key.data(), internal_key.size());
  }
  largest_.assign(internal_key.data(), internal_key.size());

  data_block_.Add(internal_key, value);
  last_key_in_block_.assign(internal_key.data(), internal_key.size());
  num_entries_++;
  if (options_.build_bloom) {
    user_key_hashes_.push_back(
        BloomFilter::KeyHash(ExtractUserKey(internal_key)));
  }

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    return FlushDataBlock();
  }
  return Status::OK();
}

Status TreeBuilder::FlushDataBlock() {
  if (data_block_.empty()) return Status::OK();
  BlockPointer ptr;
  Status s = WriteBlock(data_block_.Finish(), &ptr);
  if (!s.ok()) return s;
  level0_index_.emplace_back(last_key_in_block_, ptr);
  data_block_.Reset();
  last_key_in_block_.clear();
  return Status::OK();
}

Status TreeBuilder::WriteBlock(const Slice& payload, BlockPointer* out) {
  std::string sealed;
  SealBlock(payload, &sealed);
  out->offset = offset_;
  out->size = sealed.size();
  return AppendSealed(sealed);
}

Status TreeBuilder::AppendSealed(const Slice& data) {
  offset_ += data.size();
  return file_->Append(data);
}

Status TreeBuilder::Finish() {
  assert(!finished_);
  finished_ = true;
  Status s = FlushDataBlock();
  if (!s.ok()) return s;
  data_bytes_ = offset_;

  Footer footer;
  footer.num_entries = num_entries_;
  footer.data_bytes = data_bytes_;

  // Build index levels bottom-up until a single block remains.
  std::vector<std::pair<std::string, BlockPointer>> level = level0_index_;
  uint32_t levels = 0;
  if (!level.empty()) {
    while (true) {
      levels++;
      std::vector<std::pair<std::string, BlockPointer>> parent;
      BlockBuilder builder;
      std::string last_key;
      std::string encoded_ptr;
      size_t entries_in_block = 0;
      auto flush_index_block = [&]() -> Status {
        if (entries_in_block == 0) return Status::OK();
        BlockPointer ptr;
        Status st = WriteBlock(builder.Finish(), &ptr);
        if (!st.ok()) return st;
        parent.emplace_back(last_key, ptr);
        builder.Reset();
        entries_in_block = 0;
        return Status::OK();
      };
      for (const auto& [key, ptr] : level) {
        encoded_ptr.clear();
        ptr.EncodeTo(&encoded_ptr);
        builder.Add(key, encoded_ptr);
        last_key = key;
        entries_in_block++;
        if (builder.CurrentSizeEstimate() >= options_.block_size) {
          s = flush_index_block();
          if (!s.ok()) return s;
        }
      }
      s = flush_index_block();
      if (!s.ok()) return s;
      if (parent.size() == 1) {
        footer.root_offset = parent[0].second.offset;
        footer.root_size = parent[0].second.size;
        break;
      }
      level = std::move(parent);
    }
  }
  footer.index_levels = levels;

  // Bloom filter over user keys (§4.4.3): sized exactly from the tracked
  // key count so the false-positive rate stays below 1%.
  if (options_.build_bloom && !user_key_hashes_.empty()) {
    BloomFilter filter(user_key_hashes_.size());
    for (uint64_t h : user_key_hashes_) filter.InsertHash(h);
    std::string encoded;
    filter.EncodeTo(&encoded);
    footer.bloom_offset = offset_;
    footer.bloom_size = encoded.size();
    s = AppendSealed(encoded);
    if (!s.ok()) return s;
  }

  std::string footer_bytes;
  footer.EncodeTo(&footer_bytes);
  s = AppendSealed(footer_bytes);
  if (!s.ok()) return s;

  s = file_->Sync();
  if (!s.ok()) return s;
  return file_->Close();
}

void TreeBuilder::Abandon() {
  finished_ = true;
  if (file_ != nullptr) {
    file_->Close().IgnoreError(
        "abandoned output is deleted by the caller either way");
    file_.reset();
  }
}

}  // namespace blsm::sstree
