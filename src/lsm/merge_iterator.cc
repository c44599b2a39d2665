#include "lsm/merge_iterator.h"

namespace blsm {

namespace {

class MemTableInternalIterator final : public InternalIterator {
 public:
  explicit MemTableInternalIterator(std::shared_ptr<MemTable> mem)
      : mem_(std::move(mem)), it_(mem_.get()) {}

  bool Valid() const override { return it_.Valid(); }
  void SeekToFirst() override { it_.SeekToFirst(); }
  void Seek(const Slice& ikey) override { it_.Seek(ikey); }
  void Next() override { it_.Next(); }
  Slice key() const override { return it_.internal_key(); }
  Slice value() const override { return it_.value(); }

  void MarkConsumed() override {
    it_.MarkConsumed();
    mem_->NoteConsumed(it_.entry_bytes());
  }

 private:
  std::shared_ptr<MemTable> mem_;
  MemTable::Iterator it_;
};

class TreeInternalIterator final : public InternalIterator {
 public:
  TreeInternalIterator(const sstree::TreeReader* tree, bool sequential)
      : it_(tree->NewIterator(sequential)) {}

  bool Valid() const override { return it_->Valid(); }
  void SeekToFirst() override { it_->SeekToFirst(); }
  void Seek(const Slice& ikey) override { it_->Seek(ikey); }
  void Next() override { it_->Next(); }
  Slice key() const override { return it_->key(); }
  Slice value() const override { return it_->value(); }
  Status status() const override { return it_->status(); }

 private:
  std::unique_ptr<sstree::TreeIterator> it_;
};

}  // namespace

std::unique_ptr<InternalIterator> NewMemTableIterator(
    std::shared_ptr<MemTable> mem) {
  return std::make_unique<MemTableInternalIterator>(std::move(mem));
}

std::unique_ptr<InternalIterator> NewTreeComponentIterator(
    const sstree::TreeReader* tree, bool sequential) {
  return std::make_unique<TreeInternalIterator>(tree, sequential);
}

void MergingIterator::SeekToFirst() {
  for (auto& child : children_) child->SeekToFirst();
  FindSmallest();
}

void MergingIterator::Seek(const Slice& ikey) {
  for (auto& child : children_) child->Seek(ikey);
  FindSmallest();
}

void MergingIterator::Next() {
  current_->Next();
  FindSmallest();
}

void MergingIterator::FindSmallest() {
  InternalIterator* smallest = nullptr;
  for (auto& child : children_) {
    if (!child->Valid()) continue;
    if (smallest == nullptr ||
        CompareInternalKey(child->key(), smallest->key()) < 0) {
      smallest = child.get();
    }
  }
  current_ = smallest;
}

Status MergingIterator::status() const {
  for (const auto& child : children_) {
    Status s = child->status();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace blsm
