#include "io/env.h"

namespace blsm {

EnvIoCounters::Snapshot EnvIoCounters::Snapshot::operator-(
    const Snapshot& b) const {
  Snapshot d;
  d.read_ops = read_ops - b.read_ops;
  d.read_seeks = read_seeks - b.read_seeks;
  d.read_bytes = read_bytes - b.read_bytes;
  d.write_ops = write_ops - b.write_ops;
  d.write_seeks = write_seeks - b.write_seeks;
  d.write_bytes = write_bytes - b.write_bytes;
  d.syncs = syncs - b.syncs;
  d.multiread_batches = multiread_batches - b.multiread_batches;
  d.multiread_requests = multiread_requests - b.multiread_requests;
  d.ring_writes = ring_writes - b.ring_writes;
  d.direct_write_fallbacks = direct_write_fallbacks - b.direct_write_fallbacks;
  return d;
}

EnvIoCounters::Snapshot EnvIoCounters::snapshot() const {
  Snapshot s;
  s.read_ops = read_ops.load();
  s.read_seeks = read_seeks.load();
  s.read_bytes = read_bytes.load();
  s.write_ops = write_ops.load();
  s.write_seeks = write_seeks.load();
  s.write_bytes = write_bytes.load();
  s.syncs = syncs.load();
  s.multiread_batches = multiread_batches.load();
  s.multiread_requests = multiread_requests.load();
  s.ring_writes = ring_writes.load();
  s.direct_write_fallbacks = direct_write_fallbacks.load();
  return s;
}

Status RandomAccessFile::MultiRead(ReadRequest* reqs, size_t n) const {
  for (size_t i = 0; i < n; i++) {
    reqs[i].status =
        Read(reqs[i].offset, reqs[i].len, &reqs[i].result, reqs[i].scratch);
  }
  return Status::OK();
}

Status Env::RemoveDirRecursive(const std::string& dirname) {
  std::vector<std::string> children;
  Status s = GetChildren(dirname, &children);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  for (const auto& child : children) {
    std::string path = dirname + "/" + child;
    Status rs = RemoveFile(path);
    if (!rs.ok()) {
      // Not a plain file (or already gone): treat it as a subdirectory.
      rs = RemoveDirRecursive(path);
      if (!rs.ok()) return rs;
    }
  }
  return RemoveDir(dirname);
}

Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname,
                         bool sync) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(data);
  if (s.ok() && sync) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) {
    env->RemoveFile(fname).IgnoreError(
        "best-effort cleanup; the write failure below is the real error");
  }
  return s;
}

Status ReadFileToString(Env* env, const std::string& fname, std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  static const size_t kBufferSize = 64 << 10;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) break;
    if (fragment.empty()) break;
    data->append(fragment.data(), fragment.size());
  }
  return s;
}

}  // namespace blsm
