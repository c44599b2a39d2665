#include "server/client.h"

#include <cerrno>
#include <cstring>

#include "io/socket.h"

namespace blsm::server {

namespace {

// Maps a response's status byte onto the Status vocabulary the engine API
// uses, so server-backed and in-process tests can share assertions.
Status ToStatus(const Response& r) {
  switch (r.status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kNotFound:
      return Status::NotFound("key not found");
    case WireStatus::kBadRequest:
      return Status::InvalidArgument("server rejected request: " + r.body);
    case WireStatus::kError:
      return Status::IOError("server error: " + r.body);
  }
  return Status::IOError("unknown response status");
}

}  // namespace

Status Client::Connect(const std::string& host, uint16_t port,
                       std::unique_ptr<Client>* out) {
  int fd = -1;
  Status s = net::Connect(host, port, &fd);
  if (!s.ok()) return s;
  out->reset(new Client(fd));
  return Status::OK();
}

Client::~Client() { net::CloseFd(fd_); }

Status Client::Send(const std::string& frames) {
  return net::SendAll(fd_, frames.data(), frames.size());
}

Status Client::Recv(Response* out) {
  Slice payload;
  bool bad = false;
  while (!reader_.Next(&payload, &bad)) {
    if (bad) return Status::Corruption("response frame over kMaxFrameBytes");
    size_t n = 0;
    net::IoResult r =
        net::RecvSome(fd_, recv_buf_.data(), recv_buf_.size(), &n);
    if (r == net::IoResult::kEof) {
      if (reader_.buffered_bytes() == 0) return Status::NotFound("eof");
      return Status::IOError("connection closed mid-frame");
    }
    if (r != net::IoResult::kOk) {
      return Status::IOError(std::string("recv: ") + strerror(errno));
    }
    reader_.Feed(recv_buf_.data(), n);
  }
  Slice body;
  bool ok = DecodeResponseHeader(payload, &out->status, &out->id, &body);
  if (ok) out->body.assign(body.data(), body.size());
  reader_.Pop();
  if (!ok) return Status::Corruption("malformed response frame");
  return Status::OK();
}

Status Client::Call(const std::string& frame, uint64_t id, Response* out) {
  Status s = Send(frame);
  if (!s.ok()) return s;
  s = Recv(out);
  if (!s.ok()) return s;
  if (out->id != id) {
    return Status::Corruption("response id mismatch (pipelining misuse?)");
  }
  return Status::OK();
}

Status Client::Put(const Slice& key, const Slice& value) {
  uint64_t id = NextId();
  std::string frame;
  EncodePut(&frame, id, key, value);
  Response r;
  Status s = Call(frame, id, &r);
  return s.ok() ? ToStatus(r) : s;
}

Status Client::Get(const Slice& key, std::string* value) {
  uint64_t id = NextId();
  std::string frame;
  EncodeGet(&frame, id, key);
  Response r;
  Status s = Call(frame, id, &r);
  if (!s.ok()) return s;
  if (r.status == WireStatus::kOk) *value = std::move(r.body);
  return ToStatus(r);
}

Status Client::Delete(const Slice& key) {
  uint64_t id = NextId();
  std::string frame;
  EncodeDelete(&frame, id, key);
  Response r;
  Status s = Call(frame, id, &r);
  return s.ok() ? ToStatus(r) : s;
}

Status Client::MultiGet(const std::vector<Slice>& keys,
                        std::vector<std::pair<bool, std::string>>* out) {
  uint64_t id = NextId();
  std::string frame;
  EncodeMultiGet(&frame, id, keys);
  Response r;
  Status s = Call(frame, id, &r);
  if (!s.ok()) return s;
  if (r.status != WireStatus::kOk) return ToStatus(r);
  if (!DecodeMultiGetBody(r.body, out) || out->size() != keys.size()) {
    return Status::Corruption("malformed MULTIGET response body");
  }
  return Status::OK();
}

Status Client::WriteBatch(const std::vector<WireBatchEntry>& entries) {
  uint64_t id = NextId();
  std::string frame;
  EncodeWriteBatch(&frame, id, entries);
  Response r;
  Status s = Call(frame, id, &r);
  return s.ok() ? ToStatus(r) : s;
}

Status Client::Scan(const Slice& start, uint32_t limit,
                    std::vector<std::pair<std::string, std::string>>* out) {
  uint64_t id = NextId();
  std::string frame;
  EncodeScan(&frame, id, start, limit);
  Response r;
  Status s = Call(frame, id, &r);
  if (!s.ok()) return s;
  if (r.status != WireStatus::kOk) return ToStatus(r);
  if (!DecodeScanBody(r.body, out)) {
    return Status::Corruption("malformed SCAN response body");
  }
  return Status::OK();
}

Status Client::Rmw(const Slice& key, const Slice& delta) {
  uint64_t id = NextId();
  std::string frame;
  EncodeRmw(&frame, id, key, delta);
  Response r;
  Status s = Call(frame, id, &r);
  return s.ok() ? ToStatus(r) : s;
}

Status Client::Stats(std::map<std::string, uint64_t>* out) {
  uint64_t id = NextId();
  std::string frame;
  EncodeStats(&frame, id);
  Response r;
  Status s = Call(frame, id, &r);
  if (!s.ok()) return s;
  if (r.status != WireStatus::kOk) return ToStatus(r);
  std::vector<std::pair<std::string, uint64_t>> entries;
  if (!DecodeStatsBody(r.body, &entries)) {
    return Status::Corruption("malformed STATS response body");
  }
  out->clear();
  for (auto& [key, value] : entries) (*out)[key] = value;
  return Status::OK();
}

}  // namespace blsm::server
