#ifndef BLSM_SERVER_CLIENT_H_
#define BLSM_SERVER_CLIENT_H_

// Blocking client for the blsm_server wire protocol. Two usage levels:
//
//   * the synchronous helpers (Put/Get/...) issue one request and wait for
//     its response — convenient for tests and tools;
//   * the raw Send/Recv pair lets a benchmark pipeline: encode any number
//     of frames (wire_protocol.h encoders + NextId), push them with Send,
//     and drain responses with Recv, matching by request_id. Responses from
//     different shards return out of order by design.
//
// Not thread-safe; one Client per thread. The one exception is pipelining:
// one thread may Send while another Recvs, as they share only the socket.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/wire_protocol.h"
#include "util/status.h"

namespace blsm::server {

class Client {
 public:
  static Status Connect(const std::string& host, uint16_t port,
                        std::unique_ptr<Client>* out);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Put(const Slice& key, const Slice& value);
  // NotFound when the key is absent.
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  // out[i] = (found, value) for keys[i].
  Status MultiGet(const std::vector<Slice>& keys,
                  std::vector<std::pair<bool, std::string>>* out);
  Status WriteBatch(const std::vector<WireBatchEntry>& entries);
  Status Scan(const Slice& start, uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* out);
  // Appends `delta` to the key's value (creates the key if absent).
  Status Rmw(const Slice& key, const Slice& delta);
  Status Stats(std::map<std::string, uint64_t>* out);

  // --- pipelined use --------------------------------------------------------

  uint64_t NextId() { return next_id_++; }
  // Pushes pre-encoded request frames onto the socket.
  Status Send(const std::string& frames);
  // Blocks for the next response frame. NotFound("eof") on orderly server
  // close between frames. Reads through a buffer, so a burst of responses
  // that arrived together costs one recv.
  Status Recv(Response* out);

 private:
  explicit Client(int fd) : fd_(fd), recv_buf_(64 * 1024) {}

  // Sends one encoded request and waits for its response (single request in
  // flight, so the next frame is the answer).
  Status Call(const std::string& frame, uint64_t id, Response* out);

  int fd_;
  uint64_t next_id_ = 1;
  FrameReader reader_;          // buffered response bytes
  std::vector<char> recv_buf_;
};

}  // namespace blsm::server

#endif  // BLSM_SERVER_CLIENT_H_
