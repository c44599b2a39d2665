#ifndef BLSM_SERVER_SERVER_H_
#define BLSM_SERVER_SERVER_H_

// Shard-per-core network front-end over N kv::Engine shards.
//
// One acceptor/event-loop thread owns every socket: it accepts connections,
// reads frames and decodes requests. Each loop iteration first decodes every
// ready frame, then hands each shard its tasks under one queue lock with one
// wake-up. One worker thread per shard drains that queue. The worker is
// where the perf story lives: it drains whole runs of queued writes from
// *different* connections into one kv::WriteBatch, so one engine Write —
// and therefore one WAL group-commit sync — acknowledges many clients
// (server.syncs_per_op falls well below 1 under concurrent sync writers).
// Consecutive GETs coalesce into one MultiGet the same way.
//
// Replies batch the same way. The worker encodes each response of a run
// into its outbox, one buffer per connection, and after the run writes each
// buffer with one send() (server.response_writes). It flushes before it
// lowers the shard's unfinished-task count, so a shard that reads idle has
// answered every request it applied.
//
// One exception skips the queue: when an iteration decodes exactly one
// request, it is a GET, and its shard has no task queued or running, the
// loop thread runs the Get itself and answers (server.reads_inline). An
// idle shard has applied every earlier request, so the per-key ordering
// guarantee holds; the worker's wake-up, which the GET would otherwise wait
// for, is saved.
//
// Multi-shard requests (MULTIGET, WRITE_BATCH, SCAN) fan out one sub-task
// per touched shard; the last shard to finish assembles the response into
// its own outbox. WRITE_BATCH is atomic per shard, not across shards — see
// docs/wire_protocol.md.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "engine/kv.h"
#include "util/status.h"

namespace blsm::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read the actual one back from port().
  uint16_t port = 0;
  // Any kv::Open spec ("blsm", "multilevel:tiering", ...), instantiated once
  // per shard under dir/shard-<i>.
  std::string engine_spec = "blsm";
  std::string dir;
  int shards = 1;
  // Per-shard engine options. Size write_buffer_bytes as a per-shard budget.
  kv::CommonOptions engine;
};

class Server {
 public:
  // Opens the shards, binds the listener, and starts the event loop plus one
  // worker per shard. On success the server is live before Start returns.
  static Status Start(const ServerOptions& options,
                      std::unique_ptr<Server>* out);

  ~Server();

  // Idempotent. Stops accepting, drains the shard queues, then closes every
  // connection. In-flight requests finish; responses the kernel cannot take
  // without blocking are dropped.
  void Stop();

  uint16_t port() const;
  int num_shards() const;

  // server.* counters merged with the summed engine stats of every shard.
  std::map<std::string, uint64_t> Stats() const;

 private:
  class Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace blsm::server

#endif  // BLSM_SERVER_SERVER_H_
