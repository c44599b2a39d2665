// Robustness fuzzing for the wire protocol and the live server: truncated
// frames, oversized length prefixes, garbage opcodes, forged element counts,
// bit-flipped valid requests, and mid-frame disconnects. The contract under
// test: every decoder is total (returns false rather than reading out of
// bounds), and the server answers hostile bytes with a clean per-connection
// error — never a crash, hang, or leak (the ASan/TSan CI lanes run this
// binary to hold the "never" part).

#include "server/wire_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/mem_env.h"
#include "io/socket.h"
#include "server/client.h"
#include "server/server.h"
#include "util/coding.h"
#include "util/random.h"

namespace blsm {
namespace {

// --- pure decoder fuzz (no sockets) ----------------------------------------

std::string RandomBytes(Random* rng, size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; i++) {
    out[i] = static_cast<char>(rng->Uniform(256));
  }
  return out;
}

TEST(WireFuzzTest, DecodeRequestNeverCrashesOnGarbage) {
  Random rng(20240607);
  for (int iter = 0; iter < 20000; iter++) {
    std::string payload = RandomBytes(&rng, rng.Uniform(200));
    server::Request request;
    // Either decodes or returns false; ASan catches any overread.
    server::DecodeRequest(payload, &request);
  }
}

TEST(WireFuzzTest, DecodeRequestSurvivesMutatedValidFrames) {
  Random rng(42);
  for (int iter = 0; iter < 5000; iter++) {
    std::string frame;
    switch (iter % 5) {
      case 0:
        server::EncodePut(&frame, 7, "key", "value");
        break;
      case 1:
        server::EncodeMultiGet(&frame, 8, {"a", "bb", "ccc"});
        break;
      case 2:
        server::EncodeWriteBatch(&frame, 9,
                                 {{false, "k1", "v1"}, {true, "k2", ""}});
        break;
      case 3:
        server::EncodeScan(&frame, 10, "start", 100);
        break;
      case 4:
        server::EncodeRmw(&frame, 11, "key", "delta");
        break;
    }
    // Flip 1-4 random bytes anywhere in the frame, then decode the payload
    // (past the 4-byte length prefix, using the *original* length so we
    // also exercise truncated/padded views).
    std::string mutated = frame;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; f++) {
      size_t pos = rng.Uniform(static_cast<uint64_t>(mutated.size()));
      mutated[pos] = static_cast<char>(rng.Uniform(256));
    }
    if (mutated.size() > server::kFrameHeaderBytes) {
      Slice payload(mutated.data() + server::kFrameHeaderBytes,
                    mutated.size() - server::kFrameHeaderBytes);
      server::Request request;
      server::DecodeRequest(payload, &request);
    }
    // Truncation at every boundary of a valid frame.
    if (iter % 50 == 0) {
      for (size_t cut = server::kFrameHeaderBytes; cut < frame.size(); cut++) {
        Slice payload(frame.data() + server::kFrameHeaderBytes,
                      cut - server::kFrameHeaderBytes);
        server::Request request;
        server::DecodeRequest(payload, &request);
      }
    }
  }
}

TEST(WireFuzzTest, ForgedCountsDoNotAllocate) {
  // A MULTIGET body claiming 2^31 keys in a 12-byte payload must decode to
  // false, not attempt a 2^31-element reserve.
  std::string payload;
  payload.push_back(static_cast<char>(server::OpCode::kMultiGet));
  PutFixed64(&payload, 1);
  PutFixed32(&payload, 0x7fffffffu);
  server::Request request;
  EXPECT_FALSE(server::DecodeRequest(payload, &request));

  payload.clear();
  payload.push_back(static_cast<char>(server::OpCode::kWriteBatch));
  PutFixed64(&payload, 2);
  PutFixed32(&payload, 0xffffffffu);
  EXPECT_FALSE(server::DecodeRequest(payload, &request));

  // Response-side decoders are total too (a hostile server shouldn't crash
  // the client).
  std::vector<std::pair<bool, std::string>> mg;
  std::string body;
  PutFixed32(&body, 0x40000000u);
  EXPECT_FALSE(server::DecodeMultiGetBody(body, &mg));
  std::vector<std::pair<std::string, std::string>> scan;
  EXPECT_FALSE(server::DecodeScanBody(body, &scan));
  std::vector<std::pair<std::string, uint64_t>> st;
  EXPECT_FALSE(server::DecodeStatsBody(body, &st));
}

TEST(WireFuzzTest, FrameReaderHandlesArbitraryChunking) {
  Random rng(777);
  // A valid stream of frames delivered in random-sized chunks must yield
  // exactly the original frames.
  std::string stream;
  int frames_encoded = 0;
  for (int i = 0; i < 100; i++) {
    server::EncodePut(&stream, static_cast<uint64_t>(i),
                      "k" + std::to_string(i),
                      RandomBytes(&rng, rng.Uniform(300)));
    frames_encoded++;
  }
  server::FrameReader reader;
  size_t off = 0;
  int frames_decoded = 0;
  while (true) {
    Slice payload;
    bool bad = false;
    while (reader.Next(&payload, &bad)) {
      server::Request request;
      EXPECT_TRUE(server::DecodeRequest(payload, &request));
      EXPECT_EQ(request.op, server::OpCode::kPut);
      frames_decoded++;
      reader.Pop();
    }
    EXPECT_FALSE(bad);
    if (off >= stream.size()) break;
    size_t n = std::min(stream.size() - off,
                        static_cast<size_t>(rng.Uniform(64) + 1));
    reader.Feed(stream.data() + off, n);
    off += n;
  }
  EXPECT_EQ(frames_decoded, frames_encoded);
}

TEST(WireFuzzTest, FrameReaderRejectsOversizedLength) {
  server::FrameReader reader;
  std::string header;
  PutFixed32(&header, server::kMaxFrameBytes + 1);
  reader.Feed(header.data(), header.size());
  Slice payload;
  bool bad = false;
  EXPECT_FALSE(reader.Next(&payload, &bad));
  EXPECT_TRUE(bad);
}

// --- live-server fuzz -------------------------------------------------------

class ServerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::ServerOptions options;
    options.dir = "/fuzz";
    options.shards = 2;
    options.engine.env = &env_;
    ASSERT_TRUE(server::Server::Start(options, &server_).ok());
  }

  // The liveness probe: after every attack the server must still answer a
  // well-formed client correctly.
  void ExpectServerAlive() {
    std::unique_ptr<server::Client> client;
    ASSERT_TRUE(
        server::Client::Connect("127.0.0.1", server_->port(), &client).ok());
    ASSERT_TRUE(client->Put("alive", "yes").ok());
    std::string value;
    ASSERT_TRUE(client->Get("alive", &value).ok());
    EXPECT_EQ(value, "yes");
  }

  int RawConnect() {
    int fd = -1;
    EXPECT_TRUE(net::Connect("127.0.0.1", server_->port(), &fd).ok());
    return fd;
  }

  MemEnv env_;
  std::unique_ptr<server::Server> server_;
};

TEST_F(ServerFuzzTest, RandomGarbageStreams) {
  Random rng(1234);
  for (int conn = 0; conn < 20; conn++) {
    int fd = RawConnect();
    std::string garbage = RandomBytes(&rng, 64 + rng.Uniform(2000));
    // Best effort: the server may legitimately close mid-send.
    net::SendAll(fd, garbage.data(), garbage.size())
        .IgnoreError("server may close on bad frame");
    net::CloseFd(fd);
  }
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, OversizedLengthPrefixClosesConnection) {
  int fd = RawConnect();
  std::string header;
  PutFixed32(&header, 0xffffffffu);
  net::SendAll(fd, header.data(), header.size())
      .IgnoreError("close race is fine");
  // The server must close this connection: a blocking read sees EOF rather
  // than hanging.
  char byte;
  Status s = net::RecvAll(fd, &byte, 1);
  EXPECT_FALSE(s.ok());
  net::CloseFd(fd);
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, MidFrameDisconnects) {
  Random rng(555);
  for (int conn = 0; conn < 30; conn++) {
    int fd = RawConnect();
    std::string frame;
    server::EncodePut(&frame, 1, "key", RandomBytes(&rng, 500));
    // Send a strict prefix — the frame header promises more bytes than ever
    // arrive — then vanish.
    size_t cut = 1 + rng.Uniform(static_cast<uint64_t>(frame.size() - 1));
    net::SendAll(fd, frame.data(), cut).IgnoreError("close race is fine");
    net::CloseFd(fd);
  }
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, GarbageOpcodesAnsweredInBand) {
  Random rng(999);
  int fd = RawConnect();
  for (int i = 0; i < 50; i++) {
    // Correctly framed, parseable header, nonsense opcode and body.
    std::string payload;
    payload.push_back(static_cast<char>(128 + rng.Uniform(128)));
    PutFixed64(&payload, static_cast<uint64_t>(i));
    payload += RandomBytes(&rng, rng.Uniform(32));
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
    frame += payload;
    ASSERT_TRUE(net::SendAll(fd, frame.data(), frame.size()).ok());
    // Each elicits exactly one kBadRequest response with the echoed id.
    char hdr[4];
    ASSERT_TRUE(net::RecvAll(fd, hdr, sizeof(hdr)).ok());
    uint32_t len = DecodeFixed32(hdr);
    ASSERT_LE(len, server::kMaxFrameBytes);
    std::string response(len, '\0');
    ASSERT_TRUE(net::RecvAll(fd, response.data(), len).ok());
    server::WireStatus status;
    uint64_t id = 0;
    Slice body;
    ASSERT_TRUE(server::DecodeResponseHeader(response, &status, &id, &body));
    EXPECT_EQ(status, server::WireStatus::kBadRequest);
    EXPECT_EQ(id, static_cast<uint64_t>(i));
  }
  net::CloseFd(fd);
  ExpectServerAlive();
}

TEST_F(ServerFuzzTest, MutatedValidTrafficNeverKillsServer) {
  Random rng(31337);
  for (int conn = 0; conn < 15; conn++) {
    int fd = RawConnect();
    std::string stream;
    for (int i = 0; i < 20; i++) {
      switch (rng.Uniform(4)) {
        case 0:
          server::EncodePut(&stream, static_cast<uint64_t>(i), "fk", "fv");
          break;
        case 1:
          server::EncodeGet(&stream, static_cast<uint64_t>(i), "fk");
          break;
        case 2:
          server::EncodeMultiGet(&stream, static_cast<uint64_t>(i),
                                 {"a", "b"});
          break;
        case 3:
          server::EncodeScan(&stream, static_cast<uint64_t>(i), "fk", 10);
          break;
      }
    }
    // A few byte flips somewhere in the stream corrupt lengths, opcodes, or
    // bodies — all three classes must be survivable.
    for (int f = 0; f < 4; f++) {
      size_t pos = rng.Uniform(static_cast<uint64_t>(stream.size()));
      stream[pos] = static_cast<char>(rng.Uniform(256));
    }
    net::SendAll(fd, stream.data(), stream.size())
        .IgnoreError("server may close on bad frame");
    net::CloseFd(fd);
  }
  ExpectServerAlive();
}

}  // namespace
}  // namespace blsm
