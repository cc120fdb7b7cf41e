// Deterministic fuzzing of the network-facing wire surfaces: the request
// parser (ParseRequest, BestEffortRequestId, BestEffortModelScope) on
// random and mutated payloads, and FrameReader over a socketpair on
// hostile byte streams — oversized and truncated length prefixes, frames
// split into arbitrary chunks, embedded NULs, and random garbage.
//
// The pass condition: every case ends in an error or a frame (never a
// crash, a hang, or a frame the bytes did not contain), and a payload the
// parser accepts is one the best-effort helpers read the same way. Seeds
// are fixed, so a failure reproduces exactly.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/protocol.h"

namespace tkdc::serve {
namespace {

constexpr int kRandomPayloads = 3000;
constexpr int kMutatedPayloads = 3000;
constexpr int kRandomStreams = 300;

/// Well-formed requests the mutations start from: every verb, scoped and
/// scope-less, with and without timeouts.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = {
      "7 CLASSIFY @users-eu 1.5,-2.25 100",
      "8 CLASSIFY_TRAINING 0.5,0.5",
      "9 CLASSIFY_MC @mc 1,2 5",
      "10 ESTIMATE 1e308,-1e-308",
      "11 INSERT @default 0.1,0.2",
      "12 DELETE 0.1,0.2 0",
      "13 FLUSH @a",
      "14 STATS",
      "15 RELOAD @b /tmp/model.tkdc",
      "16 PING",
      "17 MODELS",
      "18 LOAD @m.v2 /tmp/m.tkdc",
      "19 UNLOAD @m.v2",
  };
  return corpus;
}

/// A byte drawn from an alphabet biased toward the grammar's own tokens
/// and separators, plus the bytes framing and parsing must not trip on.
char RandomByte(Rng& rng) {
  static const std::string alphabet =
      "0123456789 ,.-+eE@_CLASIFYTRNMODEPGHUSKW\r\n\t";
  if (rng.NextBounded(8) == 0) {
    return static_cast<char>(rng.NextBounded(256));  // NULs, high bytes.
  }
  return alphabet[rng.NextBounded(alphabet.size())];
}

std::string RandomPayload(Rng& rng, size_t max_size) {
  std::string payload(rng.NextBounded(max_size + 1), '\0');
  for (char& c : payload) c = RandomByte(rng);
  return payload;
}

/// One random edit: flip, insert, delete, truncate, or duplicate a span.
void Mutate(std::string& payload, Rng& rng) {
  const size_t at = payload.empty() ? 0 : rng.NextBounded(payload.size());
  switch (rng.NextBounded(5)) {
    case 0:
      if (!payload.empty()) payload[at] = RandomByte(rng);
      break;
    case 1:
      payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(at),
                     RandomByte(rng));
      break;
    case 2:
      if (!payload.empty()) payload.erase(at, 1 + rng.NextBounded(4));
      break;
    case 3:
      payload.resize(at);
      break;
    default:
      payload.insert(at, payload.substr(at, 1 + rng.NextBounded(8)));
      break;
  }
}

/// Parses `payload` and checks what an accepted request must satisfy.
void CheckParse(const std::string& payload) {
  const Result<Request> parsed = ParseRequest(payload);
  const uint64_t best_effort_id = BestEffortRequestId(payload);
  const std::string scope = BestEffortModelScope(payload);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.message().empty()) << payload;
    return;
  }
  const Request& request = parsed.value();
  EXPECT_EQ(request.id, best_effort_id) << payload;
  EXPECT_EQ(request.model_id, scope) << payload;
  if (!request.model_id.empty()) {
    EXPECT_TRUE(IsValidModelId(request.model_id)) << payload;
  }
  for (const double x : request.point) {
    EXPECT_TRUE(std::isfinite(x)) << payload;
  }
  EXPECT_GE(request.timeout_ms, -1) << payload;
}

TEST(ServeWireFuzzTest, ParserSurvivesRandomPayloads) {
  Rng rng(0x5eed0001);
  for (int i = 0; i < kRandomPayloads; ++i) {
    CheckParse(RandomPayload(rng, 64));
    // Random tails behind a valid id and verb reach the argument parsers.
    const std::string& base = Corpus()[rng.NextBounded(Corpus().size())];
    const std::string head = base.substr(0, base.find(' ', base.find(' ') + 1));
    CheckParse(head + " " + RandomPayload(rng, 32));
  }
}

TEST(ServeWireFuzzTest, ParserSurvivesMutatedRequests) {
  Rng rng(0x5eed0002);
  for (const std::string& valid : Corpus()) {
    ASSERT_TRUE(ParseRequest(valid).ok()) << valid;
  }
  for (int i = 0; i < kMutatedPayloads; ++i) {
    std::string payload = Corpus()[rng.NextBounded(Corpus().size())];
    const uint64_t edits = 1 + rng.NextBounded(4);
    for (uint64_t e = 0; e < edits; ++e) Mutate(payload, rng);
    CheckParse(payload);
  }
}

/// A socketpair whose writing end a thread feeds (so payloads larger than
/// the socket buffer cannot block the test) and then closes.
class Stream {
 public:
  explicit Stream(std::string bytes, size_t chunk = 0) {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    writer_ = std::thread([this, bytes = std::move(bytes), chunk] {
      size_t sent = 0;
      while (sent < bytes.size()) {
        const size_t want = chunk == 0 ? bytes.size() - sent
                                       : std::min(chunk, bytes.size() - sent);
        // MSG_NOSIGNAL: a reader that stops at an error may hang up first.
        const ssize_t put =
            ::send(fds_[1], bytes.data() + sent, want, MSG_NOSIGNAL);
        if (put <= 0) break;
        sent += static_cast<size_t>(put);
      }
      ::close(fds_[1]);
    });
  }

  ~Stream() {
    ::close(fds_[0]);  // Unblocks a writer the reader abandoned.
    writer_.join();
  }

  int fd() const { return fds_[0]; }

 private:
  int fds_[2] = {-1, -1};
  std::thread writer_;
};

/// What reading a stream to its end produced.
struct Drained {
  std::vector<std::string> frames;
  bool error = false;
  bool hung = false;
};

/// Reads frames until EOF or the first error. Every read is bounded by a
/// deadline; hitting it is reported as a hang.
Drained DrainStream(const Stream& stream, Framing framing) {
  Drained drained;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const std::function<bool()> stop = [&] {
    drained.hung = std::chrono::steady_clock::now() > deadline;
    return drained.hung;
  };
  FrameReader reader(stream.fd(), framing);
  while (true) {
    auto frame = reader.Next(stop);
    if (!frame.ok()) {
      drained.error = true;
      return drained;
    }
    if (!frame.value().has_value()) return drained;
    drained.frames.push_back(std::move(*frame.value()));
  }
}

std::string Prefix(uint32_t length) {
  std::string prefix(4, '\0');
  prefix[0] = static_cast<char>(length >> 24);
  prefix[1] = static_cast<char>(length >> 16);
  prefix[2] = static_cast<char>(length >> 8);
  prefix[3] = static_cast<char>(length);
  return prefix;
}

TEST(ServeWireFuzzTest, OversizedLengthPrefixesAreRejectedUnread) {
  for (const uint32_t length :
       {static_cast<uint32_t>(kMaxFrameBytes) + 1, 0x80000000u, 0xffffffffu}) {
    // A few payload bytes follow; the reader must refuse on the prefix
    // alone instead of buffering toward the announced length.
    const Stream stream(Prefix(length) + "1 PING");
    const Drained drained = DrainStream(stream, Framing::kLengthPrefixed);
    EXPECT_TRUE(drained.error) << length;
    EXPECT_FALSE(drained.hung) << length;
    EXPECT_TRUE(drained.frames.empty()) << length;
  }
}

TEST(ServeWireFuzzTest, FrameAtTheCapIsAccepted) {
  const std::string payload(kMaxFrameBytes, 'x');
  const Stream stream(
      EncodeFrame(payload, Framing::kLengthPrefixed) +
          EncodeFrame("2 PING", Framing::kLengthPrefixed),
      /*chunk=*/65536);
  const Drained drained = DrainStream(stream, Framing::kLengthPrefixed);
  EXPECT_FALSE(drained.error);
  EXPECT_FALSE(drained.hung);
  ASSERT_EQ(drained.frames.size(), 2u);
  EXPECT_EQ(drained.frames[0], payload);
  EXPECT_EQ(drained.frames[1], "2 PING");
}

TEST(ServeWireFuzzTest, TruncatedFramesAreErrorsNotHangs) {
  const std::string frame = EncodeFrame("7 CLASSIFY 1.5,-2.25",
                                        Framing::kLengthPrefixed);
  // Every cut inside the frame: inside the prefix, and inside the payload.
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    const Stream stream(frame.substr(0, cut));
    const Drained drained = DrainStream(stream, Framing::kLengthPrefixed);
    EXPECT_TRUE(drained.error) << "cut at " << cut;
    EXPECT_FALSE(drained.hung) << "cut at " << cut;
    EXPECT_TRUE(drained.frames.empty()) << "cut at " << cut;
  }
}

TEST(ServeWireFuzzTest, FramesSplitIntoAnyChunksReassembleExactly) {
  Rng rng(0x5eed0003);
  std::vector<std::string> payloads;
  std::string bytes;
  for (int i = 0; i < 40; ++i) {
    payloads.push_back(RandomPayload(rng, 200));
    bytes += EncodeFrame(payloads.back(), Framing::kLengthPrefixed);
  }
  for (const size_t chunk : {1u, 3u, 4u, 5u, 127u}) {
    const Stream stream(bytes, chunk);
    const Drained drained = DrainStream(stream, Framing::kLengthPrefixed);
    EXPECT_FALSE(drained.error) << "chunk " << chunk;
    EXPECT_FALSE(drained.hung) << "chunk " << chunk;
    EXPECT_EQ(drained.frames, payloads) << "chunk " << chunk;
  }
}

TEST(ServeWireFuzzTest, EmbeddedNulsSurviveBothFramings) {
  const std::string payload("1 CLASSIFY\0 1,2\0\0", 17);
  {
    const Stream stream(EncodeFrame(payload, Framing::kLengthPrefixed));
    const Drained drained = DrainStream(stream, Framing::kLengthPrefixed);
    ASSERT_EQ(drained.frames.size(), 1u);
    EXPECT_EQ(drained.frames[0], payload);
  }
  {
    const Stream stream(payload + "\n" + payload);  // Last line unterminated.
    const Drained drained = DrainStream(stream, Framing::kLine);
    ASSERT_EQ(drained.frames.size(), 2u);
    EXPECT_EQ(drained.frames[0], payload);
    EXPECT_EQ(drained.frames[1], payload);
  }
  CheckParse(payload);
  EXPECT_FALSE(ParseRequest(payload).ok());
}

TEST(ServeWireFuzzTest, OverlongLineIsRejected) {
  const Stream stream(std::string(kMaxFrameBytes + 2, 'x'), /*chunk=*/65536);
  const Drained drained = DrainStream(stream, Framing::kLine);
  EXPECT_TRUE(drained.error);
  EXPECT_FALSE(drained.hung);
  EXPECT_TRUE(drained.frames.empty());
}

TEST(ServeWireFuzzTest, RandomStreamsEndInFramesOrAnError) {
  Rng rng(0x5eed0004);
  for (int i = 0; i < kRandomStreams; ++i) {
    // Mostly plausible prefixes (small lengths) with random bodies, cut
    // at a random point, plus pure garbage.
    std::string bytes;
    const uint64_t frames = rng.NextBounded(4);
    for (uint64_t f = 0; f < frames; ++f) {
      const std::string body = RandomPayload(rng, 64);
      const uint32_t length =
          rng.NextBounded(4) == 0 ? static_cast<uint32_t>(rng.NextUint64())
                                  : static_cast<uint32_t>(body.size());
      bytes += Prefix(length) + body;
    }
    bytes += RandomPayload(rng, 16);
    const Framing framing =
        i % 2 == 0 ? Framing::kLengthPrefixed : Framing::kLine;
    const Stream stream(bytes, 1 + rng.NextBounded(32));
    const Drained drained = DrainStream(stream, framing);
    EXPECT_FALSE(drained.hung) << "stream " << i;
    size_t consumed = 0;
    for (const std::string& frame : drained.frames) {
      EXPECT_LE(frame.size(), kMaxFrameBytes);
      consumed += frame.size();
      CheckParse(frame);
    }
    EXPECT_LE(consumed, bytes.size()) << "stream " << i;
  }
}

}  // namespace
}  // namespace tkdc::serve
