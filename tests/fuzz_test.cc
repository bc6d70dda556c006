// Randomized invariant tests ("fuzz-lite"): deterministic seeds, thousands
// of random operations, invariants checked after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "cache/binary_protocol.h"
#include "cache/text_protocol.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/proteus.h"
#include "obs/span.h"

namespace proteus {
namespace {

cache::CacheConfig small_cache() {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  return cfg;
}

// --- protocol: responses must not depend on TCP segmentation ---------------

// Feeds `wire` to `session` in random chunks of 1..max_chunk bytes.
template <class Session>
std::string feed_chunked(Session& session, std::string_view wire,
                         std::uint64_t seed, std::size_t max_chunk) {
  std::string out;
  Rng chunk_rng(seed ^ max_chunk);
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t n = std::min<std::size_t>(
        wire.size() - pos, 1 + chunk_rng.next_below(max_chunk));
    out += session.feed(wire.substr(pos, n), 0);
    pos += n;
  }
  return out;
}

// Reference reply-stream hashes: 64-bit FNV-1a of the whole-feed replies of
// the text scripts below. They were recorded from the sessions that kept
// one implementation per protocol (and a bare-CacheServer mode) before the
// shared CommandExecutor, so a reply byte moved by any later change fails
// here even when every session agrees with every other.
const std::map<std::uint64_t, std::uint64_t> kSegmentationReplyHash = {
    {1, 0xc125552166006a91ULL},
    {17, 0x3a88fd0a6c10c579ULL},
    {3333, 0x7be1df7520bcdf4eULL},
    {98765, 0x1c1dc21e1d74cb40ULL},
};
const std::map<std::uint64_t, std::uint64_t> kShardInvarianceReplyHash = {
    {1, 0x9d462c884f91700bULL},
    {17, 0xf42b6dc85babf9eaULL},
    {3333, 0x766249609d944c2fULL},
    {98765, 0x774ba974ef979c7cULL},
};

class ProtocolSegmentation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolSegmentation, ResponseInvariantUnderChunking) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  // Build a random but valid command script.
  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    switch (rng.next_below(5)) {
      case 0: {
        const auto len = static_cast<std::size_t>(rng.next_below(64));
        std::string payload;
        for (std::size_t b = 0; b < len; ++b) {
          payload += static_cast<char>('a' + rng.next_below(26));
        }
        wire += "set " + key + " " + std::to_string(rng.next_below(100)) +
                " 0 " + std::to_string(len) + "\r\n" + payload + "\r\n";
        break;
      }
      case 1: wire += "get " + key + "\r\n"; break;
      case 2: wire += "delete " + key + "\r\n"; break;
      case 3: wire += "get " + key + " other\r\n"; break;
      case 4: wire += "stats\r\n"; break;
    }
  }

  const auto run_chunked = [&](std::size_t max_chunk) {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 4 << 20;
    cache::ShardedCacheServer server(cfg, 1);
    cache::TextProtocolSession session(server);
    return feed_chunked(session, wire, seed, max_chunk);
  };

  const std::string whole = run_chunked(wire.size());
  EXPECT_EQ(fnv1a(whole), kSegmentationReplyHash.at(seed));
  EXPECT_EQ(run_chunked(1), whole);    // byte-at-a-time
  EXPECT_EQ(run_chunked(7), whole);    // odd small chunks
  EXPECT_EQ(run_chunked(1024), whole); // mixed large chunks
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolSegmentation,
                         ::testing::Values(1ull, 17ull, 3333ull, 98765ull));

// --- sharding: a 4-shard engine is reply-invariant vs a 1-shard engine -----
//
// Same random script, same chunkings, two shard counts. Lock striping is an
// implementation detail — every reply byte, `stats` output included, must
// be identical, and identical to the pinned reference hash.

class ShardReplyInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardReplyInvariance, FourShardEngineMatchesOneShardReplies) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    switch (rng.next_below(6)) {
      case 0: {
        const auto len = static_cast<std::size_t>(rng.next_below(64));
        std::string payload;
        for (std::size_t b = 0; b < len; ++b) {
          payload += static_cast<char>('a' + rng.next_below(26));
        }
        wire += "set " + key + " " + std::to_string(rng.next_below(100)) +
                " 0 " + std::to_string(len) + "\r\n" + payload + "\r\n";
        break;
      }
      case 1: wire += "get " + key + "\r\n"; break;
      case 2: wire += "delete " + key + "\r\n"; break;
      case 3: wire += "get " + key + " other\r\n"; break;
      case 4: wire += "stats\r\n"; break;
      case 5: wire += "incr " + key + " 1\r\n"; break;
    }
  }

  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  const auto run = [&](int shards, std::size_t max_chunk) {
    cache::ShardedCacheServer engine(cfg, shards);
    cache::TextProtocolSession session(engine);
    return feed_chunked(session, wire, seed, max_chunk);
  };

  const std::string one = run(1, wire.size());
  EXPECT_EQ(fnv1a(one), kShardInvarianceReplyHash.at(seed));
  EXPECT_EQ(run(4, wire.size()), one);
  EXPECT_EQ(run(4, 1), one);
  EXPECT_EQ(run(4, 7), one);
  EXPECT_EQ(run(4, 1024), one);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardReplyInvariance,
                         ::testing::Values(1ull, 17ull, 3333ull, 98765ull));

// --- binary protocol: segmentation and shard-count invariance ---------------

cache::binary::Frame binary_request(cache::binary::Opcode opcode,
                                    std::string key) {
  cache::binary::Frame f;
  f.opcode = opcode;
  f.key = std::move(key);
  return f;
}

// A random but valid binary request script: sets (some CRC-stamped, some
// with a CAS no item can carry), the four get variants, deletes, incr/decr
// with and without create, and STAT.
std::string binary_script(std::uint64_t seed) {
  using cache::binary::Opcode;
  namespace bin = cache::binary;
  Rng rng(seed);
  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    bin::Frame f;
    switch (rng.next_below(7)) {
      case 0: {
        static constexpr Opcode kStores[] = {Opcode::kSet, Opcode::kSet,
                                             Opcode::kAdd, Opcode::kReplace};
        f = binary_request(kStores[rng.next_below(4)], key);
        const auto len = rng.next_below(64);
        for (std::uint64_t b = 0; b < len; ++b) {
          f.value += static_cast<char>('a' + rng.next_below(26));
        }
        if (rng.next_below(5) == 0) f.value = std::to_string(rng.next_below(50));
        bin::put_u32(f.extras, static_cast<std::uint32_t>(rng.next_below(100)));
        bin::put_u32(f.extras, 0);  // expiry
        if (rng.next_below(3) == 0) bin::put_u32(f.extras, crc32c(f.value));
        if (rng.next_below(8) == 0) f.cas = 0xfeedfacecafeULL;  // never issued
        break;
      }
      case 1: {
        static constexpr Opcode kGets[] = {Opcode::kGet, Opcode::kGetK,
                                           Opcode::kGetQ, Opcode::kGetKQ};
        f = binary_request(kGets[rng.next_below(4)], key);
        if (rng.next_below(2) == 0) bin::put_u32(f.extras, 0);  // crc echo
        break;
      }
      case 2:
        f = binary_request(Opcode::kDelete, key);
        break;
      case 3:
      case 4:
        f = binary_request(rng.next_below(2) == 0 ? Opcode::kIncrement
                                                  : Opcode::kDecrement,
                           key);
        bin::put_u64(f.extras, rng.next_below(10));  // delta
        bin::put_u64(f.extras, rng.next_below(10));  // initial
        bin::put_u32(f.extras, rng.next_below(2) == 0 ? 0 : 0xffffffffu);
        break;
      case 5:
        f = binary_request(Opcode::kStat, "");
        break;
      case 6:
        f = binary_request(Opcode::kNoop, "");
        break;
    }
    f.opaque = static_cast<std::uint32_t>(i);
    wire += bin::encode_frame(f, bin::kRequestMagic);
  }
  return wire;
}

// Zeroes the CAS field of every response frame. CAS values are opaque
// per-shard versions (each shard numbers its own stores), so they are the
// one reply field a shard count may legitimately change.
std::string mask_cas(std::string stream) {
  std::size_t pos = 0;
  while (pos + cache::binary::kHeaderSize <= stream.size()) {
    std::fill_n(stream.begin() + static_cast<std::ptrdiff_t>(pos + 16), 8, '\0');
    pos += cache::binary::kHeaderSize +
           cache::binary::get_u32(std::string_view(stream), pos + 8);
  }
  return stream;
}

class BinaryProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryProtocolFuzz, ResponseInvariantUnderChunking) {
  const std::uint64_t seed = GetParam();
  const std::string wire = binary_script(seed);
  const auto run = [&](std::size_t max_chunk) {
    cache::ShardedCacheServer engine(small_cache(), 1);
    cache::BinaryProtocolSession session(engine);
    return feed_chunked(session, wire, seed, max_chunk);
  };
  const std::string whole = run(wire.size());
  ASSERT_FALSE(whole.empty());
  EXPECT_EQ(run(1), whole);
  EXPECT_EQ(run(7), whole);
  EXPECT_EQ(run(1024), whole);
}

TEST_P(BinaryProtocolFuzz, FourShardEngineMatchesOneShardReplies) {
  const std::uint64_t seed = GetParam();
  const std::string wire = binary_script(seed);
  const auto run = [&](int shards, std::size_t max_chunk) {
    cache::ShardedCacheServer engine(small_cache(), shards);
    cache::BinaryProtocolSession session(engine);
    return mask_cas(feed_chunked(session, wire, seed, max_chunk));
  };
  const std::string one = run(1, wire.size());
  EXPECT_EQ(run(4, wire.size()), one);
  EXPECT_EQ(run(4, 1), one);
  EXPECT_EQ(run(4, 7), one);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryProtocolFuzz,
                         ::testing::Values(3ull, 64ull, 4099ull, 271828ull));

// --- cross-protocol: one op script, two encodings, one executor -------------
//
// The same seeded operations encoded once as text and once as binary must
// produce the same sequence of executor outcomes — decoded from each wire
// through the docs/PROTOCOL.md outcome table — the same values, and the
// same final stats.

struct ScriptOp {
  enum Kind { kSet, kAdd, kReplace, kGet, kDelete, kIncr, kDecr } kind;
  std::string key;
  std::string value;  // stores
  std::uint32_t flags = 0;
  std::uint64_t epoch = 0;  // fencing stamp (0 = unstamped)
  int crc = 0;              // stores: 0 = none, 1 = good, 2 = bad
  std::uint64_t delta = 0;  // incr/decr
};

std::vector<ScriptOp> cross_protocol_script(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ScriptOp> ops;
  for (int i = 0; i < 400; ++i) {
    ScriptOp op;
    op.kind = static_cast<ScriptOp::Kind>(rng.next_below(7));
    const auto pick = rng.next_below(40);
    op.key = pick == 0   ? std::string(cache::kGetBloomFilterKey)
             : pick == 1 ? std::string(cache::kEpochKey)
                         : "k" + std::to_string(pick % 24);
    if (op.kind <= ScriptOp::kReplace) {
      op.value = rng.next_below(3) == 0
                     ? std::to_string(rng.next_below(1000))
                     : std::string(1 + rng.next_below(40),
                                   static_cast<char>('a' + rng.next_below(26)));
      op.flags = static_cast<std::uint32_t>(rng.next_below(50));
      op.crc = static_cast<int>(rng.next_below(3));
    }
    // Epochs only climb slowly, so stale stamps keep appearing.
    if (rng.next_below(4) == 0) op.epoch = 1 + rng.next_below(6);
    op.delta = rng.next_below(7);
    ops.push_back(std::move(op));
  }
  return ops;
}

struct Observed {
  cache::Outcome outcome;
  std::string value;  // get hit value / new counter value
  bool operator==(const Observed&) const = default;
};

std::vector<Observed> run_text(const std::vector<ScriptOp>& ops,
                               std::map<std::string, std::uint64_t>& stats) {
  cache::ShardedCacheServer engine(small_cache(), 4);
  cache::TextProtocolSession session(engine);
  std::vector<Observed> seen;
  for (const ScriptOp& op : ops) {
    std::string tail;
    if (op.epoch != 0) tail += " " + obs::encode_epoch_token(op.epoch);
    std::string reply;
    switch (op.kind) {
      case ScriptOp::kSet:
      case ScriptOp::kAdd:
      case ScriptOp::kReplace: {
        static constexpr const char* kVerb[] = {"set", "add", "replace"};
        if (op.crc != 0) {
          tail += " " + obs::encode_checksum_token(crc32c(op.value) ^
                                                   (op.crc == 2 ? 1u : 0u));
        }
        reply = session.feed(std::string(kVerb[op.kind]) + " " + op.key + " " +
                                 std::to_string(op.flags) + " 0 " +
                                 std::to_string(op.value.size()) + tail +
                                 "\r\n" + op.value + "\r\n",
                             0);
        break;
      }
      case ScriptOp::kGet:
        reply = session.feed("get " + op.key + tail + "\r\n", 0);
        break;
      case ScriptOp::kDelete:
        reply = session.feed("delete " + op.key + tail + "\r\n", 0);
        break;
      case ScriptOp::kIncr:
      case ScriptOp::kDecr:
        reply = session.feed(std::string(op.kind == ScriptOp::kIncr ? "incr "
                                                                    : "decr ") +
                                 op.key + " " + std::to_string(op.delta) +
                                 "\r\n",
                             0);
        break;
    }
    // Decode through the outcome table; NOT_STORED is kExists for add and
    // kNotFound for replace.
    using cache::Outcome;
    Observed o{Outcome::kOk, {}};
    if (op.kind == ScriptOp::kGet) {
      if (reply == "END\r\n") {
        o.outcome = Outcome::kNotFound;
      } else {
        const std::size_t eol = reply.find("\r\n");
        const std::size_t len = std::stoul(reply.substr(reply.rfind(' ', eol) + 1));
        o.value = reply.substr(eol + 2, len);
      }
    } else if (reply == "NOT_STORED\r\n") {
      o.outcome = op.kind == ScriptOp::kAdd ? Outcome::kExists
                                            : Outcome::kNotFound;
    } else if (reply == "NOT_FOUND\r\n") {
      o.outcome = Outcome::kNotFound;
    } else if (reply == "SERVER_ERROR stale-epoch\r\n") {
      o.outcome = Outcome::kStaleEpoch;
    } else if (reply == "SERVER_ERROR bad-checksum\r\n") {
      o.outcome = Outcome::kBadChecksum;
    } else if (reply == "CLIENT_ERROR reserved key\r\n") {
      o.outcome = Outcome::kReservedKey;
    } else if (reply == "CLIENT_ERROR bad epoch payload\r\n") {
      o.outcome = Outcome::kBadEpochValue;
    } else if (reply.rfind("CLIENT_ERROR cannot increment", 0) == 0) {
      o.outcome = Outcome::kNotNumeric;
    } else if (op.kind == ScriptOp::kIncr || op.kind == ScriptOp::kDecr) {
      o.value = reply.substr(0, reply.size() - 2);
    } else {
      EXPECT_TRUE(reply == "STORED\r\n" || reply == "DELETED\r\n") << reply;
    }
    seen.push_back(std::move(o));
  }
  const std::string text = session.feed("stats\r\n", 0);
  std::size_t pos = 0;
  while ((pos = text.find("STAT ", pos)) != std::string::npos) {
    const std::size_t space = text.find(' ', pos + 5);
    const std::size_t eol = text.find("\r\n", space);
    stats[text.substr(pos + 5, space - pos - 5)] =
        std::stoull(text.substr(space + 1, eol - space - 1));
    pos = eol;
  }
  return seen;
}

std::vector<Observed> run_binary(const std::vector<ScriptOp>& ops,
                                 std::map<std::string, std::uint64_t>& stats) {
  using cache::binary::Opcode;
  using cache::binary::Status;
  namespace bin = cache::binary;
  cache::ShardedCacheServer engine(small_cache(), 4);
  cache::BinaryProtocolSession session(engine);
  const auto roundtrip = [&](const bin::Frame& request) {
    const std::string out =
        session.feed(bin::encode_frame(request, bin::kRequestMagic), 0);
    std::size_t consumed = 0;
    auto reply = bin::decode_frame(out, consumed);
    EXPECT_TRUE(reply.has_value());
    return reply.value_or(bin::Frame{});
  };
  std::vector<Observed> seen;
  for (const ScriptOp& op : ops) {
    bin::Frame f;
    f.key = op.key;
    f.status_or_vbucket = static_cast<std::uint16_t>(op.epoch);
    switch (op.kind) {
      case ScriptOp::kSet:
      case ScriptOp::kAdd:
      case ScriptOp::kReplace:
        f.opcode = op.kind == ScriptOp::kSet   ? Opcode::kSet
                   : op.kind == ScriptOp::kAdd ? Opcode::kAdd
                                               : Opcode::kReplace;
        f.value = op.value;
        bin::put_u32(f.extras, op.flags);
        bin::put_u32(f.extras, 0);
        if (op.crc != 0) {
          bin::put_u32(f.extras, crc32c(op.value) ^ (op.crc == 2 ? 1u : 0u));
        }
        break;
      case ScriptOp::kGet:
        f.opcode = Opcode::kGet;
        break;
      case ScriptOp::kDelete:
        f.opcode = Opcode::kDelete;
        break;
      case ScriptOp::kIncr:
      case ScriptOp::kDecr:
        // Text incr/decr never stamp an epoch and never create.
        f.status_or_vbucket = 0;
        f.opcode = op.kind == ScriptOp::kIncr ? Opcode::kIncrement
                                              : Opcode::kDecrement;
        bin::put_u64(f.extras, op.delta);
        bin::put_u64(f.extras, 0);
        bin::put_u32(f.extras, 0xffffffffu);
        break;
    }
    const bin::Frame reply = roundtrip(f);
    using cache::Outcome;
    Observed o{Outcome::kOk, {}};
    switch (static_cast<Status>(reply.status_or_vbucket)) {
      case Status::kOk:
        if (op.kind == ScriptOp::kGet) o.value = reply.value;
        if (op.kind == ScriptOp::kIncr || op.kind == ScriptOp::kDecr) {
          o.value = std::to_string(bin::get_u64(reply.value, 0));
        }
        break;
      case Status::kKeyNotFound: o.outcome = Outcome::kNotFound; break;
      case Status::kKeyExists: o.outcome = Outcome::kExists; break;
      case Status::kDeltaBadValue: o.outcome = Outcome::kNotNumeric; break;
      case Status::kStaleEpoch: o.outcome = Outcome::kStaleEpoch; break;
      case Status::kBadChecksum: o.outcome = Outcome::kBadChecksum; break;
      case Status::kNotStored: o.outcome = Outcome::kReservedKey; break;
      case Status::kInvalidArguments:
        o.outcome = Outcome::kBadEpochValue;
        break;
      default:
        ADD_FAILURE() << "unexpected status " << reply.status_or_vbucket;
    }
    seen.push_back(std::move(o));
  }
  const std::string out =
      session.feed(bin::encode_frame(binary_request(Opcode::kStat, ""),
                                     bin::kRequestMagic),
                   0);
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t consumed = 0;
    const auto frame = bin::decode_frame(std::string_view(out).substr(pos), consumed);
    if (!frame.has_value()) break;
    if (!frame->key.empty()) stats[frame->key] = std::stoull(frame->value);
    pos += consumed;
  }
  return seen;
}

class CrossProtocolOutcomes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossProtocolOutcomes, TextAndBinaryEncodingsYieldTheSameOutcomes) {
  const std::vector<ScriptOp> ops = cross_protocol_script(GetParam());
  std::map<std::string, std::uint64_t> text_stats, binary_stats;
  const std::vector<Observed> text = run_text(ops, text_stats);
  const std::vector<Observed> binary = run_binary(ops, binary_stats);
  ASSERT_EQ(text.size(), binary.size());
  std::set<cache::Outcome> kinds;
  for (std::size_t i = 0; i < text.size(); ++i) {
    EXPECT_EQ(text[i], binary[i])
        << "op " << i << " (" << ops[i].key << ") text outcome "
        << static_cast<int>(text[i].outcome) << " binary outcome "
        << static_cast<int>(binary[i].outcome);
    kinds.insert(text[i].outcome);
  }
  // The script reaches every outcome a sequential single client can see.
  for (const cache::Outcome o :
       {cache::Outcome::kOk, cache::Outcome::kNotFound, cache::Outcome::kExists,
        cache::Outcome::kNotNumeric, cache::Outcome::kStaleEpoch,
        cache::Outcome::kBadChecksum, cache::Outcome::kReservedKey}) {
    EXPECT_TRUE(kinds.count(o)) << "outcome " << static_cast<int>(o);
  }
  // Every stat the binary STAT stream reports matches the text `stats`.
  ASSERT_EQ(binary_stats.size(), 10u);
  for (const auto& [name, value] : binary_stats) {
    ASSERT_TRUE(text_stats.count(name)) << name;
    EXPECT_EQ(text_stats.at(name), value) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossProtocolOutcomes,
                         ::testing::Values(8ull, 1234ull, 99991ull));

// --- facade: random op/resize interleavings never serve stale data ----------

class FacadeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FacadeFuzz, NeverServesStaleDataAcrossRandomResizes) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  ProteusOptions opt;
  opt.max_servers = 8;
  opt.per_server.memory_budget_bytes = 32 << 20;  // no capacity evictions
  opt.per_server.auto_size_digest = false;
  opt.per_server.digest.num_counters = 1 << 14;
  opt.per_server.digest.counter_bits = 4;
  opt.per_server.digest.num_hashes = 4;
  opt.ttl = 2 * kSecond;

  // The model: authoritative key -> latest value. The backend serves the
  // model's current value (as a database would).
  std::map<std::string, std::string> model;
  std::uint64_t version = 0;
  Proteus cluster(opt, [&](std::string_view key) {
    auto it = model.find(std::string(key));
    return it != model.end() ? it->second : "default:" + std::string(key);
  });

  SimTime now = 0;
  for (int op = 0; op < 8000; ++op) {
    now += from_seconds(0.01 + rng.next_double() * 0.05);
    const std::string key = "k" + std::to_string(rng.next_below(120));
    const auto action = rng.next_below(100);
    if (action < 55) {
      // GET must return the model value (or the default if never put).
      const std::string got = cluster.get(key, now);
      const auto it = model.find(key);
      const std::string expected =
          it != model.end() ? it->second : "default:" + key;
      ASSERT_EQ(got, expected) << "stale read of " << key << " at op " << op;
    } else if (action < 80) {
      // PUT through the cluster updates cache AND the backing model (write
      // through), so future reads must observe it.
      const std::string value = "v" + std::to_string(++version);
      model[key] = value;
      cluster.put(key, value, now);
    } else if (action < 90) {
      cluster.erase(key, now);
      // After erase the next read refetches from the model — still fresh.
    } else {
      cluster.resize(1 + static_cast<int>(rng.next_below(8)), now);
    }
  }
  // Sanity: the run exercised both mechanisms.
  EXPECT_GT(cluster.stats().resizes, 100u);
  EXPECT_GT(cluster.stats().old_server_hits, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FacadeFuzz,
                         ::testing::Values(2ull, 42ull, 777ull, 123456ull));

// --- overload: the pipeline shed path must never desync the stream -----------

class ShedPathFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShedPathFuzz, PipelineShedKeepsProtocolSyncUnderChunking) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  // Random valid script, heavy on storage commands: a shed set must still
  // consume its data block or the payload replays as commands.
  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const auto len = static_cast<std::size_t>(rng.next_below(64));
        std::string payload;
        for (std::size_t b = 0; b < len; ++b) {
          payload += static_cast<char>('a' + rng.next_below(26));
        }
        wire += "set " + key + " 0 0 " + std::to_string(len) + "\r\n" +
                payload + "\r\n";
        break;
      }
      case 2: wire += "get " + key + "\r\n"; break;
      case 3: wire += "delete " + key + " noreply\r\n"; break;
    }
  }

  for (const int cap : {1, 2, 5}) {
    for (const std::size_t max_chunk : {std::size_t{1}, std::size_t{9},
                                        std::size_t{4096}}) {
      cache::CacheConfig cfg;
      cfg.memory_budget_bytes = 4 << 20;
      cache::ShardedCacheServer server(cfg, 1);
      std::atomic<std::uint64_t> sheds{0};
      cache::TextProtocolSession session(server, nullptr, nullptr, -1,
                                         cache::PipelinePolicy{cap, &sheds});
      Rng chunk_rng(seed ^ max_chunk ^ static_cast<std::uint64_t>(cap));
      std::size_t pos = 0;
      while (pos < wire.size()) {
        const std::size_t n = std::min<std::size_t>(
            wire.size() - pos, 1 + chunk_rng.next_below(max_chunk));
        session.feed(std::string_view(wire).substr(pos, n), 0);
        pos += n;
      }
      // However many commands were shed along the way, the session must
      // still be in perfect protocol sync: a fresh single-command batch
      // (within any cap >= 1) round-trips exactly.
      ASSERT_FALSE(session.closed());
      EXPECT_EQ(session.feed("set canary 0 0 2\r\nok\r\n", 0), "STORED\r\n");
      EXPECT_EQ(session.feed("get canary\r\n", 0),
                "VALUE canary 0 2\r\nok\r\nEND\r\n");
      if (cap == 1 && max_chunk == 4096) {
        EXPECT_GT(sheds.load(), 0u)
            << "big batches under cap 1 must actually exercise the shed path";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShedPathFuzz,
                         ::testing::Values(5ull, 21ull, 909ull, 424242ull));

// --- trace-token decoder: arbitrary bytes, exact-shape acceptance ------------

TEST(TraceTokenDecodeFuzz, ArbitraryStringsMatchTheShapeCheck) {
  // The decoder must accept EXACTLY "O" + 16 lowercase hex digits and
  // nothing else — cross-checked against an independent shape predicate on
  // 20k random strings drawn from a hostile charset.
  const std::string charset = "0123456789abcdefABCDEFOXo \t\r\n\\\"{}";
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    const std::size_t len = rng.next_below(24);
    for (std::size_t b = 0; b < len; ++b) {
      s += charset[rng.next_below(charset.size())];
    }
    if (rng.next_below(4) == 0 && !s.empty()) s[0] = 'O';  // bias the prefix
    bool shape = s.size() == 17 && s[0] == 'O';
    if (shape) {
      for (std::size_t b = 1; b < s.size(); ++b) {
        const char c = s[b];
        shape &= (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      }
    }
    std::uint64_t out = 0;
    EXPECT_EQ(obs::decode_trace_token(s, out), shape) << "input: " << s;
  }
  // And the codec round-trips random ids.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = rng.next_u64() | 1;  // nonzero
    std::uint64_t back = 0;
    ASSERT_TRUE(obs::decode_trace_token(obs::encode_trace_token(id), back));
    EXPECT_EQ(back, id);
  }
}

// --- text protocol: O-tokens are invisible to the reply stream ---------------

class TraceTokenProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TraceTokenProtocolFuzz, TokenedScriptMatchesUntokenedReplies) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  // Invalid token-like strings: stock keys to our parser (and to stock
  // memcached), so appending one to a `get` must not change the reply.
  const std::string invalid[] = {
      "O123", "Oscar", "O00000000DEADBEEF", "X0000000000000001",
      "O000000000000000g", "O00000000000000012",
  };

  // Two scripts built in lockstep: `tokened` carries trace tokens,
  // `reference` is the protocol-equivalent without valid tokens (invalid
  // ones stay — they are ordinary never-stored keys). Their reply streams
  // must be byte-identical, and the tokened session must record server
  // spans for exactly the valid ids.
  std::string tokened, reference;
  std::set<std::uint64_t> expected_ids;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    std::string tok;       // appended to the tokened script only
    std::string keep_tok;  // appended to BOTH (invalid -> plain key)
    const auto choice = rng.next_below(3);
    if (choice == 0) {
      const std::uint64_t id = rng.next_u64() | 1;
      tok = " " + obs::encode_trace_token(id);
      expected_ids.insert(id);
    } else if (choice == 1) {
      keep_tok = " " + invalid[rng.next_below(std::size(invalid))];
    }
    switch (rng.next_below(4)) {
      case 0: {
        const auto len = static_cast<std::size_t>(rng.next_below(32));
        const std::string payload(len, 'x');
        const std::string head = "set " + key + " 0 0 " +
                                 std::to_string(len);
        // Invalid tokens would change `set` arity on a stock parser, so
        // only valid (strippable) tokens ride storage commands.
        tokened += head + tok + "\r\n" + payload + "\r\n";
        reference += head + "\r\n" + payload + "\r\n";
        break;
      }
      case 1:
        tokened += "get " + key + tok + keep_tok + "\r\n";
        reference += "get " + key + keep_tok + "\r\n";
        break;
      case 2:
        tokened += "gets " + key + tok + keep_tok + "\r\n";
        reference += "gets " + key + keep_tok + "\r\n";
        break;
      case 3:
        tokened += "delete " + key + tok + "\r\n";
        reference += "delete " + key + "\r\n";
        break;
    }
  }

  const auto run = [&](const std::string& wire, obs::SpanCollector* spans,
                       std::size_t max_chunk) {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 4 << 20;
    cache::ShardedCacheServer server(cfg, 1);
    cache::TextProtocolSession session(server, nullptr, spans, /*server_id=*/3);
    std::string out;
    Rng chunk_rng(seed ^ max_chunk);
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n = std::min<std::size_t>(
          wire.size() - pos, 1 + chunk_rng.next_below(max_chunk));
      out += session.feed(std::string_view(wire).substr(pos, n), 0);
      pos += n;
    }
    return out;
  };

  obs::SpanCollector spans(1u << 14, /*sample_every=*/1);
  const std::string tokened_out = run(tokened, &spans, tokened.size());
  EXPECT_EQ(tokened_out, run(reference, nullptr, reference.size()));
  // Token stripping must survive TCP segmentation too.
  EXPECT_EQ(run(tokened, nullptr, 1), tokened_out);
  EXPECT_EQ(run(tokened, nullptr, 7), tokened_out);

  std::set<std::uint64_t> seen_ids;
  for (const obs::SpanRecord& s : spans.snapshot()) {
    EXPECT_EQ(s.server, 3);
    seen_ids.insert(s.trace_id);
  }
  EXPECT_EQ(seen_ids, expected_ids)
      << "server spans must appear for exactly the valid trace tokens";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceTokenProtocolFuzz,
                         ::testing::Values(5ull, 404ull, 31337ull));

// --- meta tokens: O (trace), E (epoch), C (checksum) combine in ANY order ----

TEST(MetaTokenPermutations, GetAcceptsEveryTokenOrder) {
  cache::ShardedCacheServer server(small_cache(), 1);
  cache::TextProtocolSession session(server);

  const std::string value = "integrity-checked-payload";
  const std::string crc_tok = obs::encode_checksum_token(crc32c(value));
  ASSERT_EQ(session.feed("set pk 5 0 " + std::to_string(value.size()) + " " +
                             crc_tok + "\r\n" + value + "\r\n",
                         0),
            "STORED\r\n");

  const std::string o = obs::encode_trace_token(0x1234abcd5678ef01ULL);
  const std::string e = obs::encode_epoch_token(7);
  const std::string c = "C00000000";  // any C token on a get opts into echo
  // A stamped item echoes its stored checksum on the VALUE line once the
  // get opts in — regardless of where the C token sits in the tail.
  const std::string expected = "VALUE pk 5 " + std::to_string(value.size()) +
                               " " + crc_tok + "\r\n" + value + "\r\nEND\r\n";

  std::array<std::string, 3> toks{o, e, c};
  std::sort(toks.begin(), toks.end());
  int orders = 0;
  do {
    const std::string tail = " " + toks[0] + " " + toks[1] + " " + toks[2];
    EXPECT_EQ(session.feed("get pk" + tail + "\r\n", 0), expected)
        << "token order: " << tail;
    // `bg` mixes into the tail at any position too.
    for (std::size_t at = 0; at < 3; ++at) {
      std::vector<std::string> with_bg(toks.begin(), toks.end());
      with_bg.insert(with_bg.begin() + static_cast<std::ptrdiff_t>(at), "bg");
      std::string line = "get pk";
      for (const std::string& t : with_bg) line += " " + t;
      EXPECT_EQ(session.feed(line + "\r\n", 0), expected) << line;
    }
    ++orders;
  } while (std::next_permutation(toks.begin(), toks.end()));
  EXPECT_EQ(orders, 6);

  // Without the C opt-in the VALUE line stays stock even for stamped items,
  // and an unstamped item echoes nothing even when the get opts in.
  EXPECT_EQ(session.feed("get pk " + o + " " + e + "\r\n", 0),
            "VALUE pk 5 " + std::to_string(value.size()) + "\r\n" + value +
                "\r\nEND\r\n");
  ASSERT_EQ(session.feed("set plain 0 0 2\r\nhi\r\n", 0), "STORED\r\n");
  EXPECT_EQ(session.feed("get plain " + c + " " + o + "\r\n", 0),
            "VALUE plain 0 2\r\nhi\r\nEND\r\n");
}

TEST(MetaTokenPermutations, SetAcceptsEveryTokenOrderAndStamps) {
  cache::ShardedCacheServer server(small_cache(), 1);
  cache::TextProtocolSession session(server);

  const std::string value = "stamped-at-set-time";
  const std::string good = obs::encode_checksum_token(crc32c(value));
  const std::string bad = obs::encode_checksum_token(crc32c(value) ^ 1u);
  const std::string o = obs::encode_trace_token(0xfeedf00ddeadbeefULL);
  const std::string e = obs::encode_epoch_token(7);

  std::array<std::string, 3> toks{o, e, good};
  std::sort(toks.begin(), toks.end());
  int idx = 0;
  do {
    const std::string key = "sk" + std::to_string(idx++);
    const std::string tail = " " + toks[0] + " " + toks[1] + " " + toks[2];
    ASSERT_EQ(session.feed("set " + key + " 0 0 " +
                               std::to_string(value.size()) + tail + "\r\n" +
                               value + "\r\n",
                           0),
              "STORED\r\n")
        << "token order: " << tail;
    // The checksum stamped at set time echoes back on an opted-in get.
    EXPECT_EQ(session.feed("get " + key + " C00000000\r\n", 0),
              "VALUE " + key + " 0 " + std::to_string(value.size()) + " " +
                  good + "\r\n" + value + "\r\nEND\r\n");
  } while (std::next_permutation(toks.begin(), toks.end()));

  // A mismatched checksum is refused no matter where it sits in the tail.
  for (const std::string tail :
       {" " + bad + " " + o + " " + e, " " + o + " " + bad + " " + e,
        " " + o + " " + e + " " + bad}) {
    EXPECT_EQ(session.feed("set rot 0 0 " + std::to_string(value.size()) +
                               tail + "\r\n" + value + "\r\n",
                           0),
              "SERVER_ERROR bad-checksum\r\n")
        << "token order: " << tail;
    EXPECT_EQ(session.feed("get rot\r\n", 0), "END\r\n")
        << "refused set must not store";
  }
}

// --- fuzz: shuffled token tails leave the reply stream invariant -------------

class MetaTokenOrderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetaTokenOrderFuzz, ShuffledTokenTailsMatchAndEchoCorrectChecksums) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  // Two scripts with identical commands and identical token SETS but
  // independently shuffled token ORDER. Any-order parsing means their reply
  // streams must be byte-identical; every echoed C token must match the CRC
  // of the value it rides with.
  std::map<std::string, std::string> model;  // each key set at most once
  std::vector<std::string> stored;
  std::string script_a, script_b;
  Rng shuffle_a(seed * 2 + 1), shuffle_b(seed * 7 + 5);
  const auto tail = [](std::vector<std::string> toks, Rng& r) {
    for (std::size_t i = toks.size(); i > 1; --i) {
      std::swap(toks[i - 1], toks[r.next_below(i)]);
    }
    std::string out;
    for (const std::string& t : toks) out += " " + t;
    return out;
  };

  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> toks;
    if (rng.next_below(2) == 0) {
      toks.push_back(obs::encode_trace_token(rng.next_u64() | 1));
    }
    if (rng.next_below(2) == 0) toks.push_back(obs::encode_epoch_token(7));
    if (rng.next_below(4) == 0) toks.push_back("bg");
    if (stored.empty() || rng.next_below(3) == 0) {
      const std::string key = "k" + std::to_string(i);
      std::string payload;
      const auto len = 1 + rng.next_below(48);
      for (std::uint64_t b = 0; b < len; ++b) {
        payload += static_cast<char>('a' + rng.next_below(26));
      }
      toks.push_back(obs::encode_checksum_token(crc32c(payload)));
      const std::string head =
          "set " + key + " 0 0 " + std::to_string(payload.size());
      script_a += head + tail(toks, shuffle_a) + "\r\n" + payload + "\r\n";
      script_b += head + tail(toks, shuffle_b) + "\r\n" + payload + "\r\n";
      model[key] = payload;
      stored.push_back(key);
    } else {
      const std::string key = rng.next_below(8) == 0
                                  ? "never-set"
                                  : stored[rng.next_below(stored.size())];
      if (rng.next_below(2) == 0) toks.push_back("C00000000");
      script_a += "get " + key + tail(toks, shuffle_a) + "\r\n";
      script_b += "get " + key + tail(toks, shuffle_b) + "\r\n";
    }
  }

  const auto run = [&](const std::string& wire, std::size_t max_chunk) {
    cache::ShardedCacheServer server(small_cache(), 1);
    cache::TextProtocolSession session(server);
    std::string out;
    Rng chunk_rng(seed ^ max_chunk);
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n = std::min<std::size_t>(
          wire.size() - pos, 1 + chunk_rng.next_below(max_chunk));
      out += session.feed(std::string_view(wire).substr(pos, n), 0);
      pos += n;
    }
    return out;
  };

  const std::string out_a = run(script_a, script_a.size());
  EXPECT_EQ(out_a, run(script_b, script_b.size()));
  EXPECT_EQ(out_a, run(script_a, 1));  // and ordering survives segmentation
  EXPECT_EQ(out_a, run(script_a, 7));

  // Scan the reply stream: every echoed checksum must be the CRC of the
  // value the model holds for that key. Payloads are lowercase-only, so
  // "VALUE " can never appear inside one.
  int echoes = 0;
  std::size_t pos = 0;
  while ((pos = out_a.find("VALUE ", pos)) != std::string::npos) {
    const std::size_t eol = out_a.find("\r\n", pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = out_a.substr(pos, eol - pos);
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start < line.size()) {
      const std::size_t space = line.find(' ', start);
      const std::size_t end = space == std::string::npos ? line.size() : space;
      parts.push_back(line.substr(start, end - start));
      start = end + 1;
    }
    ASSERT_GE(parts.size(), 4u) << line;
    if (parts.size() == 5) {
      ++echoes;
      const auto it = model.find(parts[1]);
      ASSERT_NE(it, model.end()) << line;
      EXPECT_EQ(parts[4], obs::encode_checksum_token(crc32c(it->second)))
          << line;
    }
    pos = eol + 2;
  }
  EXPECT_GT(echoes, 0) << "fuzz script must exercise the checksum echo";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaTokenOrderFuzz,
                         ::testing::Values(11ull, 2024ull, 777777ull));

}  // namespace
}  // namespace proteus
