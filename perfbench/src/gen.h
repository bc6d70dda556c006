// Seeded input generation. Every key, value and request byte a run sends is
// built here, before any timing starts; the same seed always yields the
// same streams (stream_hash pins that, see tests/gen_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

enum class Workload { kZipfGet, kResizeCycle, kPipelineMix };
std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

// Random bytes that every value is a slice of. A value is identified by its
// (offset, length) pair, so an oracle can check a reply byte for byte
// without keeping a copy per key.
struct ValuePool {
  static constexpr std::size_t kSpan = 1u << 20;  // offsets fall in [0, kSpan)
  static constexpr std::uint32_t kMaxValue = 4096;
  std::string bytes;  // kSpan + kMaxValue bytes
  std::string_view slice(std::uint32_t off, std::uint32_t len) const {
    return std::string_view(bytes).substr(off, len);
  }
};

// --- zipf_get / resize_cycle ------------------------------------------------
inline constexpr int kFleetDaemons = 4;

struct ClientOp {
  std::uint32_t key;
  bool put;
};

struct ClientWorkload {
  std::size_t budget_per_daemon = 0;  // bytes of cache per daemon
  std::uint32_t object_size = 0;      // every value's length
  std::vector<std::string> keys;      // "u:<8 digits>", the digits = index
  std::vector<std::uint32_t> value_off;  // fixed value per key
  ValuePool pool;
  std::vector<ClientOp> ops;  // cycled; length is a power of two
  std::size_t key_space_bytes = 0;  // sum of item charges over all keys

  // The deterministic backend's answer for `key` (the database row); empty
  // for a key this workload never generates.
  std::string_view value_of(std::string_view key) const;
  std::string_view value(std::uint32_t k) const {
    return pool.slice(value_off[k], object_size);
  }
};
ClientWorkload make_client_workload(Workload w, std::uint64_t seed);

// --- pipeline_mix -----------------------------------------------------------
inline constexpr int kPipelineDepth = 16;

struct PipeCmd {
  std::uint32_t key;
  std::uint32_t voff;  // SET payload = pool.slice(voff, vlen)
  std::uint32_t vlen;
  bool set;
};

// One connection's request stream: its own key range and prebuilt batches.
struct PipeStream {
  bool binary = false;
  std::vector<std::string> keys;
  std::vector<PipeCmd> cmds;  // kPipelineDepth per batch
  std::string bytes;          // every batch's request bytes, back to back
  std::vector<std::size_t> batch_off;  // batch b = [batch_off[b], batch_off[b+1])
  std::size_t batches() const { return batch_off.size() - 1; }
  std::string_view batch(std::size_t b) const {
    return std::string_view(bytes).substr(batch_off[b],
                                          batch_off[b + 1] - batch_off[b]);
  }
};

struct PipelineWorkload {
  std::size_t budget = 0;  // the one daemon's cache bytes
  ValuePool pool;
  PipeStream text, binary;
  std::size_t key_space_bytes = 0;
};
PipelineWorkload make_pipeline_workload(std::uint64_t seed);

// Request encoders shared by the generators and the in-process feed replay.
void append_text_get(std::string& out, std::string_view key);
void append_text_set(std::string& out, std::string_view key,
                     std::string_view value);
void append_binary_get(std::string& out, std::string_view key);
void append_binary_set(std::string& out, std::string_view key,
                       std::string_view value);

// Hash of everything a workload would send for `seed`.
std::uint64_t stream_hash(Workload w, std::uint64_t seed);

}  // namespace pb
