// Traced-run layer replays: the workload's own generated keys, values and
// request batches pushed through each layer's public entry point, timed
// from here (hashring, cluster, bloom, client, cache, obs, common).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "client/memcache_client.h"
#include "util.h"

namespace pb {

struct ReplayInput {
  std::vector<std::string> keys;    // GET keys in stream order
  std::vector<std::string> values;  // a value per key, for SET replays
  std::vector<std::uint16_t> ports;  // the live daemons, provisioning order
  std::size_t budget_per_daemon = 0;
  // The daemons' request batches as the workload sends them, for the
  // in-process protocol feed replay.
  std::string text_bytes, binary_bytes;
  std::vector<std::size_t> text_off, binary_off;  // batch boundaries
  std::size_t cmds_per_stream = 0;
  std::vector<std::uint32_t> latency_ns;  // inputs for the histogram replay
  std::function<std::string(std::string_view)> backend;
};

struct ReplayResult {
  double get_self_us = 0;  // ProteusClient::get minus its wire round trip
  double text_feed_us_per_cmd = 0, binary_feed_us_per_cmd = 0;
  // The replay client's counters (pipeline_mix has no other client).
  proteus::client::ProteusClient::Stats client;
};

// Runs every replay against `in` and adds its per-layer metrics to `out`.
ReplayResult replay_layers(const ReplayInput& in, Report& out);

// Builds depth-1 text and binary batches (one command each) from a
// sequence of GETs and SETs: the requests a ProteusClient sends.
void build_single_command_batches(const std::vector<std::string>& keys,
                                  const std::vector<std::string>& values,
                                  const std::vector<bool>& is_set,
                                  ReplayInput& in);

}  // namespace pb
