// The generator is a pure function of the seed: one seed always yields the
// same request stream, and different seeds yield different streams.
#include <cstdio>

#include "gen.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, const char* workload) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: %s\n", workload, what);
    ++failures;
  }
}

}  // namespace

int main() {
  for (pb::Workload w : {pb::Workload::kZipfGet, pb::Workload::kResizeCycle,
                         pb::Workload::kPipelineMix}) {
    const char* name = pb::workload_name(w);
    const std::uint64_t a = pb::stream_hash(w, 7);
    expect(a == pb::stream_hash(w, 7), "same seed, same stream", name);
    expect(a != pb::stream_hash(w, 8), "different seeds, different streams", name);
  }
  // Every GET in a client stream has an answer the backend can give.
  const pb::ClientWorkload cw = pb::make_client_workload(pb::Workload::kZipfGet, 3);
  for (const pb::ClientOp& op : cw.ops) {
    if (cw.value_of(cw.keys[op.key]) != cw.value(op.key)) {
      expect(false, "backend answers every generated key", "zipf_get");
      break;
    }
  }
  expect(cw.value_of("u:99999999").empty(), "unknown keys have no value", "zipf_get");
  // Pipeline batches hold exactly their commands' requests.
  const pb::PipelineWorkload pw = pb::make_pipeline_workload(3);
  expect(pw.text.batches() * pb::kPipelineDepth == pw.text.cmds.size(),
         "text batches cover the stream", "pipeline_mix");
  expect(pw.binary.batches() * pb::kPipelineDepth == pw.binary.cmds.size(),
         "binary batches cover the stream", "pipeline_mix");
  expect(pw.text.keys.front()[0] != pw.binary.keys.front()[0],
         "connections own disjoint key ranges", "pipeline_mix");
  if (failures == 0) std::printf("perfbench_gen_test: ok\n");
  return failures == 0 ? 0 : 1;
}
