// Micro-benchmarks (google-benchmark) of the query path: sorted-list
// merges and end-to-end boolean evaluation over a materialized index.
#include <benchmark/benchmark.h>

#include <set>
#include <string>

#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "util/random.h"

namespace duplex {
namespace {

std::vector<DocId> RandomSortedList(Rng& rng, size_t n, uint32_t max_gap) {
  std::vector<DocId> docs;
  DocId d = 0;
  for (size_t i = 0; i < n; ++i) {
    d += 1 + static_cast<DocId>(rng.Uniform(max_gap));
    docs.push_back(d);
  }
  return docs;
}

void BM_Intersect(benchmark::State& state) {
  Rng rng(1);
  const auto a = RandomSortedList(rng, static_cast<size_t>(state.range(0)),
                                  8);
  const auto b = RandomSortedList(rng, static_cast<size_t>(state.range(0)),
                                  8);
  for (auto _ : state) {
    auto r = ir::Intersect(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_Intersect)->Arg(1024)->Arg(65536);

void BM_Union(benchmark::State& state) {
  Rng rng(2);
  const auto a = RandomSortedList(rng, static_cast<size_t>(state.range(0)),
                                  8);
  const auto b = RandomSortedList(rng, static_cast<size_t>(state.range(0)),
                                  8);
  for (auto _ : state) {
    auto r = ir::Union(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_Union)->Arg(1024)->Arg(65536);

// A letters-only word name ("wa", "wb", ...): the tokenizer splits runs of
// letters from runs of digits.
std::string WordName(uint32_t w) {
  std::string name = "w";
  do {
    name += static_cast<char>('a' + w % 26);
    w /= 26;
  } while (w > 0);
  return name;
}

core::ShardedIndex* BuildQueryIndex() {
  core::IndexOptions options;
  options.buckets.num_buckets = 256;
  options.buckets.bucket_capacity = 256;
  options.policy = core::Policy::RecommendedQueryOptimized();
  options.block_postings = 128;
  options.disks.num_disks = 2;
  options.disks.blocks_per_disk = 1 << 18;
  options.materialize = true;
  auto* index = new core::ShardedIndex(
      core::ShardedIndexOptions::Partition(options, 1));
  Rng rng(3);
  for (int batch = 0; batch < 10; ++batch) {
    for (int d = 0; d < 300; ++d) {
      std::set<uint32_t> words;
      for (int i = 0; i < 20; ++i) {
        words.insert(static_cast<uint32_t>(
            rng.Bernoulli(0.5) ? rng.Uniform(20) : rng.Uniform(3000)));
      }
      std::string text;
      for (const uint32_t w : words) text += WordName(w) + " ";
      index->AddDocument(text);
    }
    if (!index->FlushDocuments().ok()) std::abort();
  }
  return index;
}

void BM_BooleanQuery(benchmark::State& state) {
  static core::ShardedIndex* index = BuildQueryIndex();
  for (auto _ : state) {
    auto r = ir::QueryExecutor(*index).EvaluateBoolean(
        "(wa AND wb) OR (wc AND NOT wd)");
    benchmark::DoNotOptimize(r);
    if (!r.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BooleanQuery);

}  // namespace
}  // namespace duplex

BENCHMARK_MAIN();
