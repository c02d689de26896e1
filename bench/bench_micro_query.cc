// Micro-benchmarks (google-benchmark) of the query path: sorted-list
// merges and end-to-end boolean evaluation over a materialized index.
#include <benchmark/benchmark.h>

#include <map>
#include <set>

#include "core/inverted_index.h"
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

core::InvertedIndex* BuildQueryIndex() {
  core::IndexOptions options;
  options.buckets.num_buckets = 256;
  options.buckets.bucket_capacity = 256;
  options.policy = core::Policy::RecommendedQueryOptimized();
  options.block_postings = 128;
  options.disks.num_disks = 2;
  options.disks.blocks_per_disk = 1 << 18;
  options.materialize = true;
  auto* index = new core::InvertedIndex(options);
  Rng rng(3);
  DocId next_doc = 0;
  for (int batch = 0; batch < 10; ++batch) {
    std::map<WordId, std::vector<DocId>> lists;
    for (int d = 0; d < 300; ++d) {
      const DocId doc = next_doc++;
      std::set<WordId> words;
      for (int i = 0; i < 20; ++i) {
        words.insert(static_cast<WordId>(
            rng.Bernoulli(0.5) ? rng.Uniform(20) : rng.Uniform(3000)));
      }
      for (const WordId w : words) lists[w].push_back(doc);
    }
    text::InvertedBatch update;
    for (auto& [w, docs] : lists) update.entries.push_back({w, docs});
    if (!index->ApplyInvertedBatch(update).ok()) std::abort();
  }
  // Give the frequent words names the parser can use.
  for (WordId w = 0; w < 20; ++w) {
    index->vocabulary().GetOrAdd("w" + std::to_string(w));
  }
  return index;
}

void BM_BooleanQuery(benchmark::State& state) {
  static core::InvertedIndex* index = BuildQueryIndex();
  for (auto _ : state) {
    auto r = ir::QueryExecutor(*index).EvaluateBoolean(
        "(w0 AND w1) OR (w2 AND NOT w3)");
    benchmark::DoNotOptimize(r);
    if (!r.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BooleanQuery);

}  // namespace
}  // namespace duplex

BENCHMARK_MAIN();
