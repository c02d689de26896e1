// Quickstart: build a small dual-structure inverted index over raw text
// documents, query it (boolean and vector-space), delete a document, and
// read its statistics. The index is word-partitioned across four shards:
// each shard owns its own bucket store, long-list store, directory and
// disk array behind its own reader-writer lock; batch updates split by
// word hash and apply to the shards in parallel, while each query term
// goes to its owning shard only — so an update on one shard never blocks
// a query whose words live elsewhere (the paper's 24x7 motivation). One
// shard is the paper's single index.
//
//   $ ./quickstart
#include <iostream>

#include "core/sharded_index.h"
#include "ir/query_executor.h"

int main() {
  using namespace duplex;

  // 1. Configure one index worth of resources, partitioned across four
  //    shards (the bucket space divides; each shard owns its own disks).
  //    `materialize = true` stores real posting payloads so queries work;
  //    the policy controls how long lists are laid out on disk (here: the
  //    paper's recommended update-optimized policy, new style +
  //    proportional reservation 1.2).
  core::IndexOptions total;
  total.buckets.num_buckets = 64;
  total.buckets.bucket_capacity = 256;
  total.policy = core::Policy::RecommendedUpdateOptimized();
  total.block_postings = 64;
  total.disks.num_disks = 2;
  total.disks.blocks_per_disk = 1 << 16;
  total.materialize = true;
  core::ShardedIndex index(core::ShardedIndexOptions::Partition(total, 4));

  // 2. Add documents. AddDocument stages the text; the documents become
  //    searchable after FlushDocuments(), which inverts them and pushes
  //    one batch into the on-disk structures (the paper's batch update),
  //    partitioned by word hash. For documents searchable the moment they
  //    are acked, ingest through core::LiveIndex::SubmitLive instead.
  index.AddDocument("the quick brown fox jumps over the lazy dog");
  index.AddDocument("a quick survey of text document retrieval");
  index.AddDocument("inverted lists map each word to its documents");
  index.AddDocument("the dog chased the cat around the document archive");
  if (Status s = index.FlushDocuments(); !s.ok()) {
    std::cerr << "flush failed: " << s << "\n";
    return 1;
  }

  // A second batch arrives later — this is an *incremental* update, no
  // index rebuild happens.
  index.AddDocument("quick cats write quick documents");
  index.AddDocument("the fox reads inverted lists");
  if (Status s = index.FlushDocuments(); !s.ok()) {
    std::cerr << "flush failed: " << s << "\n";
    return 1;
  }

  // 3. Queries go through one ir::QueryExecutor, which works over any
  //    core::IndexReader (this ShardedIndex, or a MergingReader overlay).
  ir::QueryExecutor executor(index);

  //    Boolean queries, e.g. the paper's "(cat and dog) or mouse" form.
  for (const char* q : {"quick AND dog", "(fox OR cat) AND NOT lazy",
                        "inverted lists"}) {
    Result<ir::QueryResult> r = executor.EvaluateBoolean(q);
    if (!r.ok()) {
      std::cerr << "query failed: " << r.status() << "\n";
      return 1;
    }
    std::cout << "query " << q << " -> docs [";
    for (size_t i = 0; i < r->docs.size(); ++i) {
      std::cout << (i ? ", " : "") << r->docs[i];
    }
    std::cout << "]  (" << r->read_ops << " list reads)\n";
  }

  // 4. Vector-space query: weighted terms, top-k scored documents.
  ir::VectorQuery vq;
  vq.terms = {{"quick", 2.0}, {"document", 1.0}, {"fox", 1.0}};
  Result<ir::VectorQueryResult> vr =
      executor.EvaluateVector(vq, 3, index.next_doc_id());
  if (!vr.ok()) {
    std::cerr << "vector query failed: " << vr.status() << "\n";
    return 1;
  }
  std::cout << "vector query top docs:";
  for (const ir::ScoredDoc& d : vr->top) {
    std::cout << " doc" << d.doc << "(score " << d.score << ")";
  }
  std::cout << "\n";

  // 5. Delete a document: immediate filtering, then a background sweep
  //    reclaims the space.
  index.DeleteDocument(0);
  Result<ir::QueryResult> after = executor.EvaluateBoolean("lazy");
  if (!after.ok()) {
    std::cerr << "query failed: " << after.status() << "\n";
    return 1;
  }
  std::cout << "after deleting doc 0, 'lazy' matches " << after->docs.size()
            << " docs\n";
  if (Status s = index.SweepDeletions(); !s.ok()) {
    std::cerr << "sweep failed: " << s << "\n";
    return 1;
  }

  // 6. Per-shard and merged statistics; every shard verifies.
  const std::vector<core::IndexStats> per_shard = index.ShardStats();
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    std::cout << "shard " << s << ": " << per_shard[s].total_postings
              << " postings, " << per_shard[s].bucket_words
              << " bucket words, " << per_shard[s].long_words
              << " long words\n";
  }
  const core::IndexStats stats = core::MergeStats(per_shard);
  std::cout << "index: " << stats.total_postings << " postings, "
            << stats.bucket_words << " bucket words, " << stats.long_words
            << " long words, utilization " << stats.long_utilization
            << ", " << stats.io_ops << " I/O events recorded\n";
  if (Status s = index.VerifyIntegrity(); !s.ok()) {
    std::cerr << "integrity check failed: " << s << "\n";
    return 1;
  }
  std::cout << "integrity ok\n";
  return 0;
}
