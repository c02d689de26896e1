#include "ir/query_eval.h"

#include <gtest/gtest.h>

#include "core/inverted_index.h"
#include "ir/query_executor.h"

namespace duplex::ir {
namespace {

TEST(MergeOpsTest, Intersect) {
  EXPECT_EQ(Intersect({1, 3, 5, 7}, {3, 4, 5, 9}),
            (std::vector<DocId>{3, 5}));
  EXPECT_EQ(Intersect({}, {1}), (std::vector<DocId>{}));
  EXPECT_EQ(Intersect({1, 2}, {3, 4}), (std::vector<DocId>{}));
  EXPECT_EQ(Intersect({1, 2}, {1, 2}), (std::vector<DocId>{1, 2}));
}

TEST(MergeOpsTest, Union) {
  EXPECT_EQ(Union({1, 3}, {2, 3, 4}), (std::vector<DocId>{1, 2, 3, 4}));
  EXPECT_EQ(Union({}, {}), (std::vector<DocId>{}));
  EXPECT_EQ(Union({5}, {}), (std::vector<DocId>{5}));
}

TEST(MergeOpsTest, Difference) {
  EXPECT_EQ(Difference({1, 2, 3, 4}, {2, 4}), (std::vector<DocId>{1, 3}));
  EXPECT_EQ(Difference({1}, {1}), (std::vector<DocId>{}));
  EXPECT_EQ(Difference({}, {1}), (std::vector<DocId>{}));
}

class QueryEvalTest : public ::testing::Test {
 protected:
  QueryEvalTest() : index_(Options()) {
    index_.AddDocument("the cat sat on the mat");       // 0
    index_.AddDocument("the dog chased the cat");       // 1
    index_.AddDocument("a mouse ran away");             // 2
    index_.AddDocument("cat and dog and mouse");        // 3
    index_.AddDocument("nothing interesting here");     // 4
    EXPECT_TRUE(index_.FlushDocuments().ok());
  }

  static core::IndexOptions Options() {
    core::IndexOptions o;
    o.buckets.num_buckets = 8;
    o.buckets.bucket_capacity = 64;
    o.policy = core::Policy::NewZ();
    o.block_postings = 8;
    o.disks.num_disks = 2;
    o.disks.blocks_per_disk = 1 << 16;
    o.disks.block_size_bytes = 64;
    o.materialize = true;
    return o;
  }

  std::vector<DocId> Eval(const std::string& q) {
    Result<QueryResult> r = QueryExecutor(index_).EvaluateBoolean(q);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->docs : std::vector<DocId>{};
  }

  core::InvertedIndex index_;
};

TEST_F(QueryEvalTest, SingleTerm) {
  EXPECT_EQ(Eval("cat"), (std::vector<DocId>{0, 1, 3}));
}

TEST_F(QueryEvalTest, PaperExampleQuery) {
  // "(cat and dog) or mouse": docs with both cat and dog: {1, 3};
  // docs with mouse: {2, 3}; union: {1, 2, 3}.
  EXPECT_EQ(Eval("(cat AND dog) OR mouse"), (std::vector<DocId>{1, 2, 3}));
}

TEST_F(QueryEvalTest, AndNot) {
  EXPECT_EQ(Eval("cat AND NOT dog"), (std::vector<DocId>{0}));
}

TEST_F(QueryEvalTest, UnknownTermIsEmpty) {
  EXPECT_EQ(Eval("unicorn"), (std::vector<DocId>{}));
  EXPECT_EQ(Eval("cat AND unicorn"), (std::vector<DocId>{}));
  EXPECT_EQ(Eval("cat OR unicorn"), (std::vector<DocId>{0, 1, 3}));
}

TEST_F(QueryEvalTest, MissingTermCounted) {
  Result<QueryResult> r =
      QueryExecutor(index_).EvaluateBoolean("cat OR unicorn");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->missing_terms, 1u);
}

TEST_F(QueryEvalTest, CostAccountingCountsReads) {
  Result<QueryResult> r = QueryExecutor(index_).EvaluateBoolean("cat AND dog");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->read_ops, 2u);  // at least one read per term
  EXPECT_EQ(r->postings_read, 3u + 2u);  // cat: 3 docs, dog: 2 docs
}

TEST_F(QueryEvalTest, ParseErrorsPropagate) {
  Result<QueryResult> r = QueryExecutor(index_).EvaluateBoolean("AND AND");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryEvalTest, DeletedDocsFilteredFromResults) {
  index_.DeleteDocument(1);
  EXPECT_EQ(Eval("cat"), (std::vector<DocId>{0, 3}));
  EXPECT_EQ(Eval("cat AND dog"), (std::vector<DocId>{3}));
}

TEST_F(QueryEvalTest, CaseInsensitiveTermsMatchIndex) {
  EXPECT_EQ(Eval("CAT"), (std::vector<DocId>{0, 1, 3}));
}

}  // namespace
}  // namespace duplex::ir
