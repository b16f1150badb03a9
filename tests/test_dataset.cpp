// Unit tests for TransactionDB: stats, thresholds, the support oracle,
// replication, and both serialization formats.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fim/dataset.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

TransactionDB sample_db() {
  return TransactionDB({{1, 2, 3}, {2, 3}, {1, 3}, {3}, {1, 2, 3, 4}});
}

TEST(Dataset, BasicStats) {
  const auto stats = sample_db().stats();
  EXPECT_EQ(stats.num_transactions, 5u);
  EXPECT_EQ(stats.num_items, 4u);
  EXPECT_EQ(stats.item_universe, 5u);  // max item 4, +1
  EXPECT_DOUBLE_EQ(stats.avg_length, 12.0 / 5.0);
  EXPECT_DOUBLE_EQ(stats.max_length, 4.0);
  EXPECT_DOUBLE_EQ(stats.density, (12.0 / 5.0) / 4.0);
}

TEST(Dataset, EmptyDb) {
  TransactionDB db;
  EXPECT_TRUE(db.empty());
  const auto stats = db.stats();
  EXPECT_EQ(stats.num_transactions, 0u);
  EXPECT_EQ(stats.num_items, 0u);
  EXPECT_DOUBLE_EQ(stats.avg_length, 0.0);
}

TEST(Dataset, MinSupportCount) {
  const auto db = sample_db();  // 5 transactions
  EXPECT_EQ(db.min_support_count(0.2), 1u);
  EXPECT_EQ(db.min_support_count(0.21), 2u);
  EXPECT_EQ(db.min_support_count(0.4), 2u);
  EXPECT_EQ(db.min_support_count(1.0), 5u);
  EXPECT_EQ(db.min_support_count(0.0001), 1u);
}

TEST(Dataset, MinSupportCountRejectsBadFractions) {
  const auto db = sample_db();
  EXPECT_DEATH(db.min_support_count(0.0), "relative support");
  EXPECT_DEATH(db.min_support_count(1.5), "relative support");
}

TEST(Dataset, SupportOracle) {
  const auto db = sample_db();
  EXPECT_EQ(db.support({3}), 5u);
  EXPECT_EQ(db.support({1}), 3u);
  EXPECT_EQ(db.support({1, 2}), 2u);
  EXPECT_EQ(db.support({1, 2, 3, 4}), 1u);
  EXPECT_EQ(db.support({5}), 0u);
  EXPECT_EQ(db.support({}), 5u);  // empty set in every transaction
}

TEST(Dataset, ReplicatePreservesRelativeSupport) {
  const auto db = sample_db();
  const auto db3 = db.replicate(3);
  EXPECT_EQ(db3.size(), 15u);
  EXPECT_EQ(db3.support({1, 2}), 3 * db.support({1, 2}));
  EXPECT_EQ(db3.min_support_count(0.4), 6u);
  EXPECT_EQ(db.replicate(1).size(), db.size());
}

TEST(Dataset, BinarySerializationRoundTrip) {
  const auto db = sample_db();
  const auto bytes = db.serialize();
  const auto back = TransactionDB::deserialize(bytes);
  EXPECT_EQ(back.transactions(), db.transactions());
}

TEST(Dataset, BinarySerializationRandomRoundTrip) {
  Rng rng(44);
  std::vector<Transaction> tx;
  for (int i = 0; i < 200; ++i) {
    Transaction t;
    for (int j = 0; j < 30; ++j) {
      if (rng.bernoulli(0.3)) t.push_back(j);
    }
    tx.push_back(std::move(t));
  }
  TransactionDB db(std::move(tx));
  EXPECT_EQ(TransactionDB::deserialize(db.serialize()).transactions(),
            db.transactions());
}

TEST(Dataset, TextRoundTrip) {
  const auto db = sample_db();
  const auto text = db.to_text();
  const auto back = TransactionDB::from_text(text);
  EXPECT_EQ(back.transactions(), db.transactions());
}

TEST(Dataset, FromTextCanonicalizesAndSkipsBlanks) {
  const auto db = TransactionDB::from_text("3 1 2 3\n\n7\n");
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.transactions()[0], (Transaction{1, 2, 3}));
  EXPECT_EQ(db.transactions()[1], (Transaction{7}));
}

TEST(Dataset, LenientParserSkipsAndCountsMalformedLines) {
  const std::string text =
      "1 2 3\n"        // ok
      "4 x 5\n"        // non-numeric token
      "2 2 9\n"        // duplicate item
      "9 3\n"          // unsorted
      "7\n"            // ok
      "   \n"          // blank (ignored, not malformed)
      "12abc\n"        // glued suffix
      "5 6 7\n";       // ok
  const auto db =
      TransactionDB::from_text(text, TransactionDB::ParseMode::kLenient);
  ASSERT_EQ(db.size(), 3u);
  EXPECT_EQ(db.transactions()[0], (Transaction{1, 2, 3}));
  EXPECT_EQ(db.transactions()[1], (Transaction{7}));
  EXPECT_EQ(db.transactions()[2], (Transaction{5, 6, 7}));

  const ParseStats& p = db.parse_stats();
  EXPECT_EQ(p.lines_total, 7u);  // the blank line is not counted
  EXPECT_EQ(p.bad_token_lines, 2u);
  EXPECT_EQ(p.noncanonical_lines, 2u);
  EXPECT_EQ(p.overlong_lines, 0u);
  EXPECT_EQ(p.malformed(), 4u);
  // The same counters surface through DatasetStats.
  EXPECT_EQ(db.stats().parse.malformed(), 4u);
}

TEST(Dataset, LenientParserRejectsOverlongAndOverflow) {
  std::string glued;
  for (u32 i = 0; i <= TransactionDB::kMaxTransactionItems; ++i) {
    glued += std::to_string(i);
    glued += ' ';
  }
  glued += "\n1 2\n";
  const auto db =
      TransactionDB::from_text(glued, TransactionDB::ParseMode::kLenient);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.parse_stats().overlong_lines, 1u);

  // An item that overflows u32 is a bad token, not a silent wrap.
  const auto db2 = TransactionDB::from_text(
      "99999999999\n3 4\n", TransactionDB::ParseMode::kLenient);
  ASSERT_EQ(db2.size(), 1u);
  EXPECT_EQ(db2.parse_stats().bad_token_lines, 1u);
}

TEST(Dataset, StrictParserNamesTheFirstMalformedLine) {
  // Each bad token -- non-numeric, glued garbage, above 2^32 - 1 -- stops
  // the parse at its 1-based line (empty lines count), naming the token.
  const std::pair<std::string, std::string> cases[] = {
      {"3 1 2\n\nfoo bar\n", "foo"},
      {"3 1 2\n\n1 2x 3\n", "2x"},
      {"3 1 2\n\n99999999999999\n", "99999999999999"},
      {"3 1 2\n\n4294967296 1\n", "4294967296"},
  };
  for (const auto& [text, token] : cases) {
    try {
      (void)TransactionDB::from_text(text);
      ADD_FAILURE() << "accepted " << token;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3u) << token;
      EXPECT_EQ(e.token(), token);
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
  }
  // The largest id, unsorted and duplicate items, and whitespace-only
  // lines still parse; items are canonicalized.
  const auto db = TransactionDB::from_text("4294967295 3 1 3\n \t\n");
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.transactions()[0], (Transaction{1, 3, 4294967295u}));
  EXPECT_TRUE(db.transactions()[1].empty());
  EXPECT_EQ(db.parse_stats().malformed(), 0u);
  // Overlong lines are only lenient mode's concern.
  std::string overlong;
  for (u32 i = 0; i <= TransactionDB::kMaxTransactionItems; ++i) {
    overlong += std::to_string(i) + ' ';
  }
  EXPECT_EQ(TransactionDB::from_text(overlong).transactions()[0].size(),
            TransactionDB::kMaxTransactionItems + 1);
}

TEST(Dataset, CorruptPayloadAborts) {
  auto bytes = sample_db().serialize();
  bytes.resize(bytes.size() / 2);  // truncate mid-record
  EXPECT_DEATH((void)TransactionDB::deserialize(bytes), "truncated");

  auto padded = sample_db().serialize();
  padded.push_back(0);  // trailing garbage
  EXPECT_DEATH((void)TransactionDB::deserialize(padded), "trailing");
}

TEST(Dataset, ReleaseMovesOut) {
  auto db = sample_db();
  const auto moved = db.release();
  EXPECT_EQ(moved.size(), 5u);
  EXPECT_TRUE(db.empty());
}

}  // namespace
}  // namespace yafim::fim
