// TransactionDB: an in-memory transactional database D plus the
// serialization used to store it on the simulated HDFS (binary) and to
// exchange it with humans and other tools (the classic space-separated text
// format of the FIMI repository datasets).
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fim/itemset.h"
#include "util/common.h"

namespace yafim::fim {

/// Absolute support threshold for a relative one: ceil(frac * n), floored
/// at 1, with an epsilon guard so exact products (0.2 * 10) do not round up
/// through float noise. Every miner derives its thresholds through this one
/// helper -- the SON completeness proof and the sampling miner's relaxed
/// local thresholds both assume *ceil* semantics (a floor would admit
/// itemsets below frac into local results, inflating candidate unions
/// without any exactness payoff), so the rounding is pinned here and
/// regression-tested rather than re-derived inline at each call site.
u64 min_count_ceil(double frac, u64 n);

/// What the text parser saw. All-zero unless the DB came from from_text();
/// the malformed counters stay zero in strict mode (which throws instead).
struct ParseStats {
  u64 lines_total = 0;
  /// Lines skipped by the lenient parser, by reason (their sum is the
  /// number of transactions dropped relative to lines_total minus blanks).
  u64 bad_token_lines = 0;     // non-numeric token or u32 overflow
  u64 noncanonical_lines = 0;  // duplicate or unsorted items
  u64 overlong_lines = 0;      // more than kMaxTransactionItems items

  u64 malformed() const {
    return bad_token_lines + noncanonical_lines + overlong_lines;
  }
};

struct DatasetStats {
  u64 num_transactions = 0;
  /// Number of distinct items actually present.
  u32 num_items = 0;
  /// Largest item id + 1 (the nominal universe size).
  u32 item_universe = 0;
  double avg_length = 0.0;
  double max_length = 0.0;
  /// avg_length / num_items: how dense a bitmap view would be.
  double density = 0.0;
  /// Text-parse provenance (see ParseStats).
  ParseStats parse;
};

/// Strict from_text()'s rejection of a malformed line: a token that is not
/// a decimal item id below 2^32 (non-numeric, with glued characters such as
/// "2x", or too large).
class ParseError : public std::runtime_error {
 public:
  ParseError(u64 line, std::string token);
  /// 1-based line number in the parsed text.
  u64 line() const { return line_; }
  const std::string& token() const { return token_; }

 private:
  u64 line_;
  std::string token_;
};

class TransactionDB {
 public:
  TransactionDB() = default;

  /// Takes ownership of `transactions`; every transaction must already be
  /// canonical (sorted, unique) -- generators and parsers guarantee this,
  /// and it is CHECKed in debug builds.
  explicit TransactionDB(std::vector<Transaction> transactions);

  const std::vector<Transaction>& transactions() const { return tx_; }

  /// Move the transactions out (leaves the DB empty).
  std::vector<Transaction> release() { return std::move(tx_); }
  u64 size() const { return tx_.size(); }
  bool empty() const { return tx_.empty(); }

  DatasetStats stats() const;

  /// Absolute support count for a relative threshold, as ceil(frac * |D|)
  /// (an itemset is frequent iff sup >= this).
  u64 min_support_count(double min_support_frac) const;

  /// Exact support of one itemset by a full scan (test oracle; O(|D|)).
  u64 support(const Itemset& s) const;

  /// The "sizeup" transform from the paper's Fig. 4: the database
  /// replicated `times` times. Relative supports are unchanged.
  TransactionDB replicate(u32 times) const;

  // --- binary serialization (SimFS payloads) ---------------------------
  std::vector<u8> serialize() const;
  static TransactionDB deserialize(std::span<const u8> bytes);
  /// |D| of a serialize() payload, read from its header without decoding
  /// the transactions.
  static u64 serialized_size(std::span<const u8> bytes);

  // --- text interop (one transaction per line, items space-separated) --

  /// kStrict throws a ParseError at the first line holding a token that is
  /// not a decimal item id below 2^32; it canonicalizes unsorted or
  /// duplicate items and accepts overlong lines. kLenient treats any
  /// anomaly (bad token, duplicate/unsorted items, overlong line) as a
  /// malformed line: the line is skipped and counted in ParseStats instead
  /// of contaminating the database. Both modes split lines into tokens the
  /// same way.
  enum class ParseMode { kStrict, kLenient };

  /// Lenient-mode ceiling on items per transaction; longer lines are
  /// presumed framing damage (a lost newline glues transactions together).
  static constexpr u32 kMaxTransactionItems = 1u << 16;

  std::string to_text() const;
  static TransactionDB from_text(const std::string& text,
                                 ParseMode mode = ParseMode::kStrict);

  /// Stats from the from_text() call that built this DB (zeros otherwise).
  const ParseStats& parse_stats() const { return parse_stats_; }

 private:
  std::vector<Transaction> tx_;
  ParseStats parse_stats_;
};

}  // namespace yafim::fim
