#include "fim/dataset.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "util/bytes.h"

namespace yafim::fim {

u64 min_count_ceil(double frac, u64 n) {
  const double raw = frac * static_cast<double>(n);
  const u64 count = static_cast<u64>(std::ceil(raw - 1e-9));
  return std::max<u64>(count, 1);
}

TransactionDB::TransactionDB(std::vector<Transaction> transactions)
    : tx_(std::move(transactions)) {
#ifndef NDEBUG
  for (const Transaction& t : tx_) {
    YAFIM_DCHECK(is_canonical(t), "transactions must be canonical");
  }
#endif
}

DatasetStats TransactionDB::stats() const {
  DatasetStats s;
  s.num_transactions = tx_.size();
  std::unordered_set<Item> distinct;
  u64 total_len = 0;
  u32 universe = 0;
  for (const Transaction& t : tx_) {
    total_len += t.size();
    s.max_length = std::max<double>(s.max_length, static_cast<double>(t.size()));
    for (Item i : t) {
      distinct.insert(i);
      universe = std::max(universe, i + 1);
    }
  }
  s.num_items = static_cast<u32>(distinct.size());
  s.item_universe = universe;
  if (!tx_.empty()) {
    s.avg_length = static_cast<double>(total_len) /
                   static_cast<double>(tx_.size());
  }
  if (s.num_items > 0) s.density = s.avg_length / s.num_items;
  s.parse = parse_stats_;
  return s;
}

u64 TransactionDB::min_support_count(double min_support_frac) const {
  YAFIM_CHECK(min_support_frac > 0.0 && min_support_frac <= 1.0,
              "relative support must be in (0, 1]");
  return min_count_ceil(min_support_frac, tx_.size());
}

u64 TransactionDB::support(const Itemset& s) const {
  u64 count = 0;
  for (const Transaction& t : tx_) {
    if (contains_all(t, s)) ++count;
  }
  return count;
}

TransactionDB TransactionDB::replicate(u32 times) const {
  YAFIM_CHECK(times >= 1, "replicate() needs times >= 1");
  std::vector<Transaction> out;
  out.reserve(tx_.size() * times);
  for (u32 r = 0; r < times; ++r) {
    out.insert(out.end(), tx_.begin(), tx_.end());
  }
  return TransactionDB(std::move(out));
}

std::vector<u8> TransactionDB::serialize() const {
  ByteWriter w;
  w.write_u64(tx_.size());
  for (const Transaction& t : tx_) w.write_u32_vec(t);
  return w.take();
}

u64 TransactionDB::serialized_size(std::span<const u8> bytes) {
  return ByteReader(bytes).read_u64();
}

TransactionDB TransactionDB::deserialize(std::span<const u8> bytes) {
  ByteReader r(bytes);
  const u64 n = r.read_u64();
  std::vector<Transaction> tx;
  tx.reserve(n);
  for (u64 i = 0; i < n; ++i) tx.push_back(r.read_u32_vec());
  YAFIM_CHECK(r.done(), "trailing bytes after TransactionDB payload");
  return TransactionDB(std::move(tx));
}

std::string TransactionDB::to_text() const {
  std::ostringstream out;
  for (const Transaction& t : tx_) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i) out << ' ';
      out << t[i];
    }
    out << '\n';
  }
  return out.str();
}

namespace {

bool is_field_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Append one line's items to *t: every token must be a pure decimal u32.
/// Returns the first token that is not (empty when the whole line parsed).
std::string_view parse_items(const std::string& line, Transaction* t) {
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_field_space(line[i])) ++i;
    if (i >= line.size()) break;
    const size_t start = i;
    while (i < line.size() && !is_field_space(line[i])) ++i;
    const std::string_view token(line.data() + start, i - start);
    u64 value = 0;
    for (char c : token) {
      if (c < '0' || c > '9') return token;
      value = value * 10 + static_cast<u64>(c - '0');
      if (value > 0xFFFFFFFFull) return token;
    }
    t->push_back(static_cast<Item>(value));
  }
  return {};
}

bool is_blank(const std::string& line) {
  for (char c : line) {
    if (!is_field_space(c)) return false;
  }
  return true;
}

}  // namespace

ParseError::ParseError(u64 line, std::string token)
    : std::runtime_error("line " + std::to_string(line) + ": bad item '" +
                         token + "' (want a decimal id below 2^32)"),
      line_(line),
      token_(std::move(token)) {}

TransactionDB TransactionDB::from_text(const std::string& text,
                                       ParseMode mode) {
  std::vector<Transaction> tx;
  ParseStats stats;
  std::istringstream lines(text);
  std::string line;
  u64 line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    // Strict preserves the historical skip (only truly empty lines);
    // lenient also ignores whitespace-only lines.
    if (mode == ParseMode::kStrict ? line.empty() : is_blank(line)) continue;
    ++stats.lines_total;
    Transaction t;
    const std::string_view bad = parse_items(line, &t);
    if (mode == ParseMode::kStrict) {
      if (!bad.empty()) throw ParseError(line_no, std::string(bad));
      canonicalize(t);
    } else {
      if (!bad.empty()) {
        ++stats.bad_token_lines;
        continue;
      }
      if (t.size() > kMaxTransactionItems) {
        ++stats.overlong_lines;
        continue;
      }
      if (!is_canonical(t)) {
        ++stats.noncanonical_lines;
        continue;
      }
    }
    tx.push_back(std::move(t));
  }
  TransactionDB db(std::move(tx));
  db.parse_stats_ = stats;
  return db;
}

}  // namespace yafim::fim
