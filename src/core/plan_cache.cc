#include "core/plan_cache.h"

#include <algorithm>
#include <mutex>

#include "sql/lexer.h"

namespace payless::core {

std::string NormalizeSqlTemplate(const std::string& sql) {
  Result<std::vector<sql::Token>> tokens = sql::Tokenize(sql);
  if (!tokens.ok()) return sql;  // unlexable: raw string, parser will reject
  std::string out;
  out.reserve(sql.size());
  for (const sql::Token& token : *tokens) {
    if (token.type == sql::TokenType::kEnd) break;
    if (!out.empty()) out.push_back(' ');
    if (token.type == sql::TokenType::kString) {
      // Re-quote so 'abc' can never collide with the identifier abc.
      out.push_back('\'');
      out += token.text;
      out.push_back('\'');
    } else {
      out += token.text;  // keywords arrive upper-cased from the lexer
    }
  }
  return out;
}

namespace {

/// Unambiguous parameter encoding: type tag + length-prefixed payload, so
/// e.g. the string "1" and the integer 1 never collide.
void AppendValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    *out += "n0:";
    return;
  }
  char tag = 's';
  std::string payload;
  if (v.is_int64()) {
    tag = 'i';
    payload = std::to_string(v.AsInt64());
  } else if (v.is_double()) {
    tag = 'd';
    payload = std::to_string(v.AsDouble());
  } else {
    payload = v.AsString();
  }
  *out += tag;
  *out += std::to_string(payload.size());
  *out += ':';
  *out += payload;
}

}  // namespace

std::string PlanCache::MakeKey(const std::string& normalized_sql,
                               const std::vector<Value>& params,
                               uint64_t staleness_epoch, int64_t min_epoch) {
  std::string key = normalized_sql;
  key += '\x1f';
  for (const Value& param : params) AppendValue(param, &key);
  key += '\x1f';
  key += std::to_string(staleness_epoch);
  key += '/';
  key += std::to_string(min_epoch);
  return key;
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const std::string& key) const {
  const Shard& shard = shards_[common::ShardOf(key, kShards)];
  const std::shared_ptr<const ShardMap> entries = shard.entries.Load();
  const auto it = entries->find(key);
  if (it == entries->end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void PlanCache::Insert(const std::string& key, CachedPlan entry) {
  Shard& shard = shards_[common::ShardOf(key, kShards)];
  // Per-shard slice of the global bound (hashing spreads keys evenly).
  const size_t shard_cap = std::max<size_t>(1, max_entries_ / kShards);
  std::lock_guard<std::mutex> lock(shard.write_mutex);
  const std::shared_ptr<const ShardMap> current = shard.entries.Load();
  std::shared_ptr<ShardMap> next;
  if (current->size() >= shard_cap && current->count(key) == 0) {
    next = std::make_shared<ShardMap>();  // epoch-stamped keys: mostly dead
  } else {
    next = std::make_shared<ShardMap>(*current);
  }
  (*next)[key] = std::make_shared<const CachedPlan>(std::move(entry));
  shard.entries.Store(std::move(next));
}

PlanCacheStats PlanCache::Stats() const {
  size_t entries = 0;
  for (const Shard& shard : shards_) entries += shard.entries.Load()->size();
  return PlanCacheStats{hits_.load(std::memory_order_relaxed),
                        misses_.load(std::memory_order_relaxed), entries};
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    shard.entries.Store(std::make_shared<const ShardMap>());
  }
}

}  // namespace payless::core
