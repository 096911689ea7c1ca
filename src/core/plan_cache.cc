#include "core/plan_cache.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string_view>

#include "core/optimizer.h"
#include "semstore/remainder.h"
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

std::vector<PricedRegion> PricedRegionsOf(const sql::BoundQuery& query) {
  std::vector<PricedRegion> priced;
  for (const sql::BoundRelation& rel : query.relations) {
    if (!rel.is_market()) continue;
    priced.push_back(PricedRegion{
        rel.def, semstore::ValidExpansion(rel.QueryRegion(),
                                          Optimizer::DimSpecsFor(*rel.def))});
  }
  return priced;
}

std::string PlanCache::MakeKey(const std::string& normalized_sql,
                               const std::vector<Value>& params,
                               int64_t min_epoch) {
  std::string key = normalized_sql;
  key += '\x1f';
  for (const Value& param : params) AppendValue(param, &key);
  key += '\x1f';
  key += std::to_string(min_epoch);
  return key;
}

size_t PlanCache::ShardOf(const std::string& key) {
  return std::hash<std::string_view>{}(key) % kShards;
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const std::string& key) const {
  const Shard& shard = shards_[ShardOf(key)];
  std::shared_ptr<const CachedPlan> entry;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) entry = it->second;
  }
  (entry != nullptr ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return entry;
}

bool PlanCache::Insert(const std::string& key, CachedPlan entry,
                       uint64_t invalidations_seen) {
  Shard& shard = shards_[ShardOf(key)];
  // Per-shard slice of the global bound (hashing spreads keys evenly).
  const size_t shard_cap = std::max<size_t>(1, max_entries_ / kShards);
  auto cached = std::make_shared<const CachedPlan>(std::move(entry));
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  // An invalidation that bumped the count before this check is either
  // seen here, or its scan of this shard runs after the insert and sees
  // the entry.
  if (invalidations() != invalidations_seen) return false;
  if (shard.entries.size() >= shard_cap && shard.entries.count(key) == 0) {
    // Full shard: drop it whole. Most of its entries are live plans, so a
    // policy that picks victims (e.g. CLOCK) would keep more of them.
    shard.entries.clear();
  }
  shard.entries[key] = std::move(cached);
  return true;
}

size_t PlanCache::Invalidate(const catalog::TableDef* table,
                             const Box& changed) {
  if (changed.empty()) return 0;
  invalidations_.fetch_add(1, std::memory_order_acq_rel);
  const auto stale = [&](const ShardMap::value_type& kv) {
    for (const PricedRegion& priced : kv.second->priced) {
      if (priced.table == table && priced.region.Overlaps(changed)) {
        return true;
      }
    }
    return false;
  };
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    dropped += std::erase_if(shard.entries, stale);
  }
  return dropped;
}

PlanCacheStats PlanCache::Stats() const {
  size_t entries = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    entries += shard.entries.size();
  }
  return PlanCacheStats{hits_.load(std::memory_order_relaxed),
                        misses_.load(std::memory_order_relaxed), entries};
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    shard.entries.clear();
  }
}

}  // namespace payless::core
