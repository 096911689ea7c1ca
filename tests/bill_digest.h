// The bill digest: one line per query of three fixed single-caller
// sequences, each run through a fresh PayLessFullConfig client with tracing
// off. A line holds the workload, the query's index, its template, its
// result row count, the transactions it billed, and an order-sensitive
// FNV-1a hash of its result schema and rows (ResultHash).
// tests/golden/bills.txt is the committed digest; bill_digest_test
// recomputes it and bill_digest regenerates it.
//
// The sequences:
//   - real_cold: the Fig. 10a real workload's 1,000 instances (scale 0.1,
//     200 per template, query seed 1) in order;
//   - tpch_skew_cold: the TPC-H skew workload's 400 instances (SF 0.002,
//     Zipf 1, 20 per template, query seed 1) in order;
//   - repeat_mix: 4,000 draws over real_cold's pool, each a uniform
//     template and then a Zipf(1)-ranked instance of it (Rng(7)).
#ifndef PAYLESS_TESTS_BILL_DIGEST_H_
#define PAYLESS_TESTS_BILL_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "exec/payless.h"
#include "workload/bundle.h"

namespace payless::digest {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
inline uint64_t Fnv1a(std::string_view bytes, uint64_t hash = kFnvOffset) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Order-sensitive hash of a result: its schema's text, then every value
/// of every row in order, as a type tag and its bytes (the bit pattern of a
/// number). Stricter than hashing the rows' text, and cheap enough for the
/// repeat mix's million result rows.
inline uint64_t ResultHash(const storage::Table& result) {
  uint64_t hash = Fnv1a(result.schema().ToString());
  const auto feed = [&hash](char tag, const void* bytes, size_t size) {
    hash = Fnv1a(std::string_view(&tag, 1), hash);
    hash = Fnv1a(std::string_view(static_cast<const char*>(bytes), size),
                 hash);
  };
  for (const Row& row : result.rows()) {
    for (const Value& value : row) {
      if (value.is_null()) {
        feed('n', nullptr, 0);
      } else if (value.is_int64()) {
        const int64_t v = value.AsInt64();
        feed('i', &v, sizeof(v));
      } else if (value.is_double()) {
        const double v = value.AsDouble();
        feed('d', &v, sizeof(v));
      } else {
        const std::string& v = value.AsString();
        const uint64_t size = v.size();
        feed('s', &size, sizeof(size));
        hash = Fnv1a(v, hash);
      }
    }
    feed('\n', nullptr, 0);
  }
  return hash;
}

/// The digest line of one query's outcome.
inline std::string DigestLine(const std::string& workload, size_t index,
                              const workload::QueryInstance& query,
                              const Result<exec::QueryReport>& report) {
  char line[160];
  if (!report.ok()) {
    std::snprintf(line, sizeof(line), "%s %zu t%zu error %s",
                  workload.c_str(), index, query.template_id,
                  report.status().ToString().c_str());
    return line;
  }
  std::snprintf(line, sizeof(line), "%s %zu t%zu %zu %lld %016llx%s",
                workload.c_str(), index, query.template_id,
                report->result.num_rows(),
                static_cast<long long>(report->transactions_spent),
                static_cast<unsigned long long>(ResultHash(report->result)),
                report->error.ok() ? "" : " failed");
  return line;
}

/// The real workload the digest runs on: real_cold's instance list.
inline std::unique_ptr<workload::Bundle> RealColdBundle() {
  workload::RealDataOptions options;
  options.scale = 0.1;
  return workload::MakeRealBundle(options, 200, /*query_seed=*/1);
}

inline std::unique_ptr<workload::Bundle> TpchSkewColdBundle() {
  workload::TpchOptions options;
  options.scale_factor = 0.002;
  options.zipf = 1.0;
  return workload::MakeTpchBundle(options, 20, /*query_seed=*/1);
}

/// The repeat mix's first `count` draws, as indices into `bundle.queries`:
/// each a uniform template, then a Zipf(1) rank among its instances in
/// pool order.
inline std::vector<size_t> RepeatMixDraws(const workload::Bundle& bundle,
                                          size_t count) {
  std::vector<std::vector<size_t>> by_template;
  for (size_t i = 0; i < bundle.queries.size(); ++i) {
    const size_t t = bundle.queries[i].template_id;
    if (by_template.size() <= t) by_template.resize(t + 1);
    by_template[t].push_back(i);
  }
  const ZipfDistribution zipf(
      static_cast<int64_t>(by_template.front().size()), 1.0);
  Rng rng(7);
  std::vector<size_t> draws;
  draws.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const std::vector<size_t>& ids = by_template[rng.Index(by_template.size())];
    const int64_t rank = std::min<int64_t>(zipf.Sample(&rng),
                                           static_cast<int64_t>(ids.size()));
    draws.push_back(ids[static_cast<size_t>(rank - 1)]);
  }
  return draws;
}

inline exec::PayLessConfig DigestConfig() {
  exec::PayLessConfig config = workload::PayLessFullConfig();
  config.enable_tracing = false;
  return config;
}

/// Runs `sequence` (indices into `bundle.queries`) through one fresh
/// client and appends one digest line per query to `lines`.
inline void AppendDigest(const std::string& workload,
                         const workload::Bundle& bundle,
                         const std::vector<size_t>& sequence,
                         std::vector<std::string>* lines) {
  const std::unique_ptr<exec::PayLess> client =
      workload::NewPayLessClient(bundle, DigestConfig());
  for (size_t i = 0; i < sequence.size(); ++i) {
    const workload::QueryInstance& query = bundle.queries[sequence[i]];
    const Result<exec::QueryReport> report =
        client->QueryWithReport(query.sql, query.params);
    lines->push_back(DigestLine(workload, i, query, report));
  }
}

inline std::vector<size_t> InOrder(const workload::Bundle& bundle) {
  std::vector<size_t> sequence(bundle.queries.size());
  for (size_t i = 0; i < sequence.size(); ++i) sequence[i] = i;
  return sequence;
}

/// Every line of the digest, in file order. The three sequences run at
/// once, each on its own thread through its own client; nothing a client
/// bills or answers depends on another client, so the lines are those of
/// three runs one after the other.
inline std::vector<std::string> ComputeBillDigest() {
  const std::unique_ptr<workload::Bundle> real = RealColdBundle();
  std::vector<std::string> real_cold, tpch_skew_cold, repeat_mix;
  std::thread real_cold_run([&] {
    AppendDigest("real_cold", *real, InOrder(*real), &real_cold);
  });
  std::thread tpch_run([&] {
    const std::unique_ptr<workload::Bundle> tpch = TpchSkewColdBundle();
    AppendDigest("tpch_skew_cold", *tpch, InOrder(*tpch), &tpch_skew_cold);
  });
  AppendDigest("repeat_mix", *real, RepeatMixDraws(*real, 4000), &repeat_mix);
  real_cold_run.join();
  tpch_run.join();
  std::vector<std::string> lines = std::move(real_cold);
  lines.insert(lines.end(), tpch_skew_cold.begin(), tpch_skew_cold.end());
  lines.insert(lines.end(), repeat_mix.begin(), repeat_mix.end());
  return lines;
}

/// The committed file's header; every header line starts with '#'.
inline const char* DigestHeader() {
  return "# Bill digest: one line per query of three single-caller sequences,\n"
         "# each through a fresh PayLessFullConfig client with tracing off\n"
         "# (tests/bill_digest.h). Columns: workload, index, template, result\n"
         "# rows, transactions_spent, FNV-1a of the result schema and values.\n"
         "# Regenerate with build/tests/bill_digest > tests/golden/bills.txt;\n"
         "# a change that moves a line declares a money or row-order change.\n"
         "# The generated data and instances go through libstdc++'s\n"
         "# std::uniform_int_distribution, whose output is implementation-\n"
         "# defined: this file pins the libstdc++ toolchain family.\n";
}

}  // namespace payless::digest

#endif  // PAYLESS_TESTS_BILL_DIGEST_H_
