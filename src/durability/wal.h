// Append-only write-ahead log for the harvest path.
//
// Every record is one HARVEST: a market call's billed result at the single
// point where money turned into state (the connector listener that feeds
// the semantic store and the statistics — Fig. 3, steps 5.3/5.4). Replaying
// the log through that same listener deterministically rebuilds the store
// and the feedback histograms, which is what makes a warm restart
// billing-correct: a slab whose record is on disk is never re-bought, and
// nothing is ever served that was not paid for.
//
// The on-disk format is the shared CRC framing in common/framing.h
// (`[u32 len][u32 crc][payload]`, torn-tail discipline): the log is a
// common::FramedAppendFile read back with common::ReadFramedFile. This
// header adds the harvest record codec on top of it.
#ifndef PAYLESS_DURABILITY_WAL_H_
#define PAYLESS_DURABILITY_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/framing.h"
#include "common/geometry.h"
#include "common/status.h"
#include "common/value.h"

namespace payless::durability {

/// One logged harvest: the market call's identity and billed result, plus
/// everything the listener needs to re-apply it (region + rows + epoch).
/// `transactions`/`price` are audit fields (what this slab cost under
/// Eq. 1); replay does not re-bill them.
struct HarvestRecord {
  uint64_t seq = 0;  // assigned by the log, strictly increasing from 1
  std::string table;
  std::string dataset;
  int64_t epoch = 0;        // store week the harvest was stamped with
  int64_t num_records = 0;  // true result size fed back to the statistics
  int64_t transactions = 0;
  double price = 0.0;
  Box region;
  std::vector<Row> rows;
};

std::string EncodeHarvest(const HarvestRecord& record);
bool DecodeHarvest(const std::string& payload, HarvestRecord* out);

}  // namespace payless::durability

#endif  // PAYLESS_DURABILITY_WAL_H_
