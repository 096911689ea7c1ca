#include "durability/wal.h"

namespace payless::durability {

std::string EncodeHarvest(const HarvestRecord& record) {
  std::string out;
  common::BinWriter w(&out);
  w.U64(record.seq);
  w.Str(record.table);
  w.Str(record.dataset);
  w.I64(record.epoch);
  w.I64(record.num_records);
  w.I64(record.transactions);
  w.F64(record.price);
  common::WriteBox(w, record.region);
  w.U32(static_cast<uint32_t>(record.rows.size()));
  for (const Row& row : record.rows) common::WriteRow(w, row);
  return out;
}

bool DecodeHarvest(const std::string& payload, HarvestRecord* out) {
  common::BinReader r(payload);
  uint32_t num_rows = 0;
  if (!r.U64(&out->seq) || !r.Str(&out->table) || !r.Str(&out->dataset) ||
      !r.I64(&out->epoch) || !r.I64(&out->num_records) ||
      !r.I64(&out->transactions) || !r.F64(&out->price) ||
      !common::ReadBox(r, &out->region) || !r.U32(&num_rows)) {
    return false;
  }
  out->rows.clear();
  out->rows.reserve(num_rows);
  for (uint32_t i = 0; i < num_rows; ++i) {
    Row row;
    if (!common::ReadRow(r, &row)) return false;
    out->rows.push_back(std::move(row));
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace payless::durability
