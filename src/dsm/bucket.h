// Bucketing cells by partition: the group-by/shuffle step of a scatter.
//
// One counting sort instead of a hashed insert per cell: count the cells of
// each part, presize each part once, then fill every part in one walk of the
// input. A part receives its cells in input order (a stable filter), so a
// scatter that feeds cells in execution order ships each part in that order.
#ifndef ORION_SRC_DSM_BUCKET_H_
#define ORION_SRC_DSM_BUCKET_H_

#include <optional>
#include <vector>

#include "src/common/simd.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dsm/cell_store.h"

namespace orion {

// One cell of a store being scattered: its key and a pointer to its value.
struct CellRef {
  i64 key;
  const f32* value;
};

// Copies cells[i] into (*parts)[part_of[i]] for every i, in input order.
// A part that already holds a store (a dense block, or a part that must
// exist even when empty) is filled in place; any other part is created as a
// hashed store sized to its cell count, and only if a cell lands in it.
inline void BucketCells(const std::vector<CellRef>& cells, const std::vector<u32>& part_of,
                        i32 value_dim, std::vector<std::optional<CellStore>>* parts) {
  ORION_CHECK(part_of.size() == cells.size());
  std::vector<i64> count(parts->size(), 0);
  for (const u32 p : part_of) {
    ORION_CHECK(p < count.size()) << "part" << p << "out of" << count.size();
    ++count[p];
  }
  for (size_t p = 0; p < parts->size(); ++p) {
    std::optional<CellStore>& part = (*parts)[p];
    if (!part.has_value() && count[p] > 0) {
      part.emplace(value_dim, CellStore::Layout::kHashed, 0);
    }
    if (part.has_value()) {
      ORION_CHECK(part->value_dim() == value_dim);
      part->Reserve(count[p]);
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    simd::CopyF32((*parts)[part_of[i]]->GetOrCreate(cells[i].key), cells[i].value,
                  static_cast<size_t>(value_dim));
  }
}

}  // namespace orion

#endif  // ORION_SRC_DSM_BUCKET_H_
