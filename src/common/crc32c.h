// CRC32C (Castagnoli) checksums.
//
// Every log entry and replicated segment carries a CRC32C over its header and
// payload, as in RAMCloud's log: replay on the migration target and crash
// recovery both validate checksums before incorporating records. On x86-64
// CPUs with SSE4.2 the crc32 instruction computes it; elsewhere a slice-by-8
// table does, with identical results (the simulated cluster charges checksum
// time through the cost model, so the choice never changes simulated time).
#ifndef ROCKSTEADY_SRC_COMMON_CRC32C_H_
#define ROCKSTEADY_SRC_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace rocksteady {

// Extends `crc` (use 0 for a fresh checksum) over `length` bytes.
uint32_t Crc32c(uint32_t crc, const void* data, size_t length);

// Incremental helper with the same semantics as RAMCloud's Crc32C object.
class Crc32cAccumulator {
 public:
  Crc32cAccumulator& Update(const void* data, size_t length) {
    crc_ = Crc32c(crc_, data, length);
    return *this;
  }

  template <typename T>
  Crc32cAccumulator& UpdateValue(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Update(&value, sizeof(value));
  }

  uint32_t result() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_CRC32C_H_
