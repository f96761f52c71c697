#include "src/cluster/backup_service.h"

#include <cassert>
#include <cstring>

namespace rocksteady {

void BackupService::Write(ServerId master, uint32_t segment_id, uint32_t offset,
                          const uint8_t* data, size_t length, bool seal) {
  Replica& replica = segments_[{master, segment_id}];
  if (offset == replica.data.size()) {
    // The in-order append: copy once, without zero-filling first.
    replica.data.insert(replica.data.end(), data, data + length);
  } else {
    // A rewrite or a gap.
    if (replica.data.size() < offset + length) {
      replica.data.resize(offset + length);
    }
    std::memcpy(replica.data.data() + offset, data, length);
  }
  replica.sealed = replica.sealed || seal;
  bytes_stored_ += length;
}

void BackupService::Reserve(ServerId master, uint32_t segment_id, size_t length) {
  segments_[{master, segment_id}].data.reserve(length);
}

std::vector<RecoverySegment> BackupService::GetRecoveryData(ServerId master,
                                                            uint32_t min_segment_id) const {
  std::vector<RecoverySegment> result;
  for (const auto& [key, replica] : segments_) {
    if (key.first == master && key.second >= min_segment_id) {
      result.push_back(RecoverySegment{key.second, replica.data, replica.sealed});
    }
  }
  return result;
}

void BackupService::FreeReplicas(ServerId master) {
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->first.first == master) {
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace rocksteady
