// Backup half of a RAMCloud server.
//
// Figure 1: every server runs a master and a backup. Backups store replicas
// of other masters' log segments; the bytes are real, so crash recovery can
// replay them. (The paper's backups persist to disk/flash; the simulated
// backup keeps replicas in memory, which does not change any timing the
// evaluation depends on — durable-write latency is charged by the cost
// model, not by a device model.)
#ifndef ROCKSTEADY_SRC_CLUSTER_BACKUP_SERVICE_H_
#define ROCKSTEADY_SRC_CLUSTER_BACKUP_SERVICE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/rpc/messages.h"

namespace rocksteady {

class BackupService {
 public:
  // Appends `data` at `offset` of (master, segment_id)'s replica. Offsets
  // must be written in order (the replica manager guarantees this).
  void Write(ServerId master, uint32_t segment_id, uint32_t offset, const uint8_t* data,
             size_t length, bool seal);

  // Makes room for `length` bytes in (master, segment_id)'s replica
  // (creating it empty if absent), so that an in-order Write of those bytes
  // does not allocate. Callers follow it with that Write: an empty replica
  // still counts in segment_count() and GetRecoveryData().
  void Reserve(ServerId master, uint32_t segment_id, size_t length);

  // All replica segments held for `master` with id >= min_segment_id.
  std::vector<RecoverySegment> GetRecoveryData(ServerId master, uint32_t min_segment_id) const;

  // Drops replicas for `master` (after the master's data has been fully
  // recovered elsewhere).
  void FreeReplicas(ServerId master);

  uint64_t bytes_stored() const { return bytes_stored_; }
  size_t segment_count() const { return segments_.size(); }

 private:
  struct Replica {
    std::vector<uint8_t> data;
    bool sealed = false;
  };

  std::map<std::pair<ServerId, uint32_t>, Replica> segments_;
  uint64_t bytes_stored_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_BACKUP_SERVICE_H_
