// Lifecycle configuration for a segmented log.

#ifndef SRC_AUDITLOG_LOG_OPTIONS_H_
#define SRC_AUDITLOG_LOG_OPTIONS_H_

#include <cstdint>

namespace keypad {

struct SegmentedLogOptions {
  // Seal a segment (and emit a signed checkpoint) once at least this many
  // entries have accumulated past the previous checkpoint, at the next
  // commit-group boundary. 0 disables segmentation entirely — the seed's
  // behavior, and the default.
  uint64_t segment_ops = 0;

  // Ship sealed segments to the attached SegmentStore so a checkpointed
  // prefix stays fetchable (and bit-rot-repairable) after truncation.
  bool cold_ship = false;

  // Drop checkpointed prefixes from memory. Only advances over segments
  // that were actually shipped AND past the durable-watermark anchor (all
  // in-sync replicas hold the prefix), preserving duplicated-but-never-lost.
  // Implies cold_ship (SegmentedLog::Configure turns it on).
  bool truncate = false;
};

}  // namespace keypad

#endif  // SRC_AUDITLOG_LOG_OPTIONS_H_
