// SegmentedLog<Codec> — the shared hash-chained log substrate under both
// audit tiers (the PR-5 extraction pattern applied to the log layer).
//
// Both the key tier's AuditLog and the metadata tier's MetadataLog are the
// same machine: append-only entries chained in commit groups, where
//
//   seal = SHA-256(prev_seal || ser(e1) || ... || ser(eK))
//
// and a group of one is byte-identical to the classic per-entry chain.
// The per-tier Codec supplies the entry type, its canonical hash material
// and chain-field accessors, so each adapter keeps its historical hashes
// bit-for-bit while all seal/verify/cursor/replication logic lives here
// exactly once.
//
// On top of the shared chain the substrate adds the production lifecycle
// the duplicated code made impossible (ROADMAP: "Audit-log lifecycle at
// production scale"):
//
//  * segments + checkpoints — every `segment_ops` entries (at the next
//    commit-group boundary) the covered range is sealed as an immutable
//    segment with a Merkle root, pinned by a signed LogCheckpoint chained
//    to its predecessors. Checkpoint derivation depends only on the entry
//    and group sequence, so replicas derive identical checkpoints
//    independently — nothing extra crosses the replication wire.
//  * cold shipping — sealed segments land on a StorageBackend with a
//    cloud mirror (SegmentStore), so an evicted prefix stays fetchable
//    and bit-rot-repairable for forensic replay after theft.
//  * anchored truncation — a checkpointed prefix leaves memory only once
//    it is (a) shipped cold and (b) behind the durable-watermark anchor
//    (every replica holds it), preserving the replica-set invariant that
//    unacknowledged suffixes are duplicated-but-never-lost orphans.
//
// Staged entries (under an open batch) are not yet part of the log: they
// are invisible to entries()/Verify()/snapshots until sealed, and
// DiscardStaged() models losing them in a crash.

#ifndef SRC_AUDITLOG_SEGMENTED_LOG_H_
#define SRC_AUDITLOG_SEGMENTED_LOG_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/auditlog/checkpoint.h"
#include "src/auditlog/log_options.h"
#include "src/auditlog/merkle.h"
#include "src/auditlog/seal.h"
#include "src/auditlog/segment_store.h"
#include "src/cryptocore/sha256.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace keypad {

// The per-tier seam. A Codec provides:
//   using Entry = ...;
//   static constexpr const char* kName;            // error-message prefix
//   static uint64_t Seq(const Entry&); static void SetSeq(Entry&, uint64_t);
//   static uint64_t GroupStart(const Entry&);
//   static void SetGroupStart(Entry&, uint64_t);   // no-op for per-entry chains
//   static const Seal& PrevHash(const Entry&);
//   static void SetPrevHash(Entry&, const Seal&);
//   static const Seal& EntryHash(const Entry&);
//   static void SetEntryHash(Entry&, const Seal&);
//   static void SerializeEntry(const Entry&, Bytes*); // hash material, no prev
//   static WireValue EntryToWire(const Entry&);
//   static Result<Entry> EntryFromWire(const WireValue&);
//   static void CorruptForTesting(Entry&);
template <typename Codec>
class SegmentedLog {
 public:
  using Entry = typename Codec::Entry;

  SegmentedLog() = default;
  virtual ~SegmentedLog() = default;

  // --- Lifecycle configuration (call before the first append). ------------
  // Truncation drops only shipped segments, so `truncate` turns cold_ship
  // on.
  void Configure(SegmentedLogOptions options) {
    options.cold_ship = options.cold_ship || options.truncate;
    options_ = std::move(options);
  }
  const SegmentedLogOptions& log_options() const { return options_; }
  // `tier` namespaces this log's segments inside the (possibly shared) store.
  void set_segment_store(SegmentStore* store, std::string tier) {
    store_ = store;
    tier_ = std::move(tier);
  }
  SegmentStore* segment_store() const { return store_; }
  // Durable-watermark anchor: truncation never passes the returned seq.
  // Unset means unconstrained (single-node deployments).
  void set_truncate_anchor(std::function<uint64_t()> anchor) {
    anchor_ = std::move(anchor);
  }
  const std::function<uint64_t()>& truncate_anchor() const { return anchor_; }

  // --- Append path. --------------------------------------------------------

  // Appends a pre-filled entry; the substrate assigns seq and the chain
  // fields. Outside a batch the entry seals immediately (group of one).
  uint64_t AppendEntry(Entry entry) {
    uint64_t seq = size() + staged_.size();
    Codec::SetSeq(entry, seq);
    staged_.push_back(std::move(entry));
    if (batch_depth_ == 0) {
      SealStaged();
    }
    return seq;
  }

  // BeginBatch()/CommitBatch() nest: appends between the outermost pair are
  // staged and sealed together as one commit group. CommitBatch returns how
  // many entries the final seal covered.
  void BeginBatch() { ++batch_depth_; }
  size_t CommitBatch() {
    if (batch_depth_ > 0) {
      --batch_depth_;
    }
    if (batch_depth_ > 0) {
      return 0;
    }
    return SealStaged();
  }
  // Crash path: staged entries vanish (they were never durable).
  void DiscardStaged() {
    staged_.clear();
    batch_depth_ = 0;
  }
  size_t staged_count() const { return staged_.size(); }

  // --- Read path. ----------------------------------------------------------

  // The in-memory suffix: entry i has seq base_seq() + i. Before any
  // truncation this is the whole log.
  const std::vector<Entry>& entries() const { return entries_; }
  // Total chain length since genesis (including truncated prefixes).
  size_t size() const { return static_cast<size_t>(base_seq_) + entries_.size(); }
  uint64_t base_seq() const { return base_seq_; }
  const Seal& base_seal() const { return base_seal_; }
  const std::vector<LogCheckpoint>& checkpoints() const { return checkpoints_; }

  // In-memory entries with seq >= next_seq — O(result) thanks to
  // seq == base + index. Cursors below base_seq() are clamped: use
  // AllEntriesFromSeq for cold-inclusive reads.
  std::vector<Entry> EntriesAfterSeq(uint64_t next_seq) const {
    uint64_t from = std::max(next_seq, base_seq_);
    if (from >= size()) {
      return {};
    }
    return std::vector<Entry>(
        entries_.begin() + static_cast<ptrdiff_t>(from - base_seq_),
        entries_.end());
  }

  // Checkpointed entries in [from_seq, min(to_seq, base_seq())) fetched
  // back from the segment store, each segment verified against its signed
  // checkpoint (Merkle root + chain replay) before any entry is returned.
  // `repair` additionally pulls the cloud mirror on local damage
  // (forensic/offline callers only — it advances virtual time).
  Result<std::vector<Entry>> ColdEntries(uint64_t from_seq, uint64_t to_seq,
                                         bool repair = false) const {
    std::vector<Entry> out;
    to_seq = std::min<uint64_t>(to_seq, base_seq_);
    if (from_seq >= to_seq) {
      return out;
    }
    if (store_ == nullptr) {
      return UnavailableError(Name() + ": no segment store attached");
    }
    for (const LogCheckpoint& ckpt : checkpoints_) {
      if (ckpt.end_seq <= from_seq) {
        continue;
      }
      if (ckpt.start_seq >= to_seq) {
        break;
      }
      Result<SealedSegment> segment =
          repair ? store_->FetchWithRepair(tier_, ckpt.id)
                 : store_->Get(tier_, ckpt.id);
      if (!segment.ok()) {
        return segment.status();
      }
      std::vector<Entry> decoded;
      KP_RETURN_IF_ERROR(VerifySegment(*segment, ckpt, &decoded));
      for (auto& entry : decoded) {
        uint64_t seq = Codec::Seq(entry);
        if (seq >= from_seq && seq < to_seq) {
          out.push_back(std::move(entry));
        }
      }
    }
    if (out.size() != static_cast<size_t>(to_seq - from_seq)) {
      return DataLossError(Name() + ": cold range [" +
                           std::to_string(from_seq) + ", " +
                           std::to_string(to_seq) + ") not fully covered");
    }
    return out;
  }

  // Cold + hot: every entry with seq >= from_seq, fetching truncated
  // prefixes from the segment store as needed.
  Result<std::vector<Entry>> AllEntriesFromSeq(uint64_t from_seq,
                                               bool repair = false) const {
    std::vector<Entry> out;
    if (from_seq < base_seq_) {
      KP_ASSIGN_OR_RETURN(out, ColdEntries(from_seq, base_seq_, repair));
    }
    uint64_t hot = std::max(from_seq, base_seq_);
    if (hot >= size()) {
      return out;
    }
    out.reserve(out.size() + static_cast<size_t>(size() - hot));
    out.insert(out.end(),
               entries_.begin() + static_cast<ptrdiff_t>(hot - base_seq_),
               entries_.end());
    return out;
  }

  // --- Verification. -------------------------------------------------------

  // Checkpoint chain (hashes + signatures + base alignment) plus the full
  // in-memory chain from the base seal. kDataLoss on any mismatch.
  Status Verify() const {
    KP_RETURN_IF_ERROR(VerifyCheckpointState());
    for (const LogCheckpoint& ckpt : checkpoints_) {
      if (ckpt.end_seq > base_seq_ && ckpt.end_seq <= size()) {
        const Seal& held =
            Codec::EntryHash(entries_[ckpt.end_seq - base_seq_ - 1]);
        if (held != ckpt.chain_seal) {
          return DataLossError(Name() + ": checkpoint seal mismatch at " +
                               std::to_string(ckpt.id));
        }
      }
    }
    Seal prev = base_seal_;
    return VerifyRun(entries_, 0, entries_.size(), base_seq_, &prev);
  }

  // Catch-up verification: the checkpoint chain vouches for everything up
  // to the latest checkpoint; only the tail appended after it is replayed.
  // Identical to Verify() when no checkpoints exist.
  Status VerifyTail() const {
    KP_RETURN_IF_ERROR(VerifyCheckpointState());
    uint64_t tail_start = base_seq_;
    Seal prev = base_seal_;
    if (!checkpoints_.empty() && checkpoints_.back().end_seq > base_seq_) {
      tail_start = checkpoints_.back().end_seq;
      if (tail_start > size()) {
        return DataLossError(Name() + ": checkpoint past log end");
      }
      prev = Codec::EntryHash(entries_[tail_start - base_seq_ - 1]);
      if (prev != checkpoints_.back().chain_seal) {
        return DataLossError(Name() + ": checkpoint seal mismatch at " +
                             std::to_string(checkpoints_.back().id));
      }
    }
    return VerifyRun(entries_, tail_start - base_seq_, entries_.size(),
                     tail_start, &prev);
  }

  // End-to-end: replays the whole chain from genesis, fetching truncated
  // segments back from the cold store (with cloud repair) and verifying
  // each against its checkpoint — the forensic auditor's strongest check.
  Status VerifyFullChain() const {
    KP_RETURN_IF_ERROR(Verify());
    Bytes prev(32, 0);
    for (const LogCheckpoint& ckpt : checkpoints_) {
      if (ckpt.start_seq >= base_seq_) {
        break;
      }
      if (store_ == nullptr) {
        return UnavailableError(Name() +
                                ": truncated prefix with no segment store");
      }
      Result<SealedSegment> segment = store_->FetchWithRepair(tier_, ckpt.id);
      if (!segment.ok()) {
        return segment.status();
      }
      if (segment->prev_seal != prev) {
        return DataLossError(Name() + ": cold segment chain break at " +
                             std::to_string(ckpt.id));
      }
      std::vector<Entry> decoded;
      KP_RETURN_IF_ERROR(VerifySegment(*segment, ckpt, &decoded));
      prev = ckpt.chain_seal;
    }
    if (base_seq_ > 0 && prev != base_seal_) {
      return DataLossError(Name() + ": cold chain does not reach base seal");
    }
    return Status::Ok();
  }

  // --- Restore / replication. ----------------------------------------------

  // The restore path: adopts a snapshot carrying base seq/seal, the
  // checkpoint chain and the in-memory suffix. The base must sit on a
  // checkpoint boundary and the suffix must chain from the base seal.
  Status LoadVerifiedWithBase(uint64_t base_seq, const Seal& base_seal,
                              std::vector<LogCheckpoint> checkpoints,
                              std::vector<Entry> entries) {
    KP_RETURN_IF_ERROR(
        VerifyCheckpointChain(checkpoints, DefaultCheckpointKey()));
    if (base_seq == 0) {
      if (base_seal != Seal()) {
        return DataLossError(Name() + ": nonzero base seal at genesis");
      }
    } else {
      bool aligned = false;
      for (const LogCheckpoint& ckpt : checkpoints) {
        if (ckpt.end_seq == base_seq) {
          if (ckpt.chain_seal != base_seal) {
            return DataLossError(Name() + ": snapshot base seal mismatch");
          }
          aligned = true;
          break;
        }
      }
      if (!aligned) {
        return DataLossError(Name() +
                             ": snapshot base not checkpoint-aligned");
      }
    }
    if (!checkpoints.empty() &&
        checkpoints.back().end_seq > base_seq + entries.size()) {
      return DataLossError(Name() + ": checkpoint past snapshot end");
    }
    Seal prev = base_seal;
    KP_RETURN_IF_ERROR(
        VerifyRun(entries, 0, entries.size(), base_seq, &prev));
    AdoptLog(base_seq, base_seal, std::move(checkpoints), std::move(entries));
    return Status::Ok();
  }

  // Replication path: appends already-sealed commit groups streamed from a
  // replica-set leader. A delta may overlap the local tail (rejoin after a
  // snapshot restore); the overlap must match byte-for-byte. Overlap below
  // base_seq() (truncated here) is skipped — the chain linkage of the first
  // retained entry still proves same-history, so a fork cannot slip in.
  // kDataLoss (and no mutation) on any mismatch.
  Status AppendReplicated(const std::vector<Entry>& entries) {
    const uint64_t base = size();
    Bytes material;
    size_t skip = 0;
    while (skip < entries.size() && Codec::Seq(entries[skip]) < base) {
      const Entry& incoming = entries[skip];
      uint64_t seq = Codec::Seq(incoming);
      if (seq >= base_seq_) {
        const Entry& held = entries_[seq - base_seq_];
        bool same = Codec::GroupStart(incoming) == Codec::GroupStart(held) &&
                    Codec::PrevHash(incoming) == Codec::PrevHash(held) &&
                    Codec::EntryHash(incoming) == Codec::EntryHash(held);
        if (same) {
          Bytes a, b;
          Codec::SerializeEntry(incoming, &a);
          Codec::SerializeEntry(held, &b);
          same = a == b;
        }
        if (!same) {
          return DataLossError(Name() + ": replicated overlap mismatch at " +
                               std::to_string(seq));
        }
      }
      ++skip;
    }
    Seal prev = LastSeal();
    size_t i = skip;
    std::vector<size_t> group_sizes;
    while (i < entries.size()) {
      const uint64_t start = base + (i - skip);
      if (Codec::Seq(entries[i]) != start ||
          Codec::GroupStart(entries[i]) != start) {
        return DataLossError(Name() + ": replicated suffix not contiguous at " +
                             std::to_string(start));
      }
      Sha256 hasher;
      prev.HashInto(hasher);
      size_t j = i;
      for (; j < entries.size() && Codec::GroupStart(entries[j]) == start;
           ++j) {
        const Entry& entry = entries[j];
        if (Codec::Seq(entry) != base + (j - skip) ||
            Codec::PrevHash(entry) != prev) {
          return DataLossError(Name() + ": replicated chain break at " +
                               std::to_string(base + (j - skip)));
        }
        material.clear();
        Codec::SerializeEntry(entry, &material);
        hasher.Update(material);
      }
      const Seal seal(hasher.Finish());
      for (size_t k = i; k < j; ++k) {
        if (Codec::EntryHash(entries[k]) != seal) {
          return DataLossError(Name() + ": replicated seal mismatch at " +
                               std::to_string(base + (k - skip)));
        }
      }
      prev = seal;
      group_sizes.push_back(j - i);
      i = j;
    }
    size_t idx = skip;
    for (size_t group : group_sizes) {
      for (size_t k = idx; k < idx + group; ++k) {
        entries_.push_back(entries[k]);
        OnCommitted(entries_.back());
      }
      ++commit_groups_;
      max_group_size_ = std::max<uint64_t>(max_group_size_, group);
      AfterGroupCommitted();
      idx += group;
    }
    return Status::Ok();
  }

  // Re-evaluates the truncation anchor — call when the durable watermark
  // advances outside an append (e.g. on a replication ack).
  void MaybeTruncate() {
    if (!options_.truncate || checkpoints_.empty()) {
      return;
    }
    uint64_t anchor = anchor_ ? anchor_() : UINT64_MAX;
    uint64_t shipped_end =
        shipped_segments_ == 0 ? 0 : checkpoints_[shipped_segments_ - 1].end_seq;
    uint64_t limit = std::min(anchor, shipped_end);
    uint64_t new_base = base_seq_;
    for (const LogCheckpoint& ckpt : checkpoints_) {
      if (ckpt.end_seq > limit) {
        break;
      }
      new_base = std::max(new_base, ckpt.end_seq);
    }
    if (new_base == base_seq_) {
      return;
    }
    // The new base is a checkpoint boundary, so the seal entering it is the
    // checkpoint's chain seal: the last dropped entry's.
    size_t drop = static_cast<size_t>(new_base - base_seq_);
    base_seal_ = Codec::EntryHash(entries_[drop - 1]);
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(drop));
    truncated_entries_ += drop;
    base_seq_ = new_base;
  }

  // --- Commit metrics (BENCH_scale.json / BENCH_auditlog.json). ------------
  uint64_t commit_groups() const { return commit_groups_; }
  uint64_t max_group_size() const { return max_group_size_; }
  // Host CPU nanoseconds spent inside seal passes.
  uint64_t seal_ns() const { return seal_ns_; }
  uint64_t truncated_entries() const { return truncated_entries_; }
  uint64_t segments_sealed() const { return checkpoints_.size(); }
  uint64_t segments_shipped() const { return shipped_segments_; }
  uint64_t ship_failures() const { return ship_failures_; }

  // Test hook: simulates an attacker with storage access mutating the
  // in-memory entry at `index` (relative to base_seq()).
  void CorruptEntryForTesting(size_t index) {
    if (index < entries_.size()) {
      Codec::CorruptForTesting(entries_[index]);
    }
  }

 protected:
  // Adapter hooks: OnCommitted fires for every entry as it becomes part of
  // the durable log (in order); OnReset fires before a wholesale adoption
  // replays OnCommitted for the adopted entries. Truncation does NOT fire
  // OnReset — adapter indexes deliberately retain truncated records.
  virtual void OnCommitted(const Entry&) {}
  virtual void OnReset() {}

  // Seals all staged entries as one commit group; returns the group size.
  size_t SealStaged() {
    if (staged_.empty()) {
      return 0;
    }
    auto t0 = std::chrono::steady_clock::now();
    const Seal prev = LastSeal();
    Sha256 hasher;
    prev.HashInto(hasher);
    Bytes material;
    for (const Entry& entry : staged_) {
      material.clear();
      Codec::SerializeEntry(entry, &material);
      hasher.Update(material);
    }
    const Seal seal(hasher.Finish());
    uint64_t group_start = Codec::Seq(staged_.front());
    for (Entry& entry : staged_) {
      Codec::SetGroupStart(entry, group_start);
      Codec::SetPrevHash(entry, prev);
      Codec::SetEntryHash(entry, seal);
      entries_.push_back(std::move(entry));
      OnCommitted(entries_.back());
    }
    size_t sealed = staged_.size();
    staged_.clear();
    ++commit_groups_;
    if (sealed > max_group_size_) {
      max_group_size_ = sealed;
    }
    seal_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    AfterGroupCommitted();
    return sealed;
  }

 private:
  static std::string Name() { return std::string(Codec::kName); }

  const Seal& LastSeal() const {
    return entries_.empty() ? base_seal_ : Codec::EntryHash(entries_.back());
  }

  // Chain seal immediately before absolute position `seq` (which must be in
  // [base_seq_, size()]).
  const Seal& SealBefore(uint64_t seq) const {
    return seq == base_seq_ ? base_seal_
                            : Codec::EntryHash(entries_[seq - base_seq_ - 1]);
  }

  // Verifies the commit-group chain over span[first, last), whose first
  // entry sits at absolute sequence `start_seq` with `*prev` the seal
  // entering it; leaves the final seal in *prev.
  Status VerifyRun(const std::vector<Entry>& span, size_t first, size_t last,
                   uint64_t start_seq, Seal* prev) const {
    Bytes material;
    size_t i = first;
    while (i < last) {
      const uint64_t abs = start_seq + (i - first);
      if (Codec::GroupStart(span[i]) != abs) {
        return DataLossError(Name() + ": group start mismatch at " +
                             std::to_string(abs));
      }
      Sha256 hasher;
      prev->HashInto(hasher);
      size_t j = i;
      for (; j < last && Codec::GroupStart(span[j]) == abs; ++j) {
        const Entry& entry = span[j];
        if (Codec::Seq(entry) != start_seq + (j - first)) {
          return DataLossError(Name() + ": sequence gap at " +
                               std::to_string(start_seq + (j - first)));
        }
        if (Codec::PrevHash(entry) != *prev) {
          return DataLossError(Name() + ": chain break at " +
                               std::to_string(start_seq + (j - first)));
        }
        material.clear();
        Codec::SerializeEntry(entry, &material);
        hasher.Update(material);
      }
      const Seal seal(hasher.Finish());
      for (size_t k = i; k < j; ++k) {
        if (Codec::EntryHash(span[k]) != seal) {
          return DataLossError(Name() + ": hash mismatch at " +
                               std::to_string(start_seq + (k - first)));
        }
      }
      *prev = seal;
      i = j;
    }
    return Status::Ok();
  }

  // Checkpoint chain + base-alignment invariants (everything checkable
  // without entry contents).
  Status VerifyCheckpointState() const {
    KP_RETURN_IF_ERROR(
        VerifyCheckpointChain(checkpoints_, DefaultCheckpointKey()));
    if (!checkpoints_.empty() && checkpoints_.back().end_seq > size()) {
      return DataLossError(Name() + ": checkpoint past log end");
    }
    if (base_seq_ == 0) {
      return Status::Ok();
    }
    for (const LogCheckpoint& ckpt : checkpoints_) {
      if (ckpt.end_seq == base_seq_) {
        if (ckpt.chain_seal != base_seal_) {
          return DataLossError(Name() + ": base seal mismatch");
        }
        return Status::Ok();
      }
    }
    return DataLossError(Name() + ": base not checkpoint-aligned");
  }

  // Decodes and fully verifies one cold segment against its checkpoint:
  // range, Merkle root over the entry material, and the seal chain from
  // the segment's entry seal to the signed chain seal.
  Status VerifySegment(const SealedSegment& segment, const LogCheckpoint& ckpt,
                       std::vector<Entry>* out) const {
    if (segment.index != ckpt.id || segment.start_seq != ckpt.start_seq ||
        segment.end_seq != ckpt.end_seq ||
        segment.merkle_root != ckpt.merkle_root) {
      return DataLossError(Name() + ": cold segment metadata mismatch at " +
                           std::to_string(ckpt.id));
    }
    if (segment.entries.size() !=
        static_cast<size_t>(ckpt.end_seq - ckpt.start_seq)) {
      return DataLossError(Name() + ": cold segment entry count mismatch at " +
                           std::to_string(ckpt.id));
    }
    std::vector<Entry> decoded;
    decoded.reserve(segment.entries.size());
    std::vector<Bytes> leaves;
    leaves.reserve(segment.entries.size());
    Bytes material;
    for (const WireValue& wire : segment.entries) {
      KP_ASSIGN_OR_RETURN(Entry entry, Codec::EntryFromWire(wire));
      material.clear();
      Codec::SerializeEntry(entry, &material);
      leaves.push_back(MerkleLeaf(material));
      decoded.push_back(std::move(entry));
    }
    if (MerkleRoot(std::move(leaves)) != ckpt.merkle_root) {
      return DataLossError(Name() + ": cold segment merkle mismatch at " +
                           std::to_string(ckpt.id));
    }
    KP_ASSIGN_OR_RETURN(Seal prev, Seal::FromBytes(segment.prev_seal));
    KP_RETURN_IF_ERROR(
        VerifyRun(decoded, 0, decoded.size(), ckpt.start_seq, &prev));
    if (prev != ckpt.chain_seal) {
      return DataLossError(Name() + ": cold segment seal mismatch at " +
                           std::to_string(ckpt.id));
    }
    *out = std::move(decoded);
    return Status::Ok();
  }

  // Segment boundary check after every committed group — evaluated per
  // group (not per delta) so leaders and backups derive identical
  // checkpoint boundaries from the same group sequence.
  void AfterGroupCommitted() {
    if (options_.segment_ops > 0) {
      uint64_t last_end =
          checkpoints_.empty() ? 0 : checkpoints_.back().end_seq;
      if (size() - last_end >= options_.segment_ops) {
        SealSegment(last_end, size());
      }
    }
    MaybeTruncate();
  }

  void SealSegment(uint64_t start, uint64_t end) {
    LogCheckpoint ckpt;
    ckpt.id = checkpoints_.size();
    ckpt.start_seq = start;
    ckpt.end_seq = end;
    std::vector<Bytes> leaves;
    leaves.reserve(static_cast<size_t>(end - start));
    Bytes material;
    for (uint64_t seq = start; seq < end; ++seq) {
      material.clear();
      Codec::SerializeEntry(entries_[seq - base_seq_], &material);
      leaves.push_back(MerkleLeaf(material));
    }
    ckpt.merkle_root = MerkleRoot(std::move(leaves));
    ckpt.chain_seal = Codec::EntryHash(entries_[end - base_seq_ - 1]);
    ckpt.prev_hash =
        checkpoints_.empty() ? Bytes(32, 0) : checkpoints_.back().hash;
    ckpt.Sign(DefaultCheckpointKey());
    checkpoints_.push_back(std::move(ckpt));
    ShipSegment(checkpoints_.back());
  }

  void ShipSegment(const LogCheckpoint& ckpt) {
    if (!options_.cold_ship || store_ == nullptr) {
      return;
    }
    SealedSegment segment;
    segment.tier = tier_;
    segment.index = ckpt.id;
    segment.start_seq = ckpt.start_seq;
    segment.end_seq = ckpt.end_seq;
    segment.prev_seal = SealBefore(ckpt.start_seq);
    segment.merkle_root = ckpt.merkle_root;
    segment.entries.reserve(static_cast<size_t>(ckpt.end_seq - ckpt.start_seq));
    for (uint64_t seq = ckpt.start_seq; seq < ckpt.end_seq; ++seq) {
      segment.entries.push_back(Codec::EntryToWire(entries_[seq - base_seq_]));
    }
    if (store_->Put(segment).ok()) {
      if (ckpt.id == shipped_segments_) {
        ++shipped_segments_;
      }
    } else {
      ++ship_failures_;
    }
  }

  // Wholesale adoption on restore: swaps in the new state, rebuilds
  // grouping stats from the group runs, and replays the adapter index hooks.
  void AdoptLog(uint64_t base_seq, const Seal& base_seal,
                std::vector<LogCheckpoint> checkpoints,
                std::vector<Entry> entries) {
    entries_ = std::move(entries);
    base_seq_ = base_seq;
    base_seal_ = base_seal;
    checkpoints_ = std::move(checkpoints);
    staged_.clear();
    batch_depth_ = 0;
    commit_groups_ = 0;
    max_group_size_ = 0;
    shipped_segments_ = 0;
    if (store_ != nullptr) {
      while (shipped_segments_ < checkpoints_.size() &&
             store_->Has(tier_, shipped_segments_)) {
        ++shipped_segments_;
      }
    }
    for (size_t i = 0; i < entries_.size();) {
      size_t run = i;
      uint64_t group = Codec::GroupStart(entries_[i]);
      while (run < entries_.size() &&
             Codec::GroupStart(entries_[run]) == group) {
        ++run;
      }
      ++commit_groups_;
      max_group_size_ = std::max<uint64_t>(max_group_size_, run - i);
      i = run;
    }
    OnReset();
    for (const Entry& entry : entries_) {
      OnCommitted(entry);
    }
  }

  SegmentedLogOptions options_;
  SegmentStore* store_ = nullptr;
  std::string tier_;
  std::function<uint64_t()> anchor_;

  std::vector<Entry> entries_;  // In-memory suffix from base_seq_.
  std::vector<Entry> staged_;
  int batch_depth_ = 0;
  uint64_t base_seq_ = 0;
  Seal base_seal_;  // Chain seal entering base_seq_ (zeros at genesis).
  std::vector<LogCheckpoint> checkpoints_;
  size_t shipped_segments_ = 0;  // Leading checkpoints whose segments landed.

  uint64_t commit_groups_ = 0;
  uint64_t max_group_size_ = 0;
  uint64_t seal_ns_ = 0;
  uint64_t truncated_entries_ = 0;
  uint64_t ship_failures_ = 0;
};

}  // namespace keypad

#endif  // SRC_AUDITLOG_SEGMENTED_LOG_H_
