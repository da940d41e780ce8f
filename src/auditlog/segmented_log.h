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
    KP_RETURN_IF_ERROR(
        WalkCold(from_seq, to_seq, repair, [&](std::vector<Entry>& rows) {
          for (auto& entry : rows) {
            uint64_t seq = Codec::Seq(entry);
            if (seq >= from_seq && seq < to_seq) {
              out.push_back(std::move(entry));
            }
          }
        }));
    if (from_seq < to_seq &&
        out.size() != static_cast<size_t>(to_seq - from_seq)) {
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
  Status Verify() const { return VerifyFrom(base_seq_); }

  // Catch-up verification: the checkpoint chain vouches for everything up
  // to the latest checkpoint; only the tail appended after it is replayed.
  // Identical to Verify() when no checkpoint ends past the base.
  Status VerifyTail() const {
    return VerifyFrom(checkpoints_.empty()
                          ? base_seq_
                          : std::max(base_seq_, checkpoints_.back().end_seq));
  }

  // End-to-end: replays the whole chain from genesis, fetching truncated
  // segments back from the cold store (with cloud repair) and verifying
  // each against its checkpoint — the forensic auditor's strongest check.
  // Verify() pins the base to the last truncated checkpoint's seal, so the
  // cold walk reaches the live tail.
  Status VerifyFullChain() const {
    KP_RETURN_IF_ERROR(Verify());
    return WalkCold(0, base_seq_, /*repair=*/true,
                    [](std::vector<Entry>&) {});
  }

  // --- Restore / replication. ----------------------------------------------

  // The restore path: adopts a snapshot carrying base seq/seal, the
  // checkpoint chain and the in-memory suffix. The base must sit on a
  // checkpoint boundary and the suffix must chain from the base seal.
  Status LoadVerifiedWithBase(uint64_t base_seq, const Seal& base_seal,
                              std::vector<LogCheckpoint> checkpoints,
                              std::vector<Entry> entries) {
    KP_RETURN_IF_ERROR(VerifyAnchors(checkpoints, base_seq, base_seal,
                                     base_seq + entries.size()));
    Seal prev = base_seal;
    std::vector<size_t> groups;
    KP_RETURN_IF_ERROR(
        VerifyRun(entries, 0, entries.size(), base_seq, &prev, &groups));
    AdoptLog(base_seq, base_seal, std::move(checkpoints), std::move(entries),
             groups);
    return Status::Ok();
  }

  // Replication path: appends already-sealed commit groups streamed from a
  // replica-set leader. A delta may overlap the local tail (rejoin after a
  // snapshot restore); the overlap must hold the same sealed rows. Overlap
  // below base_seq() (truncated here) is skipped — the chain linkage of the
  // first retained entry still proves same-history, so a fork cannot slip
  // in. kDataLoss (and no mutation) on any mismatch.
  Status AppendReplicated(const std::vector<Entry>& entries) {
    const uint64_t base = size();
    size_t skip = 0;
    for (; skip < entries.size() && Codec::Seq(entries[skip]) < base; ++skip) {
      uint64_t seq = Codec::Seq(entries[skip]);
      if (seq >= base_seq_ &&
          !SameSealedRow(entries[skip], entries_[seq - base_seq_])) {
        return DataLossError(Name() + ": replicated overlap mismatch at " +
                             std::to_string(seq));
      }
    }
    Seal prev = LastSeal();
    std::vector<size_t> groups;
    KP_RETURN_IF_ERROR(VerifyRun(entries, skip, entries.size(), base, &prev,
                                 &groups, kReplicaFaults));
    size_t idx = skip;
    for (size_t group : groups) {
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

  // Reconciliation (DESIGN.md §10): what a replica keeps of its own log
  // before it adopts the leader's — the in-memory rows and the checkpoint
  // chain vouching for the prefix below them.
  struct Retained {
    uint64_t base_seq = 0;
    std::vector<LogCheckpoint> checkpoints;
    std::vector<Entry> entries;
  };
  Retained Retain() const { return {base_seq_, checkpoints_, entries_}; }

  // The rows of `before` past the longest prefix it provably shares with
  // this log, oldest first: sealed, but not part of the adopted history
  // (duplicated in the worst case, never lost). Two proofs compose, by
  // absolute seq, since either side may have truncated a checkpointed
  // prefix out of memory (DESIGN.md §15):
  //  (a) equal checkpoint records pin the whole prefix they cover, even
  //      when one side no longer holds those rows in memory;
  //  (b) a scan over the rows both sides still hold extends the proof —
  //      the same sealed row at the same position implies an identical
  //      prefix below it, because every row seals over its predecessor.
  std::vector<Entry> DivergedRows(Retained before) const {
    uint64_t common = 0;
    size_t c = 0;
    while (c < before.checkpoints.size() && c < checkpoints_.size() &&
           before.checkpoints[c].end_seq == checkpoints_[c].end_seq &&
           before.checkpoints[c].hash == checkpoints_[c].hash) {
      ++c;
    }
    if (c > 0) {
      common = checkpoints_[c - 1].end_seq;
    }
    const uint64_t before_end = before.base_seq + before.entries.size();
    const uint64_t lo = std::max(before.base_seq, base_seq_);
    const uint64_t hi = std::min<uint64_t>(before_end, size());
    uint64_t scan = lo;
    while (scan < hi && SameSealedRow(before.entries[scan - before.base_seq],
                                      entries_[scan - base_seq_])) {
      ++scan;
    }
    if (scan > lo) {
      common = std::max(common, scan);
    }
    const uint64_t keep = std::max(common, before.base_seq);
    before.entries.erase(
        before.entries.begin(),
        before.entries.begin() +
            static_cast<ptrdiff_t>(keep - before.base_seq));
    return std::move(before.entries);
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
    const auto end =
        entries_.begin() + static_cast<ptrdiff_t>(new_base - base_seq_);
    base_seal_ = Codec::EntryHash(*(end - 1));
    truncated_entries_ += new_base - base_seq_;
    base_seq_ = new_base;
    OnTruncated(entries_.begin(), end);
    entries_.erase(entries_.begin(), end);
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
  // the durable log, in order; OnTruncated passes the rows truncation drops
  // (base_seq() already past them), which the adapter may move out before
  // they are erased. Adoption (LoadVerifiedWithBase) fires neither.
  using RowIt = typename std::vector<Entry>::iterator;
  virtual void OnCommitted(const Entry&) {}
  virtual void OnTruncated(RowIt /*first*/, RowIt /*last*/) {}

  // Seals all staged entries as one commit group; returns the group size.
  size_t SealStaged() {
    if (staged_.empty()) {
      return 0;
    }
    auto t0 = std::chrono::steady_clock::now();
    const Seal prev = LastSeal();
    Bytes material;
    const Seal seal =
        HashGroup(prev, staged_.begin(), staged_.end(), &material);
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

  // The group seal: SHA-256(prev_seal || ser(e1) || ... || ser(eK)) over
  // the rows [first, last), `material` a reusable scratch buffer.
  template <typename It>
  static Seal HashGroup(const Seal& prev, It first, It last, Bytes* material) {
    Sha256 hasher;
    prev.HashInto(hasher);
    for (; first != last; ++first) {
      material->clear();
      Codec::SerializeEntry(*first, material);
      hasher.Update(*material);
    }
    return Seal(hasher.Finish());
  }

  // The one sealed-row predicate: two rows are the same sealed row when
  // their group start, prev seal and entry seal are equal and so is their
  // hash material (which covers every field but the chain fields).
  static bool SameSealedRow(const Entry& a, const Entry& b) {
    if (Codec::GroupStart(a) != Codec::GroupStart(b) ||
        Codec::PrevHash(a) != Codec::PrevHash(b) ||
        Codec::EntryHash(a) != Codec::EntryHash(b)) {
      return false;
    }
    Bytes a_material;
    Bytes b_material;
    Codec::SerializeEntry(a, &a_material);
    Codec::SerializeEntry(b, &b_material);
    return a_material == b_material;
  }

  // How a chain walk words what it finds, in the order it checks: a group
  // whose first row is not at the group's own position, a later row out of
  // sequence, a prev seal that is not the seal entering the group, and a
  // row its group's seal does not match. AppendReplicated's words travel
  // back to the leader in the repl.append refusal.
  struct FaultWords {
    const char* misplaced;
    const char* gap;
    const char* prev;
    const char* seal;
  };
  static constexpr FaultWords kAuditFaults{
      "group start mismatch", "sequence gap", "chain break", "hash mismatch"};
  static constexpr FaultWords kReplicaFaults{
      "replicated suffix not contiguous", "replicated chain break",
      "replicated chain break", "replicated seal mismatch"};

  // The one commit-group walk: verifies span[first, last), whose first
  // entry sits at absolute sequence `start_seq` with `*prev` the seal
  // entering it, as whole commit groups; leaves the final seal in *prev and
  // appends each group's size to `groups` when given.
  Status VerifyRun(const std::vector<Entry>& span, size_t first, size_t last,
                   uint64_t start_seq, Seal* prev,
                   std::vector<size_t>* groups = nullptr,
                   const FaultWords& words = kAuditFaults) const {
    auto fault = [&](const char* what, size_t k) {
      return DataLossError(Name() + ": " + what + " at " +
                           std::to_string(start_seq + (k - first)));
    };
    Bytes material;
    size_t i = first;
    while (i < last) {
      const uint64_t start = start_seq + (i - first);
      if (Codec::GroupStart(span[i]) != start || Codec::Seq(span[i]) != start) {
        return fault(words.misplaced, i);
      }
      size_t j = i;
      for (; j < last && Codec::GroupStart(span[j]) == start; ++j) {
        if (Codec::Seq(span[j]) != start_seq + (j - first)) {
          return fault(words.gap, j);
        }
        if (Codec::PrevHash(span[j]) != *prev) {
          return fault(words.prev, j);
        }
      }
      const Seal seal =
          HashGroup(*prev, span.begin() + static_cast<ptrdiff_t>(i),
                    span.begin() + static_cast<ptrdiff_t>(j), &material);
      for (size_t k = i; k < j; ++k) {
        if (Codec::EntryHash(span[k]) != seal) {
          return fault(words.seal, k);
        }
      }
      *prev = seal;
      if (groups != nullptr) {
        groups->push_back(j - i);
      }
      i = j;
    }
    return Status::Ok();
  }

  // The one checkpoint/base check, for a log of `size` rows whose
  // in-memory suffix starts at `base_seq` under `base_seal`: the checkpoint
  // chain verifies and ends inside the log, and the base sits at genesis
  // under the zero seal or on a checkpoint boundary under that
  // checkpoint's chain seal.
  static Status VerifyAnchors(const std::vector<LogCheckpoint>& checkpoints,
                              uint64_t base_seq, const Seal& base_seal,
                              uint64_t size) {
    KP_RETURN_IF_ERROR(
        VerifyCheckpointChain(checkpoints, DefaultCheckpointKey()));
    if (!checkpoints.empty() && checkpoints.back().end_seq > size) {
      return DataLossError(Name() + ": checkpoint past log end");
    }
    if (base_seq == 0) {
      return base_seal == Seal()
                 ? Status::Ok()
                 : DataLossError(Name() + ": nonzero base seal at genesis");
    }
    for (const LogCheckpoint& ckpt : checkpoints) {
      if (ckpt.end_seq == base_seq) {
        return ckpt.chain_seal == base_seal
                   ? Status::Ok()
                   : DataLossError(Name() + ": base seal mismatch");
      }
    }
    return DataLossError(Name() + ": base not checkpoint-aligned");
  }

  // The body of Verify and VerifyTail, which differ only in `from`, where
  // the replay starts: the base, or a checkpoint boundary the checkpoint
  // chain vouches for. Every in-memory checkpoint seal from there on must
  // match the row it ends at.
  Status VerifyFrom(uint64_t from) const {
    KP_RETURN_IF_ERROR(
        VerifyAnchors(checkpoints_, base_seq_, base_seal_, size()));
    for (const LogCheckpoint& ckpt : checkpoints_) {
      if (ckpt.end_seq > base_seq_ && ckpt.end_seq >= from &&
          ckpt.end_seq <= size() &&
          Codec::EntryHash(entries_[ckpt.end_seq - base_seq_ - 1]) !=
              ckpt.chain_seal) {
        return DataLossError(Name() + ": checkpoint seal mismatch at " +
                             std::to_string(ckpt.id));
      }
    }
    Seal prev = SealBefore(from);
    return VerifyRun(entries_, from - base_seq_, entries_.size(), from, &prev);
  }

  // The one cold walk: fetches every checkpointed segment overlapping
  // [from_seq, to_seq) in chain order, verifies it against its checkpoint
  // and its predecessor's chain seal, and hands its decoded rows to
  // `visit`. `repair` pulls the cloud mirror on local damage.
  template <typename Visit>
  Status WalkCold(uint64_t from_seq, uint64_t to_seq, bool repair,
                  Visit visit) const {
    if (from_seq >= to_seq) {
      return Status::Ok();
    }
    if (store_ == nullptr) {
      return UnavailableError(Name() + ": no segment store attached");
    }
    for (size_t k = 0; k < checkpoints_.size(); ++k) {
      const LogCheckpoint& ckpt = checkpoints_[k];
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
      if (segment->prev_seal !=
          (k == 0 ? Bytes(32, 0) : checkpoints_[k - 1].chain_seal)) {
        return DataLossError(Name() + ": cold segment chain break at " +
                             std::to_string(ckpt.id));
      }
      std::vector<Entry> rows;
      KP_RETURN_IF_ERROR(VerifySegment(*segment, ckpt, &rows));
      visit(rows);
    }
    return Status::Ok();
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

  // Wholesale adoption on restore: swaps in the new state and takes the
  // grouping stats from the verified walk's group sizes.
  void AdoptLog(uint64_t base_seq, const Seal& base_seal,
                std::vector<LogCheckpoint> checkpoints,
                std::vector<Entry> entries, const std::vector<size_t>& groups) {
    entries_ = std::move(entries);
    base_seq_ = base_seq;
    base_seal_ = base_seal;
    checkpoints_ = std::move(checkpoints);
    staged_.clear();
    batch_depth_ = 0;
    commit_groups_ = groups.size();
    max_group_size_ = groups.empty()
                          ? 0
                          : *std::max_element(groups.begin(), groups.end());
    shipped_segments_ = 0;
    if (store_ != nullptr) {
      while (shipped_segments_ < checkpoints_.size() &&
             store_->Has(tier_, shipped_segments_)) {
        ++shipped_segments_;
      }
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
