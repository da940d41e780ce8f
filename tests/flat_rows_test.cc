// Tests for the flat row encoding of the audit RPC bodies (DESIGN.md §19):
// key-tier rows, metadata rows and path annotations must round-trip every
// field, and a truncated or padded blob must be rejected without reading
// past its end. A row's seals are 32 bytes in every encoding (DESIGN.md
// §27): a row carrying any other width fails to decode.

#include <gtest/gtest.h>

#include <utility>
#include <variant>

#include "src/keyservice/audit_log.h"
#include "src/metaservice/metadata_service.h"

namespace keypad {
namespace {

template <size_t N>
FixedId<N> IdFilledWith(uint8_t byte) {
  FixedId<N> id;
  id.v.fill(byte);
  return id;
}

Seal SealFilledWith(uint8_t byte) {
  Seal seal;
  seal.v.fill(byte);
  return seal;
}

std::vector<AuditLogEntry> SampleEntries() {
  AuditLogEntry a;
  a.seq = 7;
  a.group_start = 5;
  a.timestamp = SimTime(123456789);
  a.client_time = SimTime(-42);
  a.device_id = "laptop";
  a.audit_id = IdFilledWith<24>(0x11);
  a.op = AccessOp::kPrefetch;
  a.prev_hash = SealFilledWith(0x22);
  a.entry_hash = SealFilledWith(0x33);
  AuditLogEntry b;  // Empty device, genesis (all-zero) seals, the last op.
  b.seq = UINT64_MAX;
  b.op = AccessOp::kRestore;
  return {a, b};
}

std::vector<MetadataRecord> SampleRecords() {
  MetadataRecord a;
  a.seq = 3;
  a.timestamp = SimTime(1000);
  a.client_time = SimTime(999);
  a.device_id = "laptop";
  a.op = MetadataOp::kRenameFile;
  a.audit_id = IdFilledWith<24>(0x44);
  a.dir_id = IdFilledWith<16>(0x55);
  a.parent_dir_id = IdFilledWith<16>(0x66);
  a.name = "report.pdf";
  a.prev_hash = SealFilledWith(0x77);
  a.entry_hash = SealFilledWith(0x88);
  MetadataRecord b;  // Empty name and attr.
  b.seq = 4;
  b.op = MetadataOp::kSetAttr;
  MetadataRecord c = a;
  c.seq = 5;
  c.name = "";
  c.attr = "owner=alice";
  return {a, b, c};
}

void ExpectSame(const AuditLogEntry& x, const AuditLogEntry& y) {
  EXPECT_EQ(x.seq, y.seq);
  EXPECT_EQ(x.group_start, y.group_start);
  EXPECT_EQ(x.timestamp, y.timestamp);
  EXPECT_EQ(x.client_time, y.client_time);
  EXPECT_EQ(x.device_id, y.device_id);
  EXPECT_EQ(x.audit_id, y.audit_id);
  EXPECT_EQ(x.op, y.op);
  EXPECT_EQ(x.prev_hash, y.prev_hash);
  EXPECT_EQ(x.entry_hash, y.entry_hash);
}

void ExpectSame(const MetadataRecord& x, const MetadataRecord& y) {
  EXPECT_EQ(x.seq, y.seq);
  EXPECT_EQ(x.timestamp, y.timestamp);
  EXPECT_EQ(x.client_time, y.client_time);
  EXPECT_EQ(x.device_id, y.device_id);
  EXPECT_EQ(x.op, y.op);
  EXPECT_EQ(x.audit_id, y.audit_id);
  EXPECT_EQ(x.dir_id, y.dir_id);
  EXPECT_EQ(x.parent_dir_id, y.parent_dir_id);
  EXPECT_EQ(x.name, y.name);
  EXPECT_EQ(x.attr, y.attr);
  EXPECT_EQ(x.prev_hash, y.prev_hash);
  EXPECT_EQ(x.entry_hash, y.entry_hash);
}

void ExpectSame(const FileAnnotation& x, const FileAnnotation& y) {
  EXPECT_EQ(x.path_at_loss, y.path_at_loss);
  EXPECT_EQ(x.post_loss_paths, y.post_loss_paths);
}

// Round-trips `rows`, then checks that every strict prefix of the blob and
// the blob plus one trailing byte are rejected. Sanitizer builds catch any
// read past the end; copying each prefix into its own buffer makes the
// end exact.
template <typename Row>
void ExpectRoundTripAndStrictParse(const std::vector<Row>& rows) {
  Bytes flat = EncodeFlatRows(rows);
  auto decoded = DecodeFlatRows<Row>(flat);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ExpectSame((*decoded)[i], rows[i]);
  }
  for (size_t len = 0; len < flat.size(); ++len) {
    Bytes prefix(flat.begin(), flat.begin() + len);
    auto short_rows = DecodeFlatRows<Row>(prefix);
    ASSERT_FALSE(short_rows.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(short_rows.status().code(), StatusCode::kDataLoss);
  }
  Bytes padded = flat;
  padded.push_back(0);
  auto padded_rows = DecodeFlatRows<Row>(padded);
  ASSERT_FALSE(padded_rows.ok());
  EXPECT_EQ(padded_rows.status().code(), StatusCode::kDataLoss);
}

TEST(FlatRowCodecTest, AuditLogEntriesRoundTripAndParseStrictly) {
  ExpectRoundTripAndStrictParse(SampleEntries());
  ExpectRoundTripAndStrictParse(std::vector<AuditLogEntry>{});
}

TEST(FlatRowCodecTest, MetadataRecordsRoundTripAndParseStrictly) {
  ExpectRoundTripAndStrictParse(SampleRecords());
}

TEST(FlatRowCodecTest, AnnotationsRoundTripAndParseStrictly) {
  FileAnnotation unbound;
  FileAnnotation renamed;
  renamed.path_at_loss = "/docs/a";
  renamed.post_loss_paths = {"/docs/b", "<unresolvable dir abababab>/loot"};
  ExpectRoundTripAndStrictParse(
      std::vector<FileAnnotation>{renamed, unbound, renamed});
}

TEST(FlatRowCodecTest, RejectsUnknownOpsAndHostileCounts) {
  Bytes flat = EncodeFlatRows(SampleEntries());
  // The first row's op byte: four u64s, the device blob, then the audit id.
  size_t op_at = 4 + 4 * 8 + 4 + 6 + 24;
  ASSERT_EQ(flat[op_at], static_cast<uint8_t>(AccessOp::kPrefetch));
  flat[op_at] = static_cast<uint8_t>(AccessOp::kRestore) + 1;
  EXPECT_FALSE(DecodeFlatRows<AuditLogEntry>(flat).ok());

  Bytes meta = EncodeFlatRows(SampleRecords());
  size_t meta_op_at = 4 + 3 * 8 + 4 + 6;
  ASSERT_EQ(meta[meta_op_at], static_cast<uint8_t>(MetadataOp::kRenameFile));
  meta[meta_op_at] = static_cast<uint8_t>(MetadataOp::kSetAttr) + 1;
  EXPECT_FALSE(DecodeFlatRows<MetadataRecord>(meta).ok());

  // A count far beyond the input fails at the first missing row instead
  // of allocating for it.
  Bytes hostile;
  AppendU32Be(hostile, UINT32_MAX);
  EXPECT_FALSE(DecodeFlatRows<AuditLogEntry>(hostile).ok());
  Bytes hostile_paths;
  AppendU32Be(hostile_paths, 1);
  AppendBlob(hostile_paths, std::string_view("/a"));
  AppendU32Be(hostile_paths, UINT32_MAX);
  EXPECT_FALSE(DecodeFlatRows<FileAnnotation>(hostile_paths).ok());
}

// `row`'s flat encoding with its two seals (the row's last two blobs)
// replaced by blobs of the given widths.
template <typename Row>
Bytes FlatWithSealWidths(const Row& row, size_t prev_width,
                         size_t hash_width) {
  Bytes flat;
  row.AppendFlat(&flat);
  flat.resize(flat.size() - 2 * (4 + 32));
  AppendBlob(flat, Bytes(prev_width, 0x5a));
  AppendBlob(flat, Bytes(hash_width, 0xa5));
  return flat;
}

// `row`'s wire struct with its two seals replaced likewise.
template <typename Row>
WireValue WireWithSealWidths(const Row& row, size_t prev_width,
                             size_t hash_width) {
  WireValue::Struct fields = std::get<WireValue::Struct>(row.ToWire().raw());
  fields["prev_hash"] = WireValue(Bytes(prev_width, 0x5a));
  fields["hash"] = WireValue(Bytes(hash_width, 0xa5));
  return WireValue(std::move(fields));
}

// Only 32-byte seals decode, from the flat row and from the wire struct.
template <typename Row>
void ExpectSealsFixedWidth(const Row& row) {
  const std::pair<size_t, size_t> widths[] = {
      {32, 32}, {31, 32}, {32, 33}, {0, 32}, {32, 0}, {64, 64}};
  for (const auto& [prev, hash] : widths) {
    const bool valid = prev == 32 && hash == 32;
    Bytes flat = FlatWithSealWidths(row, prev, hash);
    ByteReader in(flat);
    Row parsed;
    EXPECT_EQ(Row::ReadFlat(in, &parsed) && in.at_end(), valid)
        << "ReadFlat, seal widths " << prev << "/" << hash;
    Result<Row> from_wire = Row::FromWire(WireWithSealWidths(row, prev, hash));
    EXPECT_EQ(from_wire.ok(), valid)
        << "FromWire, seal widths " << prev << "/" << hash;
    if (!valid && !from_wire.ok()) {
      EXPECT_EQ(from_wire.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST(FlatRowCodecTest, SealsAreFixedWidthOnDecode) {
  ExpectSealsFixedWidth(SampleEntries()[0]);
  ExpectSealsFixedWidth(SampleRecords()[0]);
}

}  // namespace
}  // namespace keypad
