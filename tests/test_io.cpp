// The packet-I/O subsystem's acceptance criteria (ISSUE 5):
//
//  * PcapWriter -> PcapReader round-trips records bit-identically, for both
//    byte orders and both timestamp resolutions, and a read -> re-write
//    pipe reproduces the file byte for byte.
//  * The wire parser handles Ethernet(+VLAN/QinQ)/IPv4/IPv6/TCP/UDP,
//    skips what it cannot key flow state on with counted drops, and is the
//    exact inverse of BuildFrame.
//  * A capture written from a synthetic Dataset re-imports bit-identically
//    (flow identity, labels, timestamps, lengths, payload windows).
//  * Replaying that capture through the StreamServer (single- and
//    multi-threaded) produces identical per-flow decisions to serving the
//    original Dataset's merged trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <utility>

#include "compiler/compiler.hpp"
#include "core/operators.hpp"
#include "eval/experiment.hpp"
#include "io/assemble.hpp"
#include "io/pcap.hpp"
#include "io/replay.hpp"
#include "io/wire.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/synthetic.hpp"

namespace core = pegasus::core;
namespace dp = pegasus::dataplane;
namespace io = pegasus::io;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;
namespace ev = pegasus::eval;

namespace {

// ---------------------------------------------------------------------------
// pcap container
// ---------------------------------------------------------------------------

std::vector<io::PcapRecord> RandomRecords(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 200);
  std::vector<io::PcapRecord> records(n);
  std::uint32_t sec = 1000;
  for (auto& r : records) {
    r.ts_sec = sec++;
    r.ts_frac = static_cast<std::uint32_t>(rng() % 999999);
    r.data.resize(len(rng));
    for (auto& b : r.data) b = static_cast<std::uint8_t>(byte(rng));
    r.orig_len = static_cast<std::uint32_t>(r.data.size()) +
                 static_cast<std::uint32_t>(rng() % 64);
  }
  return records;
}

TEST(Pcap, RoundTripIsBitIdenticalAcrossEndiannessAndResolution) {
  const auto records = RandomRecords(17, 42);
  for (const bool swapped : {false, true}) {
    for (const bool nanos : {false, true}) {
      io::PcapOptions opts;
      opts.swapped = swapped;
      opts.nanos = nanos;
      opts.snaplen = 4096;
      std::stringstream buf;
      {
        io::PcapWriter writer(buf, opts);
        for (const auto& r : records) writer.Write(r);
        EXPECT_EQ(writer.records(), records.size());
      }
      const std::string bytes = buf.str();

      std::stringstream in(bytes);
      io::PcapReader reader(in);
      EXPECT_EQ(reader.options().swapped, swapped);
      EXPECT_EQ(reader.nanos(), nanos);
      EXPECT_EQ(reader.options().snaplen, 4096u);
      EXPECT_EQ(reader.options().linktype, io::kLinktypeEthernet);

      // Records come back bit-identical, and re-writing them with the same
      // options reproduces the file byte for byte.
      std::stringstream rewrite;
      io::PcapWriter rewriter(rewrite, opts);
      io::PcapRecord rec;
      std::size_t i = 0;
      while (reader.Next(rec)) {
        ASSERT_LT(i, records.size());
        EXPECT_EQ(rec, records[i]) << "record " << i;
        rewriter.Write(rec);
        ++i;
      }
      EXPECT_EQ(i, records.size());
      EXPECT_EQ(rewrite.str(), bytes);
    }
  }
}

TEST(Pcap, TimestampSplitMatchesResolution) {
  for (const bool nanos : {false, true}) {
    std::stringstream buf;
    io::PcapOptions opts;
    opts.nanos = nanos;
    io::PcapWriter writer(buf, opts);
    const std::uint64_t ts_us = 3'141'592'653ull;  // 3141.592653 s
    writer.Write(ts_us, std::vector<std::uint8_t>{1, 2, 3});

    std::stringstream in(buf.str());
    io::PcapReader reader(in);
    io::PcapRecord rec;
    ASSERT_TRUE(reader.Next(rec));
    EXPECT_EQ(rec.ts_sec, 3141u);
    EXPECT_EQ(rec.ts_frac, nanos ? 592'653'000u : 592'653u);
    EXPECT_EQ(rec.TsMicros(reader.nanos()), ts_us);
    EXPECT_EQ(rec.orig_len, 3u);
  }
}

TEST(Pcap, ReaderRejectsGarbageAndTruncation) {
  {
    std::stringstream buf("not a pcap file at all......");
    EXPECT_THROW(io::PcapReader r(buf), std::runtime_error);
  }
  {
    std::stringstream buf;  // empty
    EXPECT_THROW(io::PcapReader r(buf), std::runtime_error);
  }
  {
    // Valid header, then a record header whose payload is cut short.
    std::stringstream buf;
    io::PcapWriter writer(buf, {});
    writer.Write(5, std::vector<std::uint8_t>(64, 0xAB));
    const std::string bytes = buf.str();
    std::stringstream in(bytes.substr(0, bytes.size() - 10));
    io::PcapReader reader(in);
    io::PcapRecord rec;
    EXPECT_THROW(reader.Next(rec), std::runtime_error);
  }
  {
    // incl_len above snaplen: corrupt, not silently accepted.
    std::stringstream buf;
    io::PcapOptions opts;
    opts.snaplen = 16;
    io::PcapWriter writer(buf, opts);
    io::PcapRecord bad;
    bad.orig_len = 8;
    bad.data.resize(9);
    EXPECT_THROW(writer.Write(bad),
                 std::invalid_argument);  // orig_len < incl_len
  }
  {
    // snaplen 0 ("unlimited"): a record above the built-in ceiling is
    // counted and skipped — never a multi-GiB allocation — and reading
    // resumes on the next record.
    std::stringstream buf;
    io::PcapOptions opts;
    opts.snaplen = 0;
    io::PcapWriter writer(buf, opts);
    writer.Write(1, std::vector<std::uint8_t>(io::kMaxRecordBytes + 1,
                                              0x11));
    writer.Write(2, std::vector<std::uint8_t>(8, 0x22));
    std::stringstream in(buf.str());
    io::PcapReader reader(in);
    io::PcapRecord rec;
    ASSERT_TRUE(reader.Next(rec));  // the oversize record was skipped
    EXPECT_EQ(rec.ts_sec, 0u);
    EXPECT_EQ(rec.data.size(), 8u);
    EXPECT_FALSE(reader.Next(rec));
    EXPECT_EQ(reader.records(), 1u);
    EXPECT_EQ(reader.drops().oversize, 1u);
    EXPECT_EQ(reader.drops().overcapture, 0u);
  }
}

TEST(Pcap, OvercaptureRecordsAreCountedAndSkipped) {
  // incl_len > orig_len never comes out of PcapWriter (it rejects it), so
  // hand-patch the length fields of a well-formed file.
  std::stringstream buf;
  io::PcapWriter writer(buf, {});
  writer.Write(1, std::vector<std::uint8_t>(24, 0xAA), /*orig_len=*/24);
  writer.Write(2, std::vector<std::uint8_t>(16, 0xBB), /*orig_len=*/16);
  std::string bytes = buf.str();
  // Record 0 starts right after the 24-byte global header; orig_len is the
  // fourth u32 of the record header. Lower it below incl_len (24 -> 4).
  const std::size_t orig_len_off = 24 + 12;
  bytes[orig_len_off] = 4;
  std::stringstream in(bytes);
  io::PcapReader reader(in);
  io::PcapRecord rec;
  ASSERT_TRUE(reader.Next(rec));  // record 1 — record 0 was dropped
  EXPECT_EQ(rec.data, std::vector<std::uint8_t>(16, 0xBB));
  EXPECT_FALSE(reader.Next(rec));
  EXPECT_EQ(reader.records(), 1u);
  EXPECT_EQ(reader.drops().overcapture, 1u);
  EXPECT_EQ(reader.drops().oversize, 0u);
  EXPECT_EQ(reader.drops().total(), 1u);
}

TEST(Pcap, ConfigurableSnaplenCapTightensTheCeiling) {
  // A reader-side cap below the file's declared snaplen drops records the
  // file itself would have allowed.
  std::stringstream buf;
  io::PcapOptions opts;
  opts.snaplen = 4096;
  io::PcapWriter writer(buf, opts);
  writer.Write(1, std::vector<std::uint8_t>(300, 0x33));
  writer.Write(2, std::vector<std::uint8_t>(100, 0x44));
  const std::string bytes = buf.str();
  {
    std::stringstream in(bytes);
    io::PcapReader reader(in, /*max_snaplen=*/128);
    io::PcapRecord rec;
    ASSERT_TRUE(reader.Next(rec));
    EXPECT_EQ(rec.data.size(), 100u);
    EXPECT_FALSE(reader.Next(rec));
    EXPECT_EQ(reader.drops().oversize, 1u);
  }
  {
    // Default cap: both records pass.
    std::stringstream in(bytes);
    io::PcapReader reader(in);
    io::PcapRecord rec;
    std::size_t n = 0;
    while (reader.Next(rec)) ++n;
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(reader.drops().total(), 0u);
  }
}

// ---------------------------------------------------------------------------
// wire parser
// ---------------------------------------------------------------------------

dp::FiveTuple TcpTuple() {
  dp::FiveTuple t;
  t.version = 4;
  t.proto = dp::kProtoTcp;
  t.src = {10, 1, 2, 3};
  t.dst = {172, 16, 9, 9};
  t.src_port = 4321;
  t.dst_port = 20001;
  return t;
}

TEST(WireParser, ParsesBuiltFramesExactly) {
  // BuildFrame -> Parse is the identity on (tuple, wire_len, payload) for
  // random tuples of both IP versions and both L4 protocols.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> byte(0, 255);
  io::WireParser parser;
  for (int i = 0; i < 200; ++i) {
    dp::FiveTuple t;
    t.version = (rng() & 1) ? 4 : 6;
    t.proto = (rng() & 1) ? dp::kProtoTcp : dp::kProtoUdp;
    const std::size_t addr_bytes = t.version == 4 ? 4 : 16;
    for (std::size_t b = 0; b < addr_bytes; ++b) {
      t.src[b] = static_cast<std::uint8_t>(byte(rng));
      t.dst[b] = static_cast<std::uint8_t>(byte(rng));
    }
    t.src_port = static_cast<std::uint16_t>(rng());
    t.dst_port = static_cast<std::uint16_t>(rng());

    std::array<std::uint8_t, tr::kRawBytesPerPacket> payload;
    for (auto& b : payload) b = static_cast<std::uint8_t>(byte(rng));
    const std::uint16_t wire_len = static_cast<std::uint16_t>(
        io::MinWireLen(t) + rng() % 1200);

    const auto frame = io::BuildFrame(t, payload, wire_len);
    io::ParsedPacket out;
    ASSERT_TRUE(parser.Parse(frame, 123456, out));
    EXPECT_EQ(out.tuple, dp::Canonical(t));
    EXPECT_EQ(out.key.digest, dp::DigestTuple(t).digest);
    EXPECT_EQ(out.wire_len, wire_len);
    EXPECT_EQ(out.payload, payload);
    EXPECT_EQ(out.payload_captured, tr::kRawBytesPerPacket);
    EXPECT_EQ(out.ts_us, 123456u);
  }
  EXPECT_EQ(parser.stats().parsed, 200u);
  EXPECT_EQ(parser.stats().frames, 200u);
}

TEST(WireParser, UnwrapsSingleAndStackedVlanTags) {
  const auto t = TcpTuple();
  std::array<std::uint8_t, tr::kRawBytesPerPacket> payload{};
  payload[0] = 0x5A;
  auto frame = io::BuildFrame(t, payload, 200);

  // Splice one 802.1Q tag, then a QinQ (0x88a8 outer) pair, after the MACs.
  auto tagged = [&](std::initializer_list<std::uint16_t> tpids) {
    std::vector<std::uint8_t> f(frame.begin(), frame.begin() + 12);
    std::uint16_t inner_type =
        static_cast<std::uint16_t>((frame[12] << 8) | frame[13]);
    std::vector<std::uint16_t> chain(tpids);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      f.push_back(static_cast<std::uint8_t>(chain[i] >> 8));
      f.push_back(static_cast<std::uint8_t>(chain[i]));
      f.push_back(0x00);  // PCP/VID
      f.push_back(static_cast<std::uint8_t>(100 + i));
    }
    f.push_back(static_cast<std::uint8_t>(inner_type >> 8));
    f.push_back(static_cast<std::uint8_t>(inner_type));
    f.insert(f.end(), frame.begin() + 14, frame.end());
    return f;
  };

  io::WireParser parser;
  io::ParsedPacket out;
  ASSERT_TRUE(parser.Parse(tagged({io::kEtherTypeVlan}), 1, out));
  EXPECT_EQ(out.vlan_tags, 1u);
  EXPECT_EQ(out.tuple, dp::Canonical(t));
  EXPECT_EQ(out.payload[0], 0x5A);

  ASSERT_TRUE(
      parser.Parse(tagged({io::kEtherTypeQinQ, io::kEtherTypeVlan}), 2, out));
  EXPECT_EQ(out.vlan_tags, 2u);
  EXPECT_EQ(out.tuple, dp::Canonical(t));
  EXPECT_EQ(parser.stats().vlan_tags, 3u);
  EXPECT_EQ(parser.stats().parsed, 2u);
}

TEST(WireParser, CountsDropsByReason) {
  io::WireParser parser;
  io::ParsedPacket out;

  // ARP frame: valid Ethernet, non-IP ethertype.
  std::vector<std::uint8_t> arp(42, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  EXPECT_FALSE(parser.Parse(arp, 1, out));
  EXPECT_EQ(parser.stats().non_ip, 1u);

  // ICMP: IPv4 with proto 1 — parsed IP, dropped at L4.
  auto icmp = io::BuildFrame(TcpTuple(), std::vector<std::uint8_t>(8), 60);
  icmp[14 + 9] = 1;  // overwrite the protocol byte
  EXPECT_FALSE(parser.Parse(icmp, 2, out));
  EXPECT_EQ(parser.stats().non_l4, 1u);

  // Non-first IPv4 fragment: the bytes at the port offsets are mid-datagram
  // payload, not an L4 header.
  auto frag = io::BuildFrame(TcpTuple(), std::vector<std::uint8_t>(8), 60);
  frag[14 + 6] = 0x00;
  frag[14 + 7] = 0x03;  // fragment offset 3
  EXPECT_FALSE(parser.Parse(frag, 2, out));
  EXPECT_EQ(parser.stats().fragments, 1u);

  // Truncations at every layer: runt Ethernet, cut IPv4 header, cut TCP
  // header, cut VLAN tag.
  const auto whole = io::BuildFrame(TcpTuple(), std::vector<std::uint8_t>(8),
                                    60);
  for (const std::size_t keep : {std::size_t{9}, std::size_t{20},
                                 std::size_t{40}}) {
    EXPECT_FALSE(parser.Parse(
        std::span<const std::uint8_t>(whole.data(), keep), 3, out));
  }
  EXPECT_EQ(parser.stats().truncated, 3u);
  EXPECT_EQ(parser.stats().frames, 6u);
  EXPECT_EQ(parser.stats().parsed, 0u);

  // A capture truncated inside the *payload* still parses: wire_len comes
  // from the IP header, missing payload bytes zero-pad.
  std::array<std::uint8_t, tr::kRawBytesPerPacket> payload;
  payload.fill(0xCC);
  const auto full = io::BuildFrame(TcpTuple(), payload, 1000);
  const std::size_t cut = 14 + 20 + 20 + 10;  // 10 payload bytes captured
  io::ParsedPacket short_out;
  ASSERT_TRUE(parser.Parse(
      std::span<const std::uint8_t>(full.data(), cut), 4, short_out));
  EXPECT_EQ(short_out.wire_len, 1000u);
  EXPECT_EQ(short_out.payload_captured, 10u);
  for (std::size_t b = 0; b < tr::kRawBytesPerPacket; ++b) {
    EXPECT_EQ(short_out.payload[b], b < 10 ? 0xCC : 0x00);
  }
}

TEST(WireParser, StripsEthernetMinimumFramePadding) {
  // A 1-byte UDP datagram (IP total length 29) padded by the NIC to the
  // 60-byte Ethernet minimum: the 17 pad bytes after the datagram must not
  // enter the payload window.
  auto t = TcpTuple();
  t.proto = dp::kProtoUdp;
  std::vector<std::uint8_t> body(18, 0xEE);  // 1 real byte + 17 "pad" bytes
  const auto frame = io::BuildFrame(t, body, /*wire_len=*/29);
  ASSERT_EQ(frame.size(), 60u);

  io::WireParser parser;
  io::ParsedPacket out;
  ASSERT_TRUE(parser.Parse(frame, 1, out));
  EXPECT_EQ(out.wire_len, 29u);
  EXPECT_EQ(out.payload_captured, 1u);
  EXPECT_EQ(out.payload[0], 0xEE);
  for (std::size_t b = 1; b < tr::kRawBytesPerPacket; ++b) {
    EXPECT_EQ(out.payload[b], 0x00) << "pad byte " << b << " leaked";
  }
}

TEST(WireParser, BuildFrameRejectsImpossibleRequests) {
  auto t = TcpTuple();
  EXPECT_THROW(io::BuildFrame(t, {}, 39), std::invalid_argument);  // < 20+20
  t.proto = 47;  // GRE
  EXPECT_THROW(io::BuildFrame(t, {}, 100), std::invalid_argument);
  t = TcpTuple();
  t.version = 5;
  EXPECT_THROW(io::BuildFrame(t, {}, 100), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// flow assembly + labeling
// ---------------------------------------------------------------------------

io::ParsedPacket MakeParsed(const dp::FiveTuple& t, std::uint64_t ts_us,
                            std::uint16_t len = 100) {
  io::ParsedPacket p;
  p.ts_us = ts_us;
  p.tuple = dp::Canonical(t);
  p.key = dp::DigestTuple(t);
  p.wire_len = len;
  return p;
}

TEST(FlowAssembler, GroupsBidirectionallyAndRebasesTimestamps) {
  auto fwd = TcpTuple();
  auto rev = fwd;
  std::swap(rev.src, rev.dst);
  std::swap(rev.src_port, rev.dst_port);
  dp::FiveTuple other = fwd;
  other.dst_port = 20002;

  io::FlowAssembler asem(io::FlowLabeler{}.MapPort(20001, 7).Default(-1));
  asem.Add(MakeParsed(fwd, 1000));
  asem.Add(MakeParsed(other, 1500));
  asem.Add(MakeParsed(rev, 2000));   // same conversation as fwd
  asem.Add(MakeParsed(fwd, 900));    // reordered: before the flow's start
  const auto ds = asem.Finish("t", {});

  ASSERT_EQ(ds.flows.size(), 2u);
  EXPECT_EQ(ds.flows[0].label, 7);       // port rule
  EXPECT_EQ(ds.flows[1].label, -1);      // default
  ASSERT_EQ(ds.flows[0].packets.size(), 3u);
  EXPECT_EQ(ds.flows[0].packets[0].ts_us, 0u);
  EXPECT_EQ(ds.flows[0].packets[1].ts_us, 1000u);
  EXPECT_EQ(ds.flows[0].packets[2].ts_us, 0u);  // clamped
  EXPECT_EQ(asem.stats().reordered, 1u);
  EXPECT_EQ(ds.flows[0].tuple, dp::Canonical(fwd));
  EXPECT_EQ(ds.flows[0].key.digest, dp::DigestTuple(rev).digest);
}

TEST(FlowLabeler, SubnetRulesMatchEitherEndpointAndPrefixLength) {
  io::FlowLabeler labeler;
  const std::array<std::uint8_t, 4> attacker = {192, 168, 4, 0};
  labeler.MapSubnet(4, attacker, 22, 99).Default(0);

  auto t = TcpTuple();
  EXPECT_EQ(labeler.LabelFor(t), 0);
  t.dst = {192, 168, 5, 77};  // inside /22 of 192.168.4.0
  EXPECT_EQ(labeler.LabelFor(t), 99);
  t.dst = {192, 168, 8, 1};  // outside
  EXPECT_EQ(labeler.LabelFor(t), 0);
  t.src = {192, 168, 6, 2};  // src side matches too
  EXPECT_EQ(labeler.LabelFor(t), 99);

  EXPECT_THROW(labeler.MapSubnet(4, attacker, 40, 1), std::invalid_argument);
  // The prefix bytes must cover the declared prefix length.
  const std::array<std::uint8_t, 2> short_prefix = {192, 168};
  EXPECT_THROW(labeler.MapSubnet(4, short_prefix, 24, 1),
               std::invalid_argument);
  io::FlowLabeler conflicted;
  conflicted.MapPort(80, 1);
  EXPECT_THROW(conflicted.MapPort(80, 2), std::invalid_argument);
  conflicted.MapPort(80, 1);  // re-adding the same mapping is fine
}

// ---------------------------------------------------------------------------
// dataset round trip + replay parity (the ISSUE's acceptance criteria)
// ---------------------------------------------------------------------------

void ExpectDatasetsBitIdentical(const tr::Dataset& a, const tr::Dataset& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.class_names, b.class_names);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const auto& fa = a.flows[i];
    const auto& fb = b.flows[i];
    EXPECT_EQ(fa.key.digest, fb.key.digest) << "flow " << i;
    EXPECT_EQ(fa.tuple, fb.tuple) << "flow " << i;
    EXPECT_EQ(fa.label, fb.label) << "flow " << i;
    ASSERT_EQ(fa.packets.size(), fb.packets.size()) << "flow " << i;
    for (std::size_t p = 0; p < fa.packets.size(); ++p) {
      ASSERT_EQ(fa.packets[p].ts_us, fb.packets[p].ts_us)
          << "flow " << i << " pkt " << p;
      ASSERT_EQ(fa.packets[p].len, fb.packets[p].len)
          << "flow " << i << " pkt " << p;
      ASSERT_EQ(fa.packets[p].bytes, fb.packets[p].bytes)
          << "flow " << i << " pkt " << p;
    }
  }
}

TEST(PcapDataset, SyntheticDatasetRoundTripsBitIdentically) {
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 321));
  for (const bool nanos : {false, true}) {
    std::stringstream buf;
    io::PcapExportOptions eopts;
    eopts.pcap.nanos = nanos;
    const auto records = io::WriteDatasetPcap(buf, ds, eopts);
    std::size_t packets = 0;
    for (const auto& f : ds.flows) packets += f.packets.size();
    EXPECT_EQ(records, packets);

    const auto imported = io::ReadDatasetPcap(buf, io::ImportOptionsFor(ds));
    EXPECT_EQ(imported.records, records);
    EXPECT_EQ(imported.parse.parsed, records);
    EXPECT_EQ(imported.parse.truncated + imported.parse.non_ip +
                  imported.parse.non_l4,
              0u);
    ExpectDatasetsBitIdentical(ds, imported.dataset);
  }
}

TEST(PcapDataset, NegativeAttackLabelsSurviveTheRoundTrip) {
  // Mixed benign + injected-attack dataset (the anomaly_detection shape):
  // attack flows carry negative labels on distinct service ports, and
  // ImportOptionsFor must recover them from the flows, not 0..NumClasses-1.
  auto ds = tr::Generate(tr::PeerRushSpec(3, 55));
  const auto profiles = tr::AttackProfiles();
  for (auto& flow :
       tr::GenerateFlows(profiles[0], 2, /*label=*/-1, 24, 32, 77)) {
    ds.flows.push_back(std::move(flow));
  }
  std::stringstream buf;
  io::WriteDatasetPcap(buf, ds);
  const auto imported = io::ReadDatasetPcap(buf, io::ImportOptionsFor(ds));
  ExpectDatasetsBitIdentical(ds, imported.dataset);
}

TEST(PcapDataset, MergedExportPreservesFlowContents) {
  // Merged (interleaved) export reorders flows by first appearance, but
  // every flow's identity, label and packet sequence must survive.
  const auto ds = tr::Generate(tr::PeerRushSpec(5, 11));
  std::stringstream buf;
  io::PcapExportOptions eopts;
  eopts.merged = true;
  io::WriteDatasetPcap(buf, ds, eopts);
  const auto imported = io::ReadDatasetPcap(buf, io::ImportOptionsFor(ds));

  ASSERT_EQ(imported.dataset.flows.size(), ds.flows.size());
  std::map<std::uint64_t, const tr::Flow*> by_digest;
  for (const auto& f : ds.flows) by_digest[f.key.digest] = &f;
  for (const auto& f : imported.dataset.flows) {
    const auto it = by_digest.find(f.key.digest);
    ASSERT_NE(it, by_digest.end());
    const tr::Flow& want = *it->second;
    EXPECT_EQ(f.label, want.label);
    EXPECT_EQ(f.tuple, want.tuple);
    ASSERT_EQ(f.packets.size(), want.packets.size());
    for (std::size_t p = 0; p < f.packets.size(); ++p) {
      EXPECT_EQ(f.packets[p].ts_us, want.packets[p].ts_us);
      EXPECT_EQ(f.packets[p].len, want.packets[p].len);
      EXPECT_EQ(f.packets[p].bytes, want.packets[p].bytes);
    }
  }
}

/// The 16-dim seq-family model test_stream_server.cpp uses, rebuilt here so
/// replay parity runs against a real compiled pipeline.
std::shared_ptr<const rt::LoweredModel> BuildSeqModel(const tr::Dataset& ds,
                                                      std::uint64_t seed) {
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  core::ProgramBuilder b(16);
  auto segs = b.Partition(b.input(), 2, 2);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> w(-0.05f, 0.05f);
  std::vector<core::ValueId> maps;
  for (auto seg : segs) {
    std::vector<float> weights(2 * 3);
    for (float& v : weights) v = w(rng);
    maps.push_back(
        b.Map(seg, core::MakeLinear(std::move(weights), 2, 3, {}), 32));
  }
  auto sum = b.SumReduce(std::span<const core::ValueId>(maps));
  auto out = b.Map(sum, core::MakeReLU(3), 64);
  return std::make_shared<const rt::LoweredModel>(
      pegasus::compiler::CompileToSwitch(b.Finish(out), offline.x,
                                         offline.size())
          .lowered);
}

std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<std::int32_t, float>>
ByFlowPacket(const std::vector<rt::StreamDecision>& decisions) {
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::pair<std::int32_t, float>>
      out;
  for (const auto& d : decisions) {
    out[{d.flow, d.index}] = {d.predicted, d.score};
  }
  return out;
}

TEST(PcapReplay, CaptureReplayMatchesServingTheOriginalDataset) {
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 2025));
  const auto lowered = BuildSeqModel(ds, 5);

  // Reference: the merged in-memory trace, single-threaded.
  const auto trace = tr::MergeTrace(ds.flows);
  auto make_opts = [](std::size_t shards, bool mt) {
    rt::StreamServerOptions o;
    o.num_shards = shards;
    o.flows_per_shard = 1 << 10;
    o.batch_size = 32;
    o.feature = rt::FeatureKind::kSeq;
    o.multithreaded = mt;
    return o;
  };
  rt::StreamServer ref_server(lowered, make_opts(1, false));
  const auto want = ByFlowPacket(ref_server.Serve(trace));
  ASSERT_GT(want.size(), 0u);

  // Export once, replay through PcapPacketSource in ST and MT mode.
  std::stringstream buf;
  io::WriteDatasetPcap(buf, ds, {});
  const std::string capture = buf.str();
  const auto iopts = io::ImportOptionsFor(ds);

  for (const bool mt : {false, true}) {
    std::stringstream in(capture);
    io::PcapPacketSource source(in, iopts.labeler);
    rt::StreamServer server(lowered, make_opts(mt ? 4 : 1, mt));
    const auto got = ByFlowPacket(server.Serve(source));
    ASSERT_EQ(got.size(), want.size()) << (mt ? "MT" : "ST");
    for (const auto& [at, decision] : want) {
      const auto it = got.find(at);
      ASSERT_NE(it, got.end())
          << "flow " << at.first << " pkt " << at.second;
      EXPECT_EQ(it->second.first, decision.first)
          << "flow " << at.first << " pkt " << at.second;
      EXPECT_EQ(it->second.second, decision.second)
          << "flow " << at.first << " pkt " << at.second;
    }
    EXPECT_EQ(source.parse_stats().parsed, source.parse_stats().frames);
    EXPECT_EQ(source.flows_seen(), ds.flows.size());
  }
}

TEST(PcapReplay, PartitionedReplayMatchesUnpartitioned) {
  // Multi-ingest from a capture file: PartitionedPcapSource gives each
  // partition its own decode pass, so flow numbering matches the
  // unpartitioned source and a 2-ingest replay produces the same per-flow
  // decisions as the single-threaded reference.
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 2025));
  const auto lowered = BuildSeqModel(ds, 5);
  const auto trace = tr::MergeTrace(ds.flows);

  auto make_opts = [](std::size_t shards, bool mt, std::size_t ingest) {
    rt::StreamServerOptions o;
    o.num_shards = shards;
    o.flows_per_shard = 1 << 10;
    o.batch_size = 32;
    o.feature = rt::FeatureKind::kSeq;
    o.multithreaded = mt;
    o.num_ingest = ingest;
    return o;
  };
  rt::StreamServer ref_server(lowered, make_opts(1, false, 1));
  const auto want = ByFlowPacket(ref_server.Serve(trace));
  ASSERT_GT(want.size(), 0u);

  const std::string path = "partitioned_replay_test.pcap";
  io::WriteDatasetPcap(path, ds, {});
  const auto iopts = io::ImportOptionsFor(ds);

  rt::StreamServer server(lowered, make_opts(4, true, 2));
  io::PartitionedPcapSource source(
      path, 2,
      [&server](std::uint64_t digest) {
        return server.IngestPartitionOf(digest);
      },
      iopts.labeler);
  ASSERT_EQ(source.partitions(), 2u);
  const auto got = ByFlowPacket(server.Serve(source));
  EXPECT_EQ(server.Stats().shed.total(), 0u);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [at, decision] : want) {
    const auto it = got.find(at);
    ASSERT_NE(it, got.end()) << "flow " << at.first << " pkt " << at.second;
    EXPECT_EQ(it->second.first, decision.first)
        << "flow " << at.first << " pkt " << at.second;
    EXPECT_EQ(it->second.second, decision.second)
        << "flow " << at.first << " pkt " << at.second;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// replay pacing
// ---------------------------------------------------------------------------

TEST(TraceReplayer, SpanSourceMatchesSpanServe) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 99));
  const auto lowered = BuildSeqModel(ds, 6);
  const auto trace = tr::MergeTrace(ds.flows);

  rt::StreamServerOptions opts;
  opts.feature = rt::FeatureKind::kSeq;
  opts.flows_per_shard = 1 << 10;
  rt::StreamServer a(lowered, opts);
  rt::StreamServer b(lowered, opts);
  const auto via_span = a.Serve(trace);
  rt::SpanPacketSource source(trace);
  const auto via_source = b.Serve(source);
  ASSERT_EQ(via_span.size(), via_source.size());
  for (std::size_t i = 0; i < via_span.size(); ++i) {
    EXPECT_EQ(via_span[i].flow, via_source[i].flow);
    EXPECT_EQ(via_span[i].index, via_source[i].index);
    EXPECT_EQ(via_span[i].predicted, via_source[i].predicted);
  }
}

TEST(TraceReplayer, PacesDeliveryAndRecordsStats) {
  // A 3-packet trace spanning 40ms, replayed at x2 => >= ~20ms wall.
  std::vector<tr::Packet> packets(3);
  std::vector<tr::TracePacket> trace(3);
  for (std::size_t i = 0; i < 3; ++i) {
    trace[i].ts_us = i * 20000;
    trace[i].index = static_cast<std::uint32_t>(i);
    trace[i].packet = &packets[i];
  }
  rt::SpanPacketSource source(trace);
  io::ReplayOptions ropts;
  ropts.clock = io::ReplayClock::kSpeedup;
  ropts.speedup = 2.0;
  io::TraceReplayer replayer(source, ropts);

  tr::TracePacket tp;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t n = 0;
  while (replayer.Next(tp)) ++n;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(n, 3u);
  EXPECT_GE(wall_ms, 19.0);  // 40ms span at x2
  const auto& stats = replayer.stats();
  EXPECT_EQ(stats.packets, 3u);
  EXPECT_EQ(stats.TraceSpanUs(), 40000u);
  EXPECT_GE(stats.wall_ms, 19.0);

  // Afap mode does not pace (and records zero lag).
  rt::SpanPacketSource fast_source(trace);
  io::TraceReplayer fast(fast_source, {});
  while (fast.Next(tp)) {
  }
  EXPECT_EQ(fast.stats().packets, 3u);
  EXPECT_EQ(fast.stats().max_lag_us, 0u);
  EXPECT_LT(fast.stats().wall_ms, 19.0);

  io::ReplayOptions zero;
  zero.clock = io::ReplayClock::kSpeedup;
  zero.speedup = 0.0;
  EXPECT_THROW(io::TraceReplayer(source, zero), std::invalid_argument);
}

}  // namespace
