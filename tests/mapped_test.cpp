// Tests for trace file ingestion: the mmap RAII utility, the MappedTraceFile
// reader on both byte sources (read() below trace::kMapMinBytes and for
// pipes, mmap at or above it), bit-identity of what it reads with the
// traces that were written (profiles, columns, campaign merges), the
// identical-rejection contract between the file and stream entry points on
// hostile section tables, and the incremental streaming campaign.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "common/mmap.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "trace/format.hpp"
#include "trace/incremental.hpp"
#include "trace/mapped.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "trace/profile_campaign.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"
#include "workloads/registry.hpp"

#include "test_support.hpp"

namespace pwx::trace {
namespace {

[[maybe_unused]] const auto* const kScratchCleanup =
    test::remove_scratch_at_exit("pwx_mapped_test");

using test::expect_profiles_bit_identical;

std::filesystem::path scratch_dir() {
  const auto dir = test::scratch_path("pwx_mapped_test");
  std::filesystem::create_directories(dir);
  return dir;
}

std::string write_bytes(const std::string& name, const std::string& bytes) {
  const std::string path = (scratch_dir() / name).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

Trace make_small_trace() {
  Trace t;
  t.set_attribute("workload", "unit");
  t.set_attribute("frequency_ghz", 2.4);
  t.set_attribute("threads", 4.0);
  const auto power = t.define_metric({"power", "W", MetricMode::AsyncAverage});
  const auto volt = t.define_metric({"core_voltage", "V", MetricMode::AsyncInstant});
  const auto ctr =
      t.define_metric({"PAPI_TOT_CYC", "events", MetricMode::CounterIncrement});
  t.append(RegionEnter{0, "phase_a"});
  t.append(MetricEvent{1000000000, power, 100.0});
  t.append(MetricEvent{1000000000, volt, 0.9});
  t.append(MetricEvent{1000000000, ctr, 5.0e9});
  t.append(MetricEvent{2000000000, power, 110.0});
  t.append(MetricEvent{2000000000, volt, 0.9});
  t.append(MetricEvent{2000000000, ctr, 5.2e9});
  t.append(RegionExit{2000000000, "phase_a"});
  return t;
}

std::string v4_bytes(const Trace& t) {
  std::ostringstream os;
  write_trace(t, os);
  return os.str();
}

Trace sim_trace(const char* workload_name, std::uint64_t seed,
                std::vector<pmc::Preset> events = {pmc::Preset::TOT_CYC,
                                                   pmc::Preset::TOT_INS}) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  rc.seed = seed;
  const auto workload = workloads::find_workload(workload_name);
  return build_standard_trace(engine.run(*workload, rc), events);
}

/// The reader's view holds exactly what the written trace held: every
/// column bit for bit, the region and metric tables, the attributes.
void expect_view_matches(const TraceView& view, const Trace& t) {
  const EventColumns& c = t.columns();
  ASSERT_EQ(view.columns.size(), c.size());
  EXPECT_TRUE(std::equal(view.columns.times.begin(), view.columns.times.end(),
                         c.times.begin()));
  EXPECT_TRUE(std::equal(view.columns.kinds.begin(), view.columns.kinds.end(),
                         c.kinds.begin()));
  EXPECT_TRUE(std::equal(view.columns.ids.begin(), view.columns.ids.end(), c.ids.begin()));
  // Bit-exact double comparison via the raw representation.
  EXPECT_EQ(std::memcmp(view.columns.values.data(), c.values.data(),
                        c.values.size() * sizeof(double)),
            0);
  ASSERT_EQ(view.columns.regions.size(), c.regions.size());
  for (std::size_t i = 0; i < view.columns.regions.size(); ++i) {
    EXPECT_EQ(view.columns.regions[i], c.regions.at(static_cast<std::uint32_t>(i)));
  }
  ASSERT_EQ(view.metrics.size(), t.metrics().size());
  for (std::size_t i = 0; i < view.metrics.size(); ++i) {
    EXPECT_EQ(view.metrics[i].name, t.metrics()[i].name);
    EXPECT_EQ(view.metrics[i].unit, t.metrics()[i].unit);
    EXPECT_EQ(view.metrics[i].mode, t.metrics()[i].mode);
  }
  ASSERT_EQ(view.attributes.size(), t.attributes().size());
  for (const auto& [key, value] : view.attributes) {
    EXPECT_EQ(value, t.attribute(std::string(key)));
  }
}

// ---------------------------------------------------------------- mmap RAII

/// Map a whole file through the descriptor API, as the trace reader does,
/// and close the descriptor: the mapping keeps its own file reference.
MappedFile map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  EXPECT_GE(fd, 0) << path;
  MappedFile map = MappedFile::map_descriptor(fd, std::filesystem::file_size(path));
  ::close(fd);
  return map;
}

TEST(MappedFile, MapsFileContents) {
  const MappedFile map = map_file(write_bytes("plain.bin", "hello mapped world"));
  ASSERT_EQ(map.size(), 18u);
  EXPECT_EQ(std::string(map.data(), map.size()), "hello mapped world");
}

TEST(MappedFile, EmptyFileMapsAsEmpty) {
  const MappedFile map = map_file(write_bytes("empty.bin", ""));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
}

TEST(MappedFile, InvalidDescriptorThrowsIoError) {
  EXPECT_THROW(MappedFile::map_descriptor(-1, 16), IoError);
}

TEST(MappedFile, RefusedDescriptorMapThrowsIoError) {
  // mmap refuses a pipe; the file reader relies on this IoError to fall
  // back to read().
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_THROW(MappedFile::map_descriptor(fds[0], 4096), IoError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(MappedFile, MoveKeepsMappingValid) {
  MappedFile a = map_file(write_bytes("moved.bin", "stable bytes"));
  const char* data = a.data();
  MappedFile b = std::move(a);
  EXPECT_EQ(b.data(), data);  // the mapping itself does not move
  EXPECT_EQ(std::string(b.data(), b.size()), "stable bytes");
}

// ------------------------------------------------------------- mapped reader

// Both byte sources alias the columns in place; the file size picks which
// one serves the file.
TEST(MappedTrace, V4IsServedZeroCopy) {
  const Trace small = make_small_trace();
  const std::string small_bytes = v4_bytes(small);
  ASSERT_LT(small_bytes.size(), kMapMinBytes);
  const MappedTraceFile read =
      MappedTraceFile::open(write_bytes("zero_copy.otf2l", small_bytes));
  EXPECT_FALSE(read.mapped());
  EXPECT_TRUE(read.checksum_verified());
  EXPECT_EQ(read.bytes_copied(), small_bytes.size());
  EXPECT_EQ(read.bytes_mapped(), 0u);
  expect_view_matches(read.view(), small);
  EXPECT_EQ(read.view().attribute("workload"), "unit");
  EXPECT_EQ(read.view().attribute_as_double("frequency_ghz"), 2.4);

  const Trace large = test::large_trace(1);
  const std::string large_bytes = v4_bytes(large);
  ASSERT_GE(large_bytes.size(), kMapMinBytes);
  const MappedTraceFile mapped =
      MappedTraceFile::open(write_bytes("zero_copy_large.otf2l", large_bytes));
  EXPECT_TRUE(mapped.mapped());
  EXPECT_TRUE(mapped.checksum_verified());
  EXPECT_EQ(mapped.bytes_mapped(), large_bytes.size());
  EXPECT_EQ(mapped.bytes_copied(), 0u);
  expect_view_matches(mapped.view(), large);
}

// The threshold is inclusive: a file of exactly kMapMinBytes is mapped, one
// 8 bytes shorter (v4 files are multiples of 8) is read.
TEST(MappedTrace, SizeThresholdPicksSource) {
  const auto bytes_of_size = [](std::size_t size) {
    Trace t = make_small_trace();
    const std::size_t base = v4_bytes(t).size();
    for (std::size_t pad = size - base - 16; pad < size - base + 16; ++pad) {
      t.set_attribute("pad", std::string(pad, 'x'));
      std::string bytes = v4_bytes(t);
      if (bytes.size() == size) {
        return bytes;
      }
    }
    return std::string();
  };
  const std::string at = bytes_of_size(kMapMinBytes);
  const std::string below = bytes_of_size(kMapMinBytes - 8);
  ASSERT_EQ(at.size(), kMapMinBytes);
  ASSERT_EQ(below.size(), kMapMinBytes - 8);
  EXPECT_TRUE(MappedTraceFile::open(write_bytes("at_threshold.otf2l", at)).mapped());
  const MappedTraceFile read = MappedTraceFile::open(write_bytes("below.otf2l", below));
  EXPECT_FALSE(read.mapped());
  EXPECT_EQ(read.bytes_copied(), below.size());
}

TEST(MappedTrace, SectionTableIsAlignedAndOrdered) {
  const std::string path =
      write_bytes("sections.otf2l", v4_bytes(make_small_trace()));
  const MappedTraceFile file = MappedTraceFile::open(path);
  const auto sections = file.sections();
  ASSERT_EQ(sections.size(), format::kSectionCount);
  EXPECT_EQ(sections[0].file_offset, 8 + format::kHeaderBytesV4);  // = 80
  std::uint64_t expected_offset = sections[0].file_offset;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].id, i + 1);
    EXPECT_EQ(sections[i].file_offset, expected_offset);
    EXPECT_EQ(sections[i].file_offset % 8, 0u);
    EXPECT_EQ(sections[i].size % 8, 0u);
    expected_offset += sections[i].size;
  }
}

TEST(MappedTrace, ViewSurvivesMove) {
  const std::string path =
      write_bytes("moved_trace.otf2l", v4_bytes(make_small_trace()));
  MappedTraceFile a = MappedTraceFile::open(path);
  const MappedTraceFile b = std::move(a);
  EXPECT_EQ(b.view().attribute("workload"), "unit");
  EXPECT_EQ(b.view().columns.size(), 8u);
}

TEST(MappedTrace, PipeFallsBackToBufferedWithIdenticalProfiles) {
  // mmap cannot serve a pipe, whatever its size, so the read loop does —
  // reading to EOF once, since a pipe cannot be rewound — and validates the
  // section table as for any file. The large trace outgrows both the pipe
  // buffer (hence the writer thread) and the read loop's first allocation.
  for (const Trace& t : {sim_trace("md", 11), test::large_trace(4)}) {
    const std::string bytes = v4_bytes(t);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const MappedTraceFile file = [&] {
      // Joined when the lambda returns or throws; the reader drains the
      // pipe to EOF first either way.
      const std::jthread writer([&bytes, fd = fds[1]] {
        for (std::size_t done = 0; done < bytes.size();) {
          const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
          if (n <= 0) {
            break;
          }
          done += static_cast<std::size_t>(n);
        }
        ::close(fd);
      });
      return MappedTraceFile::open("/proc/self/fd/" + std::to_string(fds[0]));
    }();
    ::close(fds[0]);
    EXPECT_FALSE(file.mapped());
    EXPECT_TRUE(file.checksum_verified());
    EXPECT_EQ(file.bytes_mapped(), 0u);
    EXPECT_EQ(file.bytes_copied(), bytes.size());
    EXPECT_EQ(file.sections().size(), format::kSectionCount);
    expect_profiles_bit_identical(build_phase_profiles(file.view()),
                                  build_phase_profiles(t));
  }
}

TEST(MappedTrace, DeferredChecksumVerifiesOnDemand) {
  const std::string path =
      write_bytes("deferred.otf2l", v4_bytes(make_small_trace()));
  MappedTraceFile file = MappedTraceFile::open(path, {.verify_checksum = false});
  EXPECT_FALSE(file.checksum_verified());
  EXPECT_EQ(file.view().columns.size(), 8u);  // structure is validated eagerly
  file.verify();
  EXPECT_TRUE(file.checksum_verified());
  file.verify();  // idempotent
}

TEST(MappedTrace, DeferredChecksumStillCatchesBitFlip) {
  std::string bytes = v4_bytes(make_small_trace());
  // Flip one bit inside the values column (the 8 events' f64 payloads sit in
  // [size-112, size-48) of the v4 layout) — structurally valid, so only the
  // checksum can catch it.
  bytes[bytes.size() - 60] ^= 0x01;
  const std::string path = write_bytes("flipped.otf2l", bytes);

  EXPECT_THROW(MappedTraceFile::open(path), IoError);  // eager verify

  MappedTraceFile file = MappedTraceFile::open(path, {.verify_checksum = false});
  EXPECT_FALSE(file.checksum_verified());
  try {
    file.verify();
    FAIL() << "deferred verify must throw on a corrupt body";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos);
    EXPECT_FALSE(file.checksum_verified());
  }
}

// ------------------------------------------- bit-identity with the source

TEST(MappedEquivalence, PhaseProfilesBitIdentical) {
  for (const char* name : {"md", "compute", "matmul"}) {
    const Trace t = sim_trace(name, 21);
    const std::string bytes = v4_bytes(t);
    const MappedTraceFile file =
        MappedTraceFile::open(write_bytes(std::string("equiv_") + name + ".otf2l", bytes));
    ASSERT_LT(bytes.size(), kMapMinBytes);
    EXPECT_EQ(file.bytes_copied(), bytes.size());
    expect_profiles_bit_identical(build_phase_profiles(file.view()),
                                  build_phase_profiles(t));
  }
  const Trace large = test::large_trace(21);
  const MappedTraceFile file =
      MappedTraceFile::open(write_bytes("equiv_large.otf2l", v4_bytes(large)));
  ASSERT_TRUE(file.mapped());
  expect_profiles_bit_identical(build_phase_profiles(file.view()),
                                build_phase_profiles(large));
}

TEST(MappedEquivalence, EventColumnsBitIdentical) {
  for (const Trace& t : {sim_trace("md", 22), test::large_trace(22)}) {
    const MappedTraceFile file =
        MappedTraceFile::open(write_bytes("equiv_columns.otf2l", v4_bytes(t)));
    expect_view_matches(file.view(), t);
    // read_trace_file copies the same view into an owned Trace.
    const Trace owned = read_trace_file(file.path());
    const TraceViewAdapter adapter(owned);
    expect_view_matches(adapter.view(), t);
  }
}

// Campaign merges must match the written traces' profiles merged serially,
// across thread counts and OpenMP on/off — the determinism contract the
// batch engine makes — with one file over the mapping threshold in the mix.
TEST(MappedEquivalence, CampaignMergesBitIdenticalAcrossThreadsAndModes) {
  std::vector<std::string> paths;
  std::vector<std::vector<PhaseProfile>> written;
  const char* names[] = {"md", "md", "compute", "compute", "matmul", "matmul"};
  const std::vector<pmc::Preset> groups[2] = {
      {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS},
      {pmc::Preset::PRF_DM, pmc::Preset::BR_MSP}};
  for (std::size_t i = 0; i < 7; ++i) {
    const Trace t = i < 6 ? sim_trace(names[i], 40 + i, groups[i % 2]) : test::large_trace(46);
    paths.push_back(
        write_bytes("campaign_" + std::to_string(i) + ".otf2l", v4_bytes(t)));
    written.push_back(build_phase_profiles(t));
  }
  const auto reference = merge_first_appearance(written);

#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
#endif
  for (const int threads : {1, 4, 16}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    expect_profiles_bit_identical(profile_trace_files(paths), reference);
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

// ---------------------------------------------------- identical rejection

struct Outcome {
  bool accepted = false;
  std::string what;
  std::int64_t byte_offset = 0;
  std::int64_t record_index = 0;
  ErrorCode code = ErrorCode::Unknown;
};

Outcome stream_outcome(const std::string& bytes) {
  Outcome out;
  try {
    std::istringstream in(bytes);
    (void)read_trace(in);
    out.accepted = true;
  } catch (const IoError& e) {
    out.what = e.what();
    out.byte_offset = e.byte_offset();
    out.record_index = e.record_index();
    out.code = e.code();
  }
  return out;
}

Outcome file_outcome(const std::string& bytes, const std::string& name) {
  Outcome out;
  const std::string path = write_bytes(name, bytes);
  try {
    const MappedTraceFile file = MappedTraceFile::open(path);
    (void)file;
    out.accepted = true;
  } catch (const IoError& e) {
    out.what = e.what();
    out.byte_offset = e.byte_offset();
    out.record_index = e.record_index();
    out.code = e.code();
  }
  return out;
}

/// The stream and file entry points must agree byte-for-byte on the
/// verdict: same accept/reject, and on reject the same message, byte offset,
/// record index, and code. Returns the file reader's verdict.
Outcome expect_identical_rejection(const std::string& bytes, const std::string& label) {
  const Outcome stream = stream_outcome(bytes);
  const Outcome file = file_outcome(bytes, "reject_" + label + ".otf2l");
  EXPECT_EQ(stream.accepted, file.accepted) << label;
  EXPECT_EQ(stream.what, file.what) << label;
  EXPECT_EQ(stream.byte_offset, file.byte_offset) << label;
  EXPECT_EQ(stream.record_index, file.record_index) << label;
  if (!stream.accepted) {
    EXPECT_EQ(stream.code, file.code) << label;
  }
  return file;
}

// Little-endian field pokes into a serialized v4 byte string. The header
// layout is fixed: u32 count @8, u32 reserved @12, then per section k:
// u32 id @16+16k, u32 reserved @20+16k, u64 padded size @24+16k.
std::uint64_t table_size(const std::string& bytes, std::size_t k) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + 24 + 16 * k, 8);
  return v;
}

void poke_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, 4);
}

void poke_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, 8);
}

TEST(IdenticalRejection, HostileSectionTables) {
  const std::string good = v4_bytes(make_small_trace());
  {
    // Both accept the untampered file.
    expect_identical_rejection(good, "good");
  }
  {
    std::string b = good;  // permuted section ids
    poke_u32(b, 16, 2);
    poke_u32(b, 32, 1);
    expect_identical_rejection(b, "permuted_ids");
  }
  {
    std::string b = good;  // duplicated section id
    poke_u32(b, 32, 1);
    expect_identical_rejection(b, "duplicate_id");
  }
  {
    std::string b = good;  // wrong section count
    poke_u32(b, 8, 5);
    expect_identical_rejection(b, "bad_count");
  }
  {
    std::string b = good;  // nonzero header reserved word
    poke_u32(b, 12, 1);
    expect_identical_rejection(b, "reserved_header");
  }
  {
    std::string b = good;  // nonzero per-entry reserved word
    poke_u32(b, 20, 7);
    expect_identical_rejection(b, "reserved_entry");
  }
  {
    std::string b = good;  // misaligned section size
    poke_u64(b, 24, table_size(good, 0) + 4);
    expect_identical_rejection(b, "misaligned_size");
  }
  {
    std::string b = good;  // overlapping sizes (sum preserved, boundary moved)
    poke_u64(b, 24, table_size(good, 0) + 8);
    poke_u64(b, 40, table_size(good, 1) - 8);
    expect_identical_rejection(b, "shifted_boundary");
  }
  {
    std::string b = good;  // sizes stop short of the body
    poke_u64(b, 72, table_size(good, 3) - 8);
    expect_identical_rejection(b, "undersized_total");
  }
  {
    std::string b = good;  // implausible size
    poke_u64(b, 24, b.size() * 2);
    expect_identical_rejection(b, "implausible_size");
  }
  {
    std::string b = good;  // implausible event count
    const std::size_t events_at = 8 + format::kHeaderBytesV4 + table_size(good, 0) +
                                  table_size(good, 1) + table_size(good, 2);
    poke_u64(b, events_at, 1ull << 40);
    expect_identical_rejection(b, "implausible_events");
  }
}

TEST(IdenticalRejection, OlderFormatVersions) {
  // Files of the retired v2 and v3 generations, whether a bare magic or a
  // full body behind it, are refused by the one magic check every entry
  // point shares: same message, byte 0, record -1.
  const std::string body = v4_bytes(make_small_trace()).substr(format::kMagicBytes);
  for (const char version : {'2', '3'}) {
    const std::string magic = std::string("OTF2LTv") + version;
    for (const std::string& bytes : {magic, magic + body}) {
      const std::string label = "v" + std::string(1, version) + "_" +
                                std::to_string(bytes.size());
      expect_identical_rejection(bytes, label);
      const Outcome stream = stream_outcome(bytes);
      EXPECT_FALSE(stream.accepted) << label;
      EXPECT_EQ(stream.what, "trace: unsupported OTF2-lite version v" +
                                 std::string(1, version) +
                                 " (only v4 is read) (byte 0, record -1)")
          << label;
      EXPECT_EQ(stream.byte_offset, 0) << label;
      EXPECT_EQ(stream.record_index, -1) << label;
      EXPECT_EQ(stream.code, ErrorCode::Corruption) << label;
    }
  }
}

TEST(IdenticalRejection, NonzeroSectionPadding) {
  // An attribute section whose content is not a multiple of 8 gets zero
  // padding; a nonzero pad byte must be rejected by both entry points alike.
  Trace t;
  t.set_attribute("x", "y");  // attr content 4 + 8+1+1 = 14 -> 2 pad bytes
  std::string bytes = v4_bytes(t);
  const std::size_t pad_at = 8 + format::kHeaderBytesV4 + 14;
  ASSERT_EQ(bytes[pad_at], '\0');
  bytes[pad_at] = 1;
  expect_identical_rejection(bytes, "nonzero_padding");
}

TEST(IdenticalRejection, DuplicateNamesInStringTables) {
  Trace t = make_small_trace();
  // Two distinct single-char regions "a"/"b": rewrite "b" to "a" in place so
  // lengths (and the layout) stay intact.
  Trace two;
  two.set_attribute("workload", "unit");
  const auto power = two.define_metric({"pw", "W", MetricMode::AsyncAverage});
  two.append(RegionEnter{0, "a"});
  two.append(MetricEvent{1, power, 1.0});
  two.append(RegionExit{2, "a"});
  two.append(RegionEnter{3, "b"});
  two.append(MetricEvent{4, power, 1.0});
  two.append(RegionExit{5, "b"});
  std::string bytes = v4_bytes(two);
  const std::size_t pos = bytes.find('b', 8 + format::kHeaderBytesV4);
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'a';
  expect_identical_rejection(bytes, "duplicate_region");
}

// Fuzz-style sweeps: every truncation and every bit flip must be rejected
// by the two entry points with the identical diagnosis — never a crash (the
// sanitize preset runs this same binary under ASan/UBSan).
TEST(IdenticalRejection, TruncationSweep) {
  const std::string good = v4_bytes(make_small_trace());
  for (std::size_t cut = 0; cut < good.size(); cut += 3) {
    expect_identical_rejection(good.substr(0, cut),
                               "trunc_" + std::to_string(cut));
  }
}

TEST(IdenticalRejection, BitFlipSweep) {
  const std::string good = v4_bytes(make_small_trace());
  for (std::size_t pos = 0; pos < good.size(); pos += 3) {
    std::string flipped = good;
    flipped[pos] ^= 0x10;
    expect_identical_rejection(flipped, "flip_" + std::to_string(pos));
  }
}

/// Sample positions in a v4 file for the large-file sweeps: each section
/// boundary, each event-column boundary and the footer, the byte before each
/// of them, and a fixed stride.
std::vector<std::size_t> sweep_positions(const std::string& bytes) {
  std::vector<std::size_t> boundaries = {format::kMagicBytes, 8 + format::kHeaderBytesV4};
  for (std::size_t k = 0; k < format::kSectionCount; ++k) {
    boundaries.push_back(boundaries.back() + table_size(bytes, k));
  }
  const std::size_t events_at = boundaries[4];
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data() + events_at, 8);
  std::size_t column = events_at + 8;  // times, values, ids, kinds
  for (const std::size_t width : {8, 8, 4, 1}) {
    boundaries.push_back(column);
    column += width * n;
  }
  boundaries.push_back(bytes.size() - 8);
  std::vector<std::size_t> at;
  for (const std::size_t b : boundaries) {
    at.push_back(b - 1);
    at.push_back(b);
  }
  for (std::size_t pos = 0; pos < bytes.size(); pos += 4099) {
    at.push_back(pos);
  }
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  std::erase_if(at, [&](std::size_t pos) { return pos >= bytes.size(); });
  return at;
}

// The same sweeps over a file of kMapMinBytes or more, so the mmap source
// is covered too: every flipped copy keeps the size and is mapped, and so is
// every cut at or above the threshold (shorter cuts are read).
TEST(IdenticalRejection, TruncationSweepMapped) {
  const std::string good = v4_bytes(test::large_trace(5, 2 * kMapMinBytes));
  ASSERT_GE(good.size(), 2 * kMapMinBytes);
  std::size_t mapped_cuts = 0;
  for (const std::size_t cut : sweep_positions(good)) {
    mapped_cuts += cut >= kMapMinBytes ? 1 : 0;
    const Outcome file =
        expect_identical_rejection(good.substr(0, cut), "trunc_large_" + std::to_string(cut));
    EXPECT_FALSE(file.accepted) << cut;
  }
  EXPECT_GE(mapped_cuts, 50u);
}

TEST(IdenticalRejection, BitFlipSweepMapped) {
  const std::string good = v4_bytes(test::large_trace(6));
  ASSERT_GE(good.size(), kMapMinBytes);
  for (const std::size_t pos : sweep_positions(good)) {
    std::string flipped = good;
    flipped[pos] ^= 0x10;
    // One flipped bit changes one checksum lane, so nothing slips through.
    const Outcome file =
        expect_identical_rejection(flipped, "flip_large_" + std::to_string(pos));
    EXPECT_FALSE(file.accepted) << pos;
  }
}

// ------------------------------------------------------ incremental campaign

std::filesystem::path incremental_dir(const std::string& name) {
  const auto dir = scratch_dir() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string write_run(const std::filesystem::path& dir, const std::string& name,
                      const char* workload, std::uint64_t seed) {
  const std::string path = (dir / name).string();
  write_trace_file(sim_trace(workload, seed), path);
  return path;
}

std::vector<PhaseProfile> cold_batch(std::vector<std::string> paths) {
  std::sort(paths.begin(), paths.end());
  return profile_trace_files(paths);
}

TEST(IncrementalCampaign, ColdStartMatchesBatchBitIdentical) {
  const auto dir = incremental_dir("cold");
  std::vector<std::string> paths;
  paths.push_back(write_run(dir, "b.otf2l", "compute", 61));
  paths.push_back(write_run(dir, "a.otf2l", "md", 60));
  paths.push_back(write_run(dir, "c.otf2l", "matmul", 62));
  std::uint64_t small_bytes = 0;
  for (const std::string& path : paths) {
    small_bytes += std::filesystem::file_size(path);
  }
  paths.push_back((dir / "d.otf2l").string());
  write_trace_file(test::large_trace(63), paths.back());

  IncrementalCampaign campaign((dir).string(), {});
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 4u);
  EXPECT_EQ(campaign.stats().republishes, 1u);
  // The three sim traces are small and read; the large one is mapped.
  EXPECT_LT(small_bytes, 3 * kMapMinBytes);
  EXPECT_EQ(campaign.stats().bytes_copied, small_bytes);
  EXPECT_EQ(campaign.stats().bytes_mapped, std::filesystem::file_size(paths.back()));
  expect_profiles_bit_identical(campaign.profiles(), cold_batch(paths));
}

TEST(IncrementalCampaign, AddedFileDoesO1WorkAndMatchesColdBatch) {
  const auto dir = incremental_dir("add_one");
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    paths.push_back(write_run(dir, "r" + std::to_string(i) + ".otf2l",
                              i % 2 ? "compute" : "md", 70 + i));
  }
  IncrementalCampaign campaign(dir.string(), {});
  ASSERT_TRUE(campaign.poll());
  ASSERT_EQ(campaign.stats().files_ingested, 4u);

  // Unchanged directory: no work, no republish.
  EXPECT_FALSE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 4u);
  EXPECT_EQ(campaign.stats().republishes, 1u);

  // One new file: exactly one ingestion — O(1 file), not O(directory).
  paths.push_back(write_run(dir, "r9.otf2l", "matmul", 79));
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 5u);
  EXPECT_EQ(campaign.stats().republishes, 2u);
  expect_profiles_bit_identical(campaign.profiles(), cold_batch(paths));
}

TEST(IncrementalCampaign, ChangedFileIsReingestedRemovedFileDropped) {
  const auto dir = incremental_dir("churn");
  write_run(dir, "a.otf2l", "md", 80);
  const std::string b = write_run(dir, "b.otf2l", "compute", 81);
  IncrementalCampaign campaign(dir.string(), {});
  ASSERT_TRUE(campaign.poll());
  ASSERT_EQ(campaign.stats().files_ingested, 2u);

  // Rewrite b with different content and a guaranteed-new mtime.
  write_run(dir, "b.otf2l", "compute", 99);
  std::filesystem::last_write_time(
      b, std::filesystem::last_write_time(b) + std::chrono::seconds(2));
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 3u);  // only b re-ingested
  expect_profiles_bit_identical(campaign.profiles(),
                                cold_batch(campaign.paths()));

  // Remove b: the table shrinks back to a alone.
  std::filesystem::remove(b);
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 3u);  // removal ingests nothing
  EXPECT_EQ(campaign.paths().size(), 1u);
  expect_profiles_bit_identical(campaign.profiles(),
                                cold_batch(campaign.paths()));
}

TEST(IncrementalCampaign, CorruptFileIsQuarantinedUntilFixed) {
  const auto dir = incremental_dir("quarantine");
  write_run(dir, "good.otf2l", "md", 90);
  std::string bad_bytes = v4_bytes(sim_trace("compute", 91));
  bad_bytes[bad_bytes.size() - 60] ^= 0x01;  // checksum-corrupt
  const std::string bad = (dir / "bad.otf2l").string();
  {
    std::ofstream out(bad, std::ios::binary);
    out.write(bad_bytes.data(), static_cast<std::streamsize>(bad_bytes.size()));
  }

  IncrementalCampaign campaign(dir.string(), {});
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 1u);
  EXPECT_EQ(campaign.stats().files_failed, 1u);
  const auto errors = campaign.errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.at(bad).find("checksum mismatch"), std::string::npos);
  // The published table carries only the good file.
  expect_profiles_bit_identical(campaign.profiles(), cold_batch({(dir / "good.otf2l").string()}));

  // Unchanged corrupt file: not retried.
  EXPECT_FALSE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_failed, 1u);

  // Fixed in place (new mtime): retried and published.
  write_trace_file(sim_trace("compute", 91), bad);
  std::filesystem::last_write_time(
      bad, std::filesystem::last_write_time(bad) + std::chrono::seconds(2));
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 2u);
  EXPECT_TRUE(campaign.errors().empty());
  expect_profiles_bit_identical(campaign.profiles(),
                                cold_batch(campaign.paths()));
}

TEST(IncrementalCampaign, InjectedClockTimesRepublish) {
  const auto dir = incremental_dir("clock");
  write_run(dir, "a.otf2l", "md", 95);
  IncrementalCampaignOptions options;
  std::uint64_t fake_now = 1000;
  options.now_ns = [&fake_now] { return fake_now += 250; };
  IncrementalCampaign campaign(dir.string(), options);
  EXPECT_TRUE(campaign.poll());
  // The stopwatch reads the fake clock twice: 250 ns apart, no wall clock.
  EXPECT_EQ(campaign.stats().last_republish_ns, 250u);
}

TEST(IncrementalCampaign, ExtensionFilterSkipsForeignFiles) {
  const auto dir = incremental_dir("filter");
  write_run(dir, "a.otf2l", "md", 96);
  write_bytes("filter/notes.txt", "not a trace");
  IncrementalCampaign campaign(dir.string(), {});
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.paths().size(), 1u);
  EXPECT_EQ(campaign.stats().files_failed, 0u);
}

TEST(IncrementalCampaign, MissingDirectoryCountsAsEmpty) {
  IncrementalCampaign campaign((scratch_dir() / "does_not_exist").string(), {});
  EXPECT_FALSE(campaign.poll());
  EXPECT_TRUE(campaign.profiles().empty());
}

TEST(IncrementalCampaign, ObsCountersWitnessIncrementalWork) {
  obs::set_enabled(true);
  obs::registry().reset_values();
  const auto dir = incremental_dir("obs");
  const std::string a = write_run(dir, "a.otf2l", "md", 97);

  IncrementalCampaign campaign(dir.string(), {});
  ASSERT_TRUE(campaign.poll());

  auto snapshot = obs::registry().snapshot();
  const auto* ingested = snapshot.find("ingestd.files_ingested");
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->counter, 1u);

  // Second poll with one new file: the counter advances by exactly one —
  // the O(changed files) witness required of the streaming engine. The new
  // file is over the mapping threshold, so the byte counters split: the
  // small first file was read, the second is mapped.
  const std::string b = (dir / "b.otf2l").string();
  write_trace_file(test::large_trace(98), b);
  ASSERT_TRUE(campaign.poll());
  snapshot = obs::registry().snapshot();
  EXPECT_EQ(snapshot.find("ingestd.files_ingested")->counter, 2u);
  EXPECT_EQ(snapshot.find("ingestd.bytes_copied")->counter, std::filesystem::file_size(a));
  EXPECT_EQ(snapshot.find("ingestd.bytes_mapped")->counter, std::filesystem::file_size(b));
  EXPECT_EQ(snapshot.find("ingestd.republishes")->counter, 2u);
  const auto* latency = snapshot.find("ingestd.republish_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.count, 2u);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace pwx::trace
