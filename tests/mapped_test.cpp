// Tests for the zero-copy ingestion path: the mmap RAII utility, the
// MappedTraceFile reader and its buffered fallback, mapped<->buffered
// equivalence (bit-identical profiles and campaign merges), the
// identical-rejection contract on hostile section tables, and the
// incremental streaming campaign.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
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

namespace pwx::trace {
namespace {

std::filesystem::path scratch_dir() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pwx_mapped_test_" + std::to_string(::getpid()));
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

void expect_profiles_bit_identical(const std::vector<PhaseProfile>& a,
                                   const std::vector<PhaseProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(a[i].frequency_ghz, b[i].frequency_ghz);  // exact, not NEAR
    EXPECT_EQ(a[i].threads, b[i].threads);
    EXPECT_EQ(a[i].start_s, b[i].start_s);
    EXPECT_EQ(a[i].end_s, b[i].end_s);
    EXPECT_EQ(a[i].elapsed_s, b[i].elapsed_s);
    EXPECT_EQ(a[i].avg_power_watts, b[i].avg_power_watts);
    EXPECT_EQ(a[i].avg_voltage, b[i].avg_voltage);
    EXPECT_EQ(a[i].counter_rates, b[i].counter_rates);
    EXPECT_EQ(a[i].runs_merged, b[i].runs_merged);
  }
}

// ---------------------------------------------------------------- mmap RAII

TEST(MappedFile, MapsFileContents) {
  const std::string path = write_bytes("plain.bin", "hello mapped world");
  const MappedFile map = MappedFile::map_readonly(path);
  ASSERT_EQ(map.size(), 18u);
  EXPECT_EQ(std::string(map.data(), map.size()), "hello mapped world");
}

TEST(MappedFile, EmptyFileMapsAsEmpty) {
  const std::string path = write_bytes("empty.bin", "");
  const MappedFile map = MappedFile::map_readonly(path);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
}

TEST(MappedFile, MissingFileThrowsIoError) {
  EXPECT_THROW(MappedFile::map_readonly("/nonexistent/file.bin"), IoError);
}

TEST(MappedFile, NonRegularFileThrowsIoError) {
  EXPECT_THROW(MappedFile::map_readonly("/dev/null"), IoError);
}

TEST(MappedFile, MoveKeepsMappingValid) {
  const std::string path = write_bytes("moved.bin", "stable bytes");
  MappedFile a = MappedFile::map_readonly(path);
  const char* data = a.data();
  MappedFile b = std::move(a);
  EXPECT_EQ(b.data(), data);  // the mapping itself does not move
  EXPECT_EQ(std::string(b.data(), b.size()), "stable bytes");
}

// ------------------------------------------------------------- mapped reader

TEST(MappedTrace, V4IsServedZeroCopy) {
  const Trace t = make_small_trace();
  const std::string bytes = v4_bytes(t);
  const std::string path = write_bytes("zero_copy.otf2l", bytes);

  const MappedTraceFile file = MappedTraceFile::open(path);
  EXPECT_TRUE(file.mapped());
  EXPECT_TRUE(file.checksum_verified());
  EXPECT_EQ(file.bytes_mapped(), bytes.size());
  EXPECT_EQ(file.bytes_copied(), 0u);

  const TraceView& view = file.view();
  ASSERT_EQ(view.columns.size(), t.columns().size());
  for (std::size_t i = 0; i < t.columns().size(); ++i) {
    EXPECT_EQ(view.columns.times[i], t.columns().times[i]);
    EXPECT_EQ(view.columns.kinds[i], t.columns().kinds[i]);
    EXPECT_EQ(view.columns.ids[i], t.columns().ids[i]);
    EXPECT_EQ(view.columns.values[i], t.columns().values[i]);
  }
  ASSERT_EQ(view.columns.regions.size(), t.columns().regions.size());
  for (std::size_t i = 0; i < view.columns.regions.size(); ++i) {
    EXPECT_EQ(view.columns.regions[i], t.columns().regions.at(static_cast<std::uint32_t>(i)));
  }
  EXPECT_EQ(view.attribute("workload"), "unit");
  EXPECT_EQ(view.attribute_as_double("frequency_ghz"), 2.4);
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
  // mmap refuses a pipe, so the buffered reader serves it — reading it once,
  // since a pipe cannot be rewound.
  const Trace t = sim_trace("md", 11);
  const std::string bytes = v4_bytes(t);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_LT(bytes.size(), 4096u);  // fits the pipe buffer: no writer thread
  ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);

  const MappedTraceFile file =
      MappedTraceFile::open("/proc/self/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  EXPECT_FALSE(file.mapped());
  EXPECT_TRUE(file.checksum_verified());
  EXPECT_EQ(file.bytes_mapped(), 0u);
  EXPECT_EQ(file.bytes_copied(), bytes.size());
  EXPECT_TRUE(file.sections().empty());
  expect_profiles_bit_identical(build_phase_profiles(file.view()),
                                build_phase_profiles(t));
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

// ------------------------------------------------- mapped/buffered equivalence

TEST(MappedEquivalence, PhaseProfilesBitIdentical) {
  for (const char* name : {"md", "compute", "matmul"}) {
    const Trace t = sim_trace(name, 21);
    const std::string path =
        write_bytes(std::string("equiv_") + name + ".otf2l", v4_bytes(t));
    const auto buffered = build_phase_profiles(read_trace_file(path));
    const MappedTraceFile file = MappedTraceFile::open(path);
    ASSERT_TRUE(file.mapped());
    expect_profiles_bit_identical(build_phase_profiles(file.view()), buffered);
  }
}

TEST(MappedEquivalence, EventColumnsBitIdentical) {
  const Trace t = sim_trace("md", 22);
  const std::string path = write_bytes("equiv_columns.otf2l", v4_bytes(t));
  const Trace buffered = read_trace_file(path);
  const MappedTraceFile file = MappedTraceFile::open(path);
  const EventColumnsView& m = file.view().columns;
  const EventColumns& b = buffered.columns();
  ASSERT_EQ(m.size(), b.size());
  EXPECT_TRUE(std::equal(m.times.begin(), m.times.end(), b.times.begin()));
  EXPECT_TRUE(std::equal(m.kinds.begin(), m.kinds.end(), b.kinds.begin()));
  EXPECT_TRUE(std::equal(m.ids.begin(), m.ids.end(), b.ids.begin()));
  // Bit-exact double comparison via the raw representation.
  ASSERT_EQ(m.values.size(), b.values.size());
  EXPECT_EQ(std::memcmp(m.values.data(), b.values.data(),
                        m.values.size() * sizeof(double)),
            0);
}

// Campaign merges must match across thread counts and OpenMP on/off, mapped
// vs buffered — the determinism contract the batch engine already makes,
// now extended over the ingestion mode.
TEST(MappedEquivalence, CampaignMergesBitIdenticalAcrossThreadsAndModes) {
  std::vector<std::string> paths;
  const char* names[] = {"md", "md", "compute", "compute", "matmul", "matmul"};
  const std::vector<pmc::Preset> groups[2] = {
      {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS},
      {pmc::Preset::PRF_DM, pmc::Preset::BR_MSP}};
  for (std::size_t i = 0; i < 6; ++i) {
    const Trace t = sim_trace(names[i], 40 + i, groups[i % 2]);
    paths.push_back(
        write_bytes("campaign_" + std::to_string(i) + ".otf2l", v4_bytes(t)));
  }

  ProfileCampaignOptions serial;
  serial.parallel = false;
  const auto reference = profile_trace_files(paths, serial);

#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
#endif
  for (const int threads : {1, 4, 16}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    for (const bool parallel : {false, true}) {
      for (const bool mmap : {false, true}) {
        ProfileCampaignOptions options;
        options.parallel = parallel;
        options.mmap = mmap;
        expect_profiles_bit_identical(profile_trace_files(paths, options),
                                      reference);
      }
    }
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

Outcome buffered_outcome(const std::string& bytes) {
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

Outcome mapped_outcome(const std::string& bytes, const std::string& name) {
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

/// Both readers must agree byte-for-byte on the verdict: same accept/reject,
/// and on reject the same message, byte offset, record index, and code.
void expect_identical_rejection(const std::string& bytes, const std::string& label) {
  const Outcome buffered = buffered_outcome(bytes);
  const Outcome mapped = mapped_outcome(bytes, "reject_" + label + ".otf2l");
  EXPECT_EQ(buffered.accepted, mapped.accepted) << label;
  EXPECT_EQ(buffered.what, mapped.what) << label;
  EXPECT_EQ(buffered.byte_offset, mapped.byte_offset) << label;
  EXPECT_EQ(buffered.record_index, mapped.record_index) << label;
  if (!buffered.accepted) {
    EXPECT_EQ(buffered.code, mapped.code) << label;
  }
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
  // full body behind it, are refused by the one magic check both readers
  // share: same message, byte 0, record -1.
  const std::string body = v4_bytes(make_small_trace()).substr(format::kMagicBytes);
  for (const char version : {'2', '3'}) {
    const std::string magic = std::string("OTF2LTv") + version;
    for (const std::string& bytes : {magic, magic + body}) {
      const std::string label = "v" + std::string(1, version) + "_" +
                                std::to_string(bytes.size());
      expect_identical_rejection(bytes, label);
      const Outcome buffered = buffered_outcome(bytes);
      EXPECT_FALSE(buffered.accepted) << label;
      EXPECT_EQ(buffered.what, "trace: unsupported OTF2-lite version v" +
                                   std::string(1, version) +
                                   " (only v4 is read) (byte 0, record -1)")
          << label;
      EXPECT_EQ(buffered.byte_offset, 0) << label;
      EXPECT_EQ(buffered.record_index, -1) << label;
      EXPECT_EQ(buffered.code, ErrorCode::Corruption) << label;
    }
  }
}

TEST(IdenticalRejection, NonzeroSectionPadding) {
  // An attribute section whose content is not a multiple of 8 gets zero
  // padding; a nonzero pad byte must be rejected by both readers alike.
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
// by the two paths with the identical diagnosis — never a crash (the
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
  ProfileCampaignOptions serial;
  serial.parallel = false;
  return profile_trace_files(paths, serial);
}

TEST(IncrementalCampaign, ColdStartMatchesBatchBitIdentical) {
  const auto dir = incremental_dir("cold");
  std::vector<std::string> paths;
  paths.push_back(write_run(dir, "b.otf2l", "compute", 61));
  paths.push_back(write_run(dir, "a.otf2l", "md", 60));
  paths.push_back(write_run(dir, "c.otf2l", "matmul", 62));

  IncrementalCampaignOptions options;
  options.campaign.mmap = true;
  IncrementalCampaign campaign((dir).string(), options);
  EXPECT_TRUE(campaign.poll());
  EXPECT_EQ(campaign.stats().files_ingested, 3u);
  EXPECT_EQ(campaign.stats().republishes, 1u);
  EXPECT_GT(campaign.stats().bytes_mapped, 0u);
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
  write_run(dir, "a.otf2l", "md", 97);

  IncrementalCampaignOptions options;
  options.campaign.mmap = true;
  IncrementalCampaign campaign(dir.string(), options);
  ASSERT_TRUE(campaign.poll());

  auto snapshot = obs::registry().snapshot();
  const auto* ingested = snapshot.find("ingestd.files_ingested");
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->counter, 1u);

  // Second poll with one new file: the counter advances by exactly one —
  // the O(changed files) witness required of the streaming engine.
  write_run(dir, "b.otf2l", "compute", 98);
  ASSERT_TRUE(campaign.poll());
  snapshot = obs::registry().snapshot();
  EXPECT_EQ(snapshot.find("ingestd.files_ingested")->counter, 2u);
  EXPECT_GT(snapshot.find("ingestd.bytes_mapped")->counter, 0u);
  EXPECT_EQ(snapshot.find("ingestd.republishes")->counter, 2u);
  const auto* latency = snapshot.find("ingestd.republish_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.count, 2u);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace pwx::trace
