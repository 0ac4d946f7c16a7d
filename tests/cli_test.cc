#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "cli/archive.h"
#include "core/galloper.h"
#include "fault/fault.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"

namespace galloper {
namespace {

namespace fs = std::filesystem;

// ---------- Flags ----------

TEST(Flags, ParsesEqualsForm) {
  Flags f({"--k=4", "--name=hello", "input.bin"});
  EXPECT_EQ(f.get_int("k", 0), 4);
  EXPECT_EQ(*f.get("name"), "hello");
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "input.bin");
}

TEST(Flags, ParsesSpaceForm) {
  Flags f({"--k", "7", "pos"});
  EXPECT_EQ(f.get_int("k", 0), 7);
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"pos"}));
}

TEST(Flags, BooleanFlag) {
  Flags f({"--verbose", "--k=2"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_EQ(*f.get("verbose"), "true");
}

TEST(Flags, RegisteredBooleanNeverConsumesPositional) {
  Flags f({"--stats", "input.bin", "outdir"}, /*boolean_flags=*/{"stats"});
  EXPECT_TRUE(f.has("stats"));
  EXPECT_EQ(*f.get("stats"), "true");
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"input.bin", "outdir"}));
}

TEST(Flags, DoubleDashEndsFlags) {
  Flags f({"--a=1", "--", "--not-a-flag"});
  EXPECT_TRUE(f.has("a"));
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"--not-a-flag"}));
}

TEST(Flags, MissingReturnsFallback) {
  Flags f({});
  EXPECT_EQ(f.get_int("k", 42), 42);
  EXPECT_EQ(f.get_or("s", "dflt"), "dflt");
  EXPECT_FALSE(f.get("x").has_value());
  EXPECT_DOUBLE_EQ(f.get_double("d", 1.5), 1.5);
}

TEST(Flags, DoublesList) {
  Flags f({"--perf=1,0.4,2.5"});
  const auto v = f.get_doubles("perf");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 0.4);
  EXPECT_DOUBLE_EQ(v[2], 2.5);
  EXPECT_TRUE(f.get_doubles("absent").empty());
}

TEST(Flags, BadNumberThrows) {
  Flags f({"--k=four", "--perf=1,x"});
  EXPECT_THROW(f.get_int("k", 0), CheckError);
  EXPECT_THROW(f.get_doubles("perf"), CheckError);
}

TEST(Flags, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "--k=3", "file"};
  Flags f(3, argv);
  EXPECT_EQ(f.get_int("k", 0), 3);
  EXPECT_EQ(f.positional().size(), 1u);
}

// ---------- Manifest ----------

TEST(Manifest, SerializeParseRoundTrip) {
  cli::Manifest m;
  m.k = 4;
  m.l = 2;
  m.g = 1;
  m.weights = {Rational(4, 7), Rational(4, 7), Rational(4, 7),
               Rational(4, 7), Rational(4, 7), Rational(4, 7),
               Rational(4, 7)};
  m.block_bytes = 7168;
  m.original_bytes = 28001;
  const cli::Manifest parsed = cli::Manifest::parse(m.serialize());
  EXPECT_EQ(parsed.k, 4u);
  EXPECT_EQ(parsed.l, 2u);
  EXPECT_EQ(parsed.g, 1u);
  EXPECT_EQ(parsed.weights, m.weights);
  EXPECT_EQ(parsed.block_bytes, 7168u);
  EXPECT_EQ(parsed.original_bytes, 28001u);
}

TEST(Manifest, RejectsGarbage) {
  EXPECT_THROW(cli::Manifest::parse("hello world"), CheckError);
  EXPECT_THROW(cli::Manifest::parse("format=other-format\nk=4\n"),
               CheckError);
  EXPECT_THROW(cli::Manifest::parse("format=galloper-archive-v1\n"),
               CheckError);
}

// ---------- Archive round trips on a temp dir ----------

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("galloper_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_input(size_t bytes, uint64_t seed = 5) {
    Rng rng(seed);
    const Buffer data = random_buffer(bytes, rng);
    const fs::path p = dir_ / "input.bin";
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    input_ = data;
    return p;
  }

  Buffer read_back(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string s = ss.str();
    return Buffer(s.begin(), s.end());
  }

  fs::path dir_;
  Buffer input_;
};

TEST_F(ArchiveTest, EncodeDecodeRoundTripWithPadding) {
  // 10000 bytes is NOT a multiple of the 28-chunk structure → padding.
  const fs::path in = write_input(10000);
  const auto m = cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  EXPECT_EQ(m.original_bytes, 10000u);
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, input_);
}

TEST_F(ArchiveTest, DecodeSurvivesTwoMissingBlocks) {
  const fs::path in = write_input(5000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  fs::remove(cli::block_path(dir_ / "arch", 1));
  fs::remove(cli::block_path(dir_ / "arch", 6));
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, input_);
}

TEST_F(ArchiveTest, DecodeFailsBeyondTolerance) {
  const fs::path in = write_input(3000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  for (size_t b : {0u, 1u, 6u}) fs::remove(cli::block_path(dir_ / "arch", b));
  EXPECT_FALSE(cli::decode_archive(dir_ / "arch").has_value());
}

TEST_F(ArchiveTest, RepairRestoresLocalBlockFromGroupPeers) {
  const fs::path in = write_input(7000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  const Buffer original_block =
      read_back(cli::block_path(dir_ / "arch", 2));
  fs::remove(cli::block_path(dir_ / "arch", 2));
  const auto helpers = cli::repair_archive(dir_ / "arch", 2);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_EQ(*helpers, (std::vector<size_t>{3, 5})) << "group peers only";
  EXPECT_EQ(read_back(cli::block_path(dir_ / "arch", 2)), original_block);
}

TEST_F(ArchiveTest, RepairFallsBackWhenPeerMissing) {
  const fs::path in = write_input(7000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  const Buffer original_block =
      read_back(cli::block_path(dir_ / "arch", 2));
  fs::remove(cli::block_path(dir_ / "arch", 2));
  fs::remove(cli::block_path(dir_ / "arch", 3));  // its group peer
  const auto helpers = cli::repair_archive(dir_ / "arch", 2);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_GT(helpers->size(), 2u);
  EXPECT_EQ(read_back(cli::block_path(dir_ / "arch", 2)), original_block);
}

TEST_F(ArchiveTest, HeterogeneousPerfFlagChangesWeights) {
  const fs::path in = write_input(4000);
  const auto m = cli::encode_archive(in, dir_ / "arch", 4, 2, 1,
                                     {1.0, 0.4, 1.0, 0.4, 1.0, 0.4, 1.0}, 10);
  EXPECT_NE(m.weights[0], m.weights[1]) << "faster server gets more data";
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, input_);
}

TEST_F(ArchiveTest, DescribeListsEveryBlock) {
  const fs::path in = write_input(2000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  fs::remove(cli::block_path(dir_ / "arch", 4));
  const std::string desc = cli::describe_archive(dir_ / "arch");
  EXPECT_NE(desc.find("(4,2,1) Galloper"), std::string::npos);
  EXPECT_NE(desc.find("block 4 [local parity]"), std::string::npos);
  EXPECT_NE(desc.find("MISSING"), std::string::npos);
  EXPECT_NE(desc.find("block 6 [global parity]"), std::string::npos);
}

TEST_F(ArchiveTest, ManifestCarriesBlockCrcs) {
  const fs::path in = write_input(3000);
  const auto m = cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  EXPECT_EQ(m.block_crcs.size(), 7u);
  const auto parsed = cli::read_manifest(dir_ / "arch");
  EXPECT_EQ(parsed.block_crcs, m.block_crcs);
}

TEST_F(ArchiveTest, VerifyCleanArchive) {
  const fs::path in = write_input(3000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  const auto report = cli::verify_archive(dir_ / "arch");
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.decodable);
}

TEST_F(ArchiveTest, VerifyDetectsMissingAndCorrupt) {
  const fs::path in = write_input(3000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  fs::remove(cli::block_path(dir_ / "arch", 2));
  // Flip a byte in block 5.
  {
    std::fstream f(cli::block_path(dir_ / "arch", 5),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    char c;
    f.seekg(10);
    f.get(c);
    f.seekp(10);
    f.put(static_cast<char>(c ^ 1));
  }
  const auto report = cli::verify_archive(dir_ / "arch");
  EXPECT_EQ(report.missing, (std::vector<size_t>{2}));
  EXPECT_EQ(report.corrupt, (std::vector<size_t>{5}));
  EXPECT_TRUE(report.decodable) << "2 bad blocks ≤ tolerance";
  // After also corrupting a third critical set, recovery dies.
  fs::remove(cli::block_path(dir_ / "arch", 3));
  fs::remove(cli::block_path(dir_ / "arch", 6));
  const auto worse = cli::verify_archive(dir_ / "arch");
  EXPECT_FALSE(worse.decodable);
}

TEST_F(ArchiveTest, VerifyThenRepairRestoresClean) {
  const fs::path in = write_input(4000);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  fs::remove(cli::block_path(dir_ / "arch", 1));
  ASSERT_FALSE(cli::verify_archive(dir_ / "arch").clean());
  ASSERT_TRUE(cli::repair_archive(dir_ / "arch", 1).has_value());
  EXPECT_TRUE(cli::verify_archive(dir_ / "arch").clean())
      << "repaired block must match the manifest CRC bit-for-bit";
}

TEST_F(ArchiveTest, UpdateArchivePatchesInPlace) {
  // File size chosen as a whole number of chunks: 28 chunks × 100 bytes.
  const fs::path in = write_input(2800);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  const auto m = cli::read_manifest(dir_ / "arch");
  const size_t chunk = m.block_bytes / 7;  // N = 7
  ASSERT_EQ(chunk, 100u);

  Rng rng(77);
  const Buffer fresh = random_buffer(2 * chunk, rng);
  const auto touched =
      cli::update_archive(dir_ / "arch", 3 * chunk, fresh);
  EXPECT_FALSE(touched.empty());
  EXPECT_LT(touched.size(), 7u) << "delta update must not rewrite all";

  // Archive stays CRC-clean and decodes to the edited file.
  EXPECT_TRUE(cli::verify_archive(dir_ / "arch").clean());
  Buffer expect = input_;
  std::copy(fresh.begin(), fresh.end(),
            expect.begin() + static_cast<ptrdiff_t>(3 * chunk));
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, expect);
}

TEST_F(ArchiveTest, UpdateRejectsUnalignedOrDegraded) {
  const fs::path in = write_input(2800);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  EXPECT_THROW(cli::update_archive(dir_ / "arch", 1, Buffer(100)),
               CheckError);
  fs::remove(cli::block_path(dir_ / "arch", 4));
  EXPECT_THROW(cli::update_archive(dir_ / "arch", 0, Buffer(100)),
               CheckError);
}

TEST_F(ArchiveTest, EmptyInputRejected) {
  const fs::path p = dir_ / "empty.bin";
  std::ofstream(p).close();
  EXPECT_THROW(cli::encode_archive(p, dir_ / "arch", 4, 2, 1), CheckError);
}

// ---------- v2 segmented / streaming archives ----------

TEST_F(ArchiveTest, V2MultiSegmentRoundTrip) {
  const fs::path in = write_input(100000);
  const auto m =
      cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12,
                          /*threads=*/1, /*chunk_bytes=*/512);
  EXPECT_EQ(m.chunk_bytes, 512u);
  EXPECT_NE(m.serialize().find("galloper-archive-v2"), std::string::npos);
  const auto code = m.make_code();
  const auto segs = cli::archive_segments(m, code.engine().num_chunks(),
                                          code.engine().stripes_per_block());
  EXPECT_GT(segs.size(), 1u);
  EXPECT_NE(cli::describe_archive(dir_ / "arch").find("segments"),
            std::string::npos);

  const auto buf = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(buf.has_value());
  EXPECT_EQ(*buf, input_);
  const fs::path out = dir_ / "out.bin";
  ASSERT_TRUE(cli::decode_archive_to(dir_ / "arch", out));
  EXPECT_EQ(read_back(out), input_);
}

TEST_F(ArchiveTest, V2DegradedDecodeAndRepair) {
  const fs::path in = write_input(60000, 9);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  fs::remove(cli::block_path(dir_ / "arch", 2));

  const fs::path out = dir_ / "out.bin";
  ASSERT_TRUE(cli::decode_archive_to(dir_ / "arch", out));
  EXPECT_EQ(read_back(out), input_);

  const auto helpers = cli::repair_archive(dir_ / "arch", 2);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_TRUE(cli::verify_archive(dir_ / "arch").clean());
}

TEST_F(ArchiveTest, SingleSegmentFilesKeepV1Layout) {
  const fs::path in = write_input(2800);
  const auto m = cli::encode_archive(in, dir_ / "arch", 4, 2, 1);
  EXPECT_EQ(m.chunk_bytes, 0u);  // fits the default segment: v1
  EXPECT_NE(m.serialize().find("galloper-archive-v1"), std::string::npos);
  const auto code = m.make_code();
  EXPECT_EQ(cli::archive_segments(m, code.engine().num_chunks(),
                                  code.engine().stripes_per_block())
                .size(),
            1u);
}

TEST_F(ArchiveTest, TruncatedBlockFileFailsLoudly) {
  const fs::path in = write_input(60000, 11);
  const auto m = cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  fs::resize_file(cli::block_path(dir_ / "arch", 1), m.block_bytes / 2);
  // Decoders refuse a wrong-size block outright instead of feeding the
  // codec short reads; verify reports it as corrupt without throwing.
  EXPECT_THROW(cli::decode_archive(dir_ / "arch"), CheckError);
  EXPECT_THROW(cli::decode_archive_to(dir_ / "arch", dir_ / "out.bin"),
               CheckError);
  const auto report = cli::verify_archive(dir_ / "arch");
  EXPECT_EQ(report.corrupt, std::vector<size_t>{1});
  EXPECT_TRUE(report.decodable);
}

TEST_F(ArchiveTest, RepairRefusesCrcMismatchedRebuild) {
  const fs::path in = write_input(60000, 13);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  fs::remove(cli::block_path(dir_ / "arch", 2));
  // Corrupt one of block 2's local helpers: the streamed rebuild completes
  // but its CRC cannot match the manifest, so the repair must throw and
  // leave NO block file behind (tmp cleaned up, target still missing).
  const auto helpers = core::GalloperCode(4, 2, 1).repair_helpers(2);
  ASSERT_FALSE(helpers.empty());
  const fs::path hp = cli::block_path(dir_ / "arch", helpers[0]);
  {
    std::fstream f(hp, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(0);
    f.write(&byte, 1);
  }
  // The distinct error type is what maps to the CLI's exit code 3
  // ("data is rotten; retrying cannot help") — and it still IS a
  // CheckError for callers that only classify coarsely.
  EXPECT_THROW(cli::repair_archive(dir_ / "arch", 2), cli::CrcMismatchError);
  EXPECT_FALSE(fs::exists(cli::block_path(dir_ / "arch", 2)));
  fs::path tmp = cli::block_path(dir_ / "arch", 2);
  tmp += ".tmp";
  EXPECT_FALSE(fs::exists(tmp));
}

TEST_F(ArchiveTest, UpdateAcrossSegmentBoundary) {
  const fs::path in = write_input(100000, 17);
  const auto m = cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  const auto code = m.make_code();
  const size_t seg_data = code.engine().num_chunks() * m.chunk_bytes;
  ASSERT_GT(input_.size(), seg_data + 512);

  // Patch the last chunk of segment 0 plus the first chunk of segment 1.
  Rng rng(18);
  const Buffer fresh = random_buffer(1024, rng);
  cli::update_archive(dir_ / "arch", seg_data - 512, fresh);
  EXPECT_TRUE(cli::verify_archive(dir_ / "arch").clean());

  Buffer expect = input_;
  std::copy(fresh.begin(), fresh.end(),
            expect.begin() + static_cast<ptrdiff_t>(seg_data - 512));
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, expect);
}

// An update must never launder silent corruption: patching a rotten
// parity block would re-certify it under a fresh manifest CRC, and a
// rotten data piece would leave wrong parity behind. A block the update
// writes that fails its manifest CRC refuses the update (CrcMismatchError,
// the CLI's exit 3) before any byte is written.
TEST_F(ArchiveTest, UpdateRefusesBlockFailingItsManifestCrc) {
  const fs::path in = write_input(100000, 67);
  const auto m =
      cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  ASSERT_GT(m.chunk_bytes, 0u);  // v2
  const auto code = m.make_code();
  const auto& writes = code.engine().update_stripes(0);
  // The data piece the chunk lands in, and the last parity it feeds.
  for (const size_t victim : {writes.front().block, writes.back().block}) {
    SCOPED_TRACE(victim);
    fs::remove_all(dir_ / "arch");
    cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
    {
      std::fstream f(cli::block_path(dir_ / "arch", victim),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(m.block_bytes - 1);
      char c = 0;
      f.get(c);
      f.seekp(m.block_bytes - 1);
      f.put(static_cast<char>(c ^ 0x10));
    }
    std::vector<Buffer> before;
    for (size_t b = 0; b < code.num_blocks(); ++b)
      before.push_back(read_back(cli::block_path(dir_ / "arch", b)));
    const Buffer manifest = read_back(dir_ / "arch" / "MANIFEST");

    EXPECT_THROW(cli::update_archive(dir_ / "arch", 0, Buffer(512, 0x3C)),
                 cli::CrcMismatchError);
    for (size_t b = 0; b < code.num_blocks(); ++b)
      EXPECT_EQ(read_back(cli::block_path(dir_ / "arch", b)), before[b])
          << "block " << b;
    EXPECT_EQ(read_back(dir_ / "arch" / "MANIFEST"), manifest);
    EXPECT_EQ(cli::verify_archive(dir_ / "arch").corrupt,
              std::vector<size_t>{victim});
  }
}

TEST_F(ArchiveTest, StreamingEncodeMemoryStaysBounded) {
  // A file 96 segments long: if the pipeline really streams, the pool's
  // peak-outstanding delta during the encode is a few segments' worth of
  // buffers — nowhere near the whole file. (The input Buffer held by the
  // fixture sits in the baseline; reset_peak makes the measurement a
  // delta on top of it.)
  core::GalloperCode code(4, 2, 1);
  const size_t chunk = 1024;
  const size_t seg_data = code.engine().num_chunks() * chunk;
  const fs::path in = write_input(96 * seg_data + 37, 19);

  auto& pool = util::BufferPool::global();
  pool.reset_peak();
  const auto before = pool.stats();
  const auto m =
      cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, chunk);
  const auto after = pool.stats();
  EXPECT_EQ(m.chunk_bytes, chunk);
  EXPECT_LE(after.peak_outstanding_bytes - before.peak_outstanding_bytes,
            24 * seg_data)
      << "streaming encode held too many segments in memory";

  const fs::path out = dir_ / "out.bin";
  ASSERT_TRUE(cli::decode_archive_to(dir_ / "arch", out));
  EXPECT_EQ(read_back(out), input_);
}

// ---------- Fault injection / crash safety ----------

// Installs an injector as the process-global one for the scope of a test
// (the CLI archive pipeline has no per-call handle) and ALWAYS detaches it,
// so a failing assertion cannot leak fault schedules into later tests.
class GlobalInjectorGuard {
 public:
  explicit GlobalInjectorGuard(fault::FaultInjector* inj) {
    fault::set_global(inj);
  }
  ~GlobalInjectorGuard() { fault::set_global(nullptr); }
};

TEST_F(ArchiveTest, RepairCleansTmpOnMidStreamIoError) {
  // A mangled helper FILE is excluded by the up-front size check (repair
  // falls back to other helpers), so the way to hit the mid-stream error
  // path is injected read faults that outlast the per-read retry budget.
  const fs::path in = write_input(100000, 23);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  fs::remove(cli::block_path(dir_ / "arch", 3));

  fault::FaultInjector injector(1);
  GlobalInjectorGuard guard(&injector);
  injector.set_read_failure_rate(1.0);
  EXPECT_THROW(cli::repair_archive(dir_ / "arch", 3),
               fault::TransientError);
  EXPECT_FALSE(fs::exists(cli::block_path(dir_ / "arch", 3)));
  fs::path tmp = cli::block_path(dir_ / "arch", 3);
  tmp += ".tmp";
  EXPECT_FALSE(fs::exists(tmp));

  // Once the fault storm passes, the same repair completes and the
  // archive verifies clean.
  injector.set_read_failure_rate(0.0);
  ASSERT_TRUE(cli::repair_archive(dir_ / "arch", 3).has_value());
  EXPECT_TRUE(cli::verify_archive(dir_ / "arch").clean());
}

TEST_F(ArchiveTest, CrashBeforePublishLeavesOnlySweepableDebris) {
  const fs::path in = write_input(100000, 29);
  fault::FaultInjector injector(1);
  GlobalInjectorGuard guard(&injector);

  // Crash after every block is staged but before any rename: the archive
  // dir must contain ONLY .tmp debris (no half-published block set), and
  // the startup sweep must remove exactly that debris.
  injector.arm_crash("archive.encode.pre_publish");
  EXPECT_THROW(cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512),
               fault::CrashError);
  size_t tmps = 0, finals = 0;
  for (const auto& e : fs::directory_iterator(dir_ / "arch"))
    (e.path().extension() == ".tmp" ? tmps : finals) += 1;
  EXPECT_EQ(tmps, 7u);  // k + l + g staged blocks
  EXPECT_EQ(finals, 0u);

  const auto swept = cli::recover_archive_dir(dir_ / "arch");
  EXPECT_EQ(swept.size(), 7u);
  EXPECT_TRUE(fs::is_empty(dir_ / "arch"));

  // The "process restart": the same encode now completes and round-trips.
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, input_);
}

TEST_F(ArchiveTest, CrashBeforeManifestRenameIsRecoverable) {
  const fs::path in = write_input(100000, 31);
  fault::FaultInjector injector(1);
  GlobalInjectorGuard guard(&injector);

  // All blocks published, but the crash hits between staging the MANIFEST
  // and renaming it into place: without a manifest the archive does not
  // exist yet — exactly the atomicity a torn multi-file publish needs.
  injector.arm_crash("archive.manifest.pre_rename");
  EXPECT_THROW(cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512),
               fault::CrashError);
  EXPECT_FALSE(fs::exists(dir_ / "arch" / "MANIFEST"));

  cli::recover_archive_dir(dir_ / "arch");
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, input_);
}

TEST_F(ArchiveTest, EncodeStageCrashesFailCleanly) {
  // A crash in ANY pipeline stage (reader thread, codec, writer thread)
  // must surface as CrashError on the driver — no deadlock on the bounded
  // queues, no torn archive after a sweep + retry.
  const fs::path in = write_input(100000, 37);
  for (const char* point : {"archive.encode.reader", "archive.encode.codec",
                            "archive.encode.writer"}) {
    fs::remove_all(dir_ / "arch");
    fault::FaultInjector injector(1);
    GlobalInjectorGuard guard(&injector);
    injector.arm_crash(point);
    EXPECT_THROW(
        cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 2, 512),
        fault::CrashError)
        << point;
    cli::recover_archive_dir(dir_ / "arch");
  }
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 2, 512);
  const auto decoded = cli::decode_archive(dir_ / "arch");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, input_);
}

TEST_F(ArchiveTest, DecodeAndRepairStageCrashesFailCleanly) {
  const fs::path in = write_input(100000, 41);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 2, 512);

  for (const char* point : {"archive.decode.reader", "archive.decode.codec",
                            "archive.decode.writer"}) {
    fault::FaultInjector injector(1);
    GlobalInjectorGuard guard(&injector);
    injector.arm_crash(point);
    EXPECT_THROW(cli::decode_archive_to(dir_ / "arch", dir_ / "out.bin", 2),
                 fault::CrashError)
        << point;
    fs::remove(dir_ / "out.bin");  // crash leaves debris by design
  }

  fs::remove(cli::block_path(dir_ / "arch", 1));
  for (const char* point : {"archive.repair.reader", "archive.repair.codec",
                            "archive.repair.writer"}) {
    fault::FaultInjector injector(1);
    GlobalInjectorGuard guard(&injector);
    injector.arm_crash(point);
    EXPECT_THROW(cli::repair_archive(dir_ / "arch", 1, 2), fault::CrashError)
        << point;
    EXPECT_FALSE(fs::exists(cli::block_path(dir_ / "arch", 1))) << point;
    cli::recover_archive_dir(dir_ / "arch");
  }

  // After the storm: repair the block for real, then a clean decode.
  ASSERT_TRUE(cli::repair_archive(dir_ / "arch", 1, 2).has_value());
  ASSERT_TRUE(cli::decode_archive_to(dir_ / "arch", dir_ / "out.bin", 2));
  EXPECT_EQ(read_back(dir_ / "out.bin"), input_);
}

TEST_F(ArchiveTest, PersistentReadFaultsRemovePartialDecodeOutput) {
  const fs::path in = write_input(100000, 43);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);

  // Every read fails past the retry budget: the decode surfaces
  // TransientError (the CLI's exit 4) and must NOT leave a partial output
  // file behind — that is the non-crash cleanup path.
  fault::FaultInjector injector(1);
  GlobalInjectorGuard guard(&injector);
  injector.set_read_failure_rate(1.0);
  EXPECT_THROW(cli::decode_archive_to(dir_ / "arch", dir_ / "out.bin"),
               fault::TransientError);
  EXPECT_FALSE(fs::exists(dir_ / "out.bin"));

  // A mild fault rate is absorbed by the per-read retries.
  injector.set_read_failure_rate(0.2);
  ASSERT_TRUE(cli::decode_archive_to(dir_ / "arch", dir_ / "out.bin"));
  EXPECT_EQ(read_back(dir_ / "out.bin"), input_);
}

// ---------- v2 tail-segment updates ----------

TEST_F(ArchiveTest, UpdateUnalignedTailClampAtSeveralChunks) {
  // The tail segment's chunk is ⌈remainder / num_chunks⌉, so unless that
  // divides the remainder the file's last byte sits mid-chunk and only the
  // EOF clamp makes the tail updatable: an update may end unaligned at
  // exactly original_bytes (bytes past it in the final chunk are zero by
  // construction, so the zero-padded rewrite is exact).
  const size_t file_bytes = 100000;
  for (const size_t chunk : {256u, 512u, 1024u}) {
    fs::remove_all(dir_ / "arch");
    const fs::path in = write_input(file_bytes, 47);
    const auto m =
        cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, chunk);
    const auto code = m.make_code();
    const auto segs =
        cli::archive_segments(m, code.engine().num_chunks(),
                              code.engine().stripes_per_block());
    ASSERT_GT(segs.size(), 1u) << "chunk " << chunk;  // multi-segment (v2)
    const cli::Segment tail = segs.back();
    const size_t tail_data = file_bytes - tail.file_offset;
    // The clamp must actually be exercised: EOF sits mid-chunk.
    ASSERT_NE(tail_data % tail.chunk, 0u) << "chunk " << chunk;

    Rng rng(48);
    Buffer expect = input_;
    const auto patch_to_eof = [&](size_t off) {
      const Buffer patch = random_buffer(file_bytes - off, rng);
      cli::update_archive(dir_ / "arch", off, patch);
      std::copy(patch.begin(), patch.end(),
                expect.begin() + static_cast<ptrdiff_t>(off));
    };
    // Shortest tail patch: from the last aligned offset inside the tail
    // segment to EOF (shorter than one tail chunk).
    patch_to_eof(tail.file_offset + (tail_data / tail.chunk) * tail.chunk);
    // Whole tail segment: starts aligned at the segment boundary.
    patch_to_eof(tail.file_offset);
    // Cross-boundary: from the last chunk of the PREVIOUS segment through
    // the clamped tail (alignment is per segment it touches).
    const cli::Segment prev = segs[segs.size() - 2];
    patch_to_eof(prev.file_offset + prev.data_len - prev.chunk);

    EXPECT_TRUE(cli::verify_archive(dir_ / "arch").clean())
        << "chunk " << chunk;
    const auto decoded = cli::decode_archive(dir_ / "arch");
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, expect) << "chunk " << chunk;
  }
}

TEST_F(ArchiveTest, UpdateUnalignedAwayFromEofStillRejected) {
  const fs::path in = write_input(100000, 49);
  cli::encode_archive(in, dir_ / "arch", 4, 2, 1, {}, 12, 1, 512);
  const Buffer patch(100, 0x77);  // unaligned length, ends well before EOF
  EXPECT_THROW(cli::update_archive(dir_ / "arch", 0, patch), CheckError);
  EXPECT_THROW(cli::update_archive(dir_ / "arch", 3, Buffer(512, 1)),
               CheckError);  // unaligned offset
  EXPECT_TRUE(cli::verify_archive(dir_ / "arch").clean());
}

// ---------- CLI exit codes (end to end) ----------

// Runs the installed `galloper` binary when the build tree provides it
// (ctest runs with CWD build/tests; the tool sits in ../tools). Skipped
// when the binary is elsewhere — the exception-type tests above still pin
// the error classification the exit codes are derived from.
int run_cli(const std::string& args) {
  const int status =
      std::system(("../tools/galloper " + args + " >/dev/null 2>&1").c_str());
  return WEXITSTATUS(status);
}

TEST_F(ArchiveTest, ExitCodesDistinguishUsageAndDataErrors) {
  if (!fs::exists("../tools/galloper"))
    GTEST_SKIP() << "galloper binary not reachable from test CWD";

  const fs::path in = write_input(60000, 53);
  ASSERT_EQ(run_cli("encode --chunk=512 " + in.string() + " " +
                    (dir_ / "arch").string()),
            0);
  // Unknown flag: usage error, exit 2 — a typo must not silently run with
  // defaults.
  EXPECT_EQ(run_cli("encode --chnk=512 " + in.string() + " " +
                    (dir_ / "arch2").string()),
            2);
  EXPECT_EQ(run_cli("soak --sed=1"), 2);

  // Rotten helper: repair detects the CRC mismatch on its rebuilt block
  // and exits 3 (distinct from generic failure 1).
  fs::remove(cli::block_path(dir_ / "arch", 2));
  const auto helpers = core::GalloperCode(4, 2, 1).repair_helpers(2);
  {
    std::fstream f(cli::block_path(dir_ / "arch", helpers[0]),
                   std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(0);
    f.write(&byte, 1);
  }
  EXPECT_EQ(run_cli("repair " + (dir_ / "arch").string() + " --block=2"), 3);
}

// Hostile MANIFEST edits on a valid (4,2,1) v1 archive of 300,000 bytes
// (capacity k·block_bytes = 300,020). Each must fail parsing with a
// CheckError naming the offending line, and decode must fail without
// leaving an output file behind — through the library and, when the binary
// is reachable, with CLI exit code 1 (verify too).
TEST_F(ArchiveTest, HostileManifestFailsCleanly) {
  const fs::path in = write_input(300000, 61);
  const fs::path arch = dir_ / "arch";
  cli::encode_archive(in, arch, 4, 2, 1);
  const fs::path manifest = arch / "MANIFEST";
  const Buffer raw = read_back(manifest);
  const std::string good(raw.begin(), raw.end());
  ASSERT_EQ(good.rfind("format=galloper-archive-v1\n", 0), 0u);

  const auto drop_first = [](const std::string& v) {
    return v.substr(v.find(',') + 1);
  };
  const struct {
    const char* key;
    std::function<std::string(const std::string&)> mutate;
  } mutations[] = {
      {"original_bytes", [](const std::string&) { return "999999999999"; }},
      {"k", [](const std::string&) { return "abc"; }},
      {"k", [](const std::string&) { return "4x"; }},
      {"k", [](const std::string&) { return "-1"; }},
      {"block_crcs", [](const std::string& v) { return "1" + v; }},
      {"weights", drop_first},
      {"weights", [](const std::string& v) { return "-" + v; }},
      {"block_crcs", drop_first},
  };
  const bool have_cli = fs::exists("../tools/galloper");
  const fs::path out = dir_ / "out.bin";
  for (const auto& m : mutations) {
    const std::string prefix = std::string(m.key) + "=";
    const size_t at = good.find("\n" + prefix) + 1;
    const size_t value_at = at + prefix.size();
    const size_t eol = good.find('\n', value_at);
    const std::string line =
        prefix + m.mutate(good.substr(value_at, eol - value_at));
    const std::string bad = good.substr(0, at) + line + good.substr(eol);
    SCOPED_TRACE(line);
    {
      std::ofstream f(manifest, std::ios::binary | std::ios::trunc);
      f << bad;
    }
    try {
      (void)cli::Manifest::parse(bad);
      ADD_FAILURE() << "parse accepted the mutated manifest";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("manifest line \"" + line + "\""),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(cli::decode_archive_to(arch, out), CheckError);
    EXPECT_FALSE(fs::exists(out));
    if (have_cli) {
      EXPECT_EQ(run_cli("decode " + arch.string() + " " + out.string()), 1);
      EXPECT_FALSE(fs::exists(out));
      EXPECT_EQ(run_cli("verify " + arch.string()), 1);
    }
  }

  // The untouched manifest still decodes to the input exactly.
  {
    std::ofstream f(manifest, std::ios::binary | std::ios::trunc);
    f << good;
  }
  ASSERT_TRUE(cli::decode_archive_to(arch, out));
  EXPECT_EQ(read_back(out), input_);
}

}  // namespace
}  // namespace galloper
