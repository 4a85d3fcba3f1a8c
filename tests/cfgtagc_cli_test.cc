// End-to-end CLI tests for cfgtagc: argument validation (strict --threads,
// --bytes-per-cycle and --replicate parsing), software vs cycle-accurate
// tagging, and the artifact flags. The binary path comes in through the
// CFGTAGC_BINARY compile definition; each case invokes the real tool.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef CFGTAGC_BINARY
#error "CFGTAGC_BINARY must be defined by the build"
#endif

namespace {

// Unique per test case: ctest runs the discovered cases of this binary as
// independent processes, possibly in parallel (-j), so a fixed temp path
// would race between them (one case's RunTool clobbering another's
// grammar/input/capture file mid-read).
std::string TempPath(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  const std::string test = info ? info->name() : "unknown";
  return testing::TempDir() + "/cfgtagc_cli_" + test + "_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// Runs the tool with `args`, returns its exit code; stdout+stderr go to
// `capture_path` (always captured so failures print something useful).
int RunTool(const std::string& args, const std::string& capture_path) {
  const std::string cmd = std::string(CFGTAGC_BINARY) + " " + args + " > " +
                          capture_path + " 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WEXITSTATUS(rc);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CfgtagcCliTest : public testing::Test {
 protected:
  void SetUp() override {
    grammar_ = TempPath("grammar.y");
    input_ = TempPath("input.txt");
    out_ = TempPath("out.txt");
    WriteFile(grammar_,
              "NUM [0-9]+\nWORD [a-z]+\n%%\ns: NUM WORD;\n%%\n");
    WriteFile(input_, "123 abc\n456 def\n");
  }

  std::string grammar_, input_, out_;
};

TEST_F(CfgtagcCliTest, TagsWithLazyDfaEngine) {
  ASSERT_EQ(RunTool(grammar_ + " --tag " + input_, out_), 0) << Slurp(out_);
  const std::string output = Slurp(out_);
  EXPECT_NE(output.find("lazy-dfa engine"), std::string::npos) << output;
  EXPECT_NE(output.find("NUM"), std::string::npos) << output;
  // A tag-only run never generates the netlist.
  EXPECT_EQ(output.find("netlist:"), std::string::npos) << output;
}

TEST_F(CfgtagcCliTest, CycleAccurateTagsIdentically) {
  ASSERT_EQ(RunTool(grammar_ + " --tag " + input_, out_), 0) << Slurp(out_);
  const std::string software = Slurp(out_);
  ASSERT_EQ(RunTool(grammar_ + " --cycle-accurate --tag " + input_, out_), 0)
      << Slurp(out_);
  const std::string hardware = Slurp(out_);
  EXPECT_NE(hardware.find("cycle-accurate engine"), std::string::npos)
      << hardware;
  EXPECT_NE(hardware.find("netlist:"), std::string::npos) << hardware;
  // Identical tag lines: everything after the "N tags from" banner.
  const auto tags_of = [](const std::string& s) {
    const size_t at = s.find(" tags from ");
    return s.substr(s.find(":", at));
  };
  EXPECT_EQ(tags_of(software), tags_of(hardware));
}

TEST_F(CfgtagcCliTest, EqualsSyntaxAndMode) {
  EXPECT_EQ(RunTool(grammar_ + " --mode=resync --bytes-per-cycle=2 --tag " +
                        input_,
                    out_),
            0)
      << Slurp(out_);
  EXPECT_EQ(RunTool(grammar_ + " --mode=scan --replicate=4 --report --tag " +
                        input_,
                    out_),
            0)
      << Slurp(out_);
}

TEST_F(CfgtagcCliTest, EngineSwitchIsAnUnknownFlag) {
  // There is one engine, so the old engine-selection flag is gone.
  const std::string flag = "--" "backend";
  EXPECT_EQ(RunTool(grammar_ + " " + flag + " lazy --tag " + input_, out_),
            2);
  EXPECT_NE(Slurp(out_).find("unknown option: " + flag), std::string::npos)
      << Slurp(out_);
}

TEST_F(CfgtagcCliTest, RejectsBadHardwareFlags) {
  // Checked up front even on tag-only runs, which never build the netlist
  // that would otherwise reject them.
  for (const char* bad : {"0", "3", "8", "-1", "abc", "2x", ""}) {
    EXPECT_EQ(RunTool(grammar_ + " --bytes-per-cycle \"" + bad + "\" --tag " +
                          input_,
                      out_),
              2)
        << "--bytes-per-cycle " << bad << " accepted: " << Slurp(out_);
    EXPECT_NE(Slurp(out_).find("--bytes-per-cycle must be 1, 2 or 4"),
              std::string::npos)
        << Slurp(out_);
  }
  for (const char* bad : {"0", "-1", "abc", "5x", ""}) {
    EXPECT_EQ(RunTool(grammar_ + " --replicate \"" + bad + "\" --tag " +
                          input_,
                      out_),
              2)
        << "--replicate " << bad << " accepted: " << Slurp(out_);
    EXPECT_NE(Slurp(out_).find("--replicate needs a positive threshold"),
              std::string::npos)
        << Slurp(out_);
  }
}

TEST_F(CfgtagcCliTest, ThreadsAcceptsPositiveCounts) {
  EXPECT_EQ(RunTool(grammar_ + " --mode resync --threads 2 --tag " + input_,
                    out_),
            0)
      << Slurp(out_);
  EXPECT_EQ(RunTool(grammar_ + " --mode resync --threads=4 --tag " + input_,
                    out_),
            0)
      << Slurp(out_);
}

TEST_F(CfgtagcCliTest, RejectsBadThreadCounts) {
  for (const char* bad : {"0", "-3", "abc", "12abc", "", "2.5",
                          "99999999999999999999"}) {
    EXPECT_EQ(RunTool(grammar_ + " --threads \"" + bad + "\" --tag " +
                          input_,
                      out_),
              2)
        << "--threads " << bad << " accepted: " << Slurp(out_);
    EXPECT_NE(Slurp(out_).find("--threads needs a positive count"),
              std::string::npos)
        << Slurp(out_);
  }
}

TEST_F(CfgtagcCliTest, StatsAttributionAndFlightRecorderFlags) {
  const std::string fr = TempPath("fr_ok.json");
  std::remove(fr.c_str());
  ASSERT_EQ(RunTool(grammar_ + " --stats-port=0 --attribution "
                    "--flight-recorder-out " + fr + " --tag " + input_,
                    out_),
            0)
      << Slurp(out_);
  const std::string output = Slurp(out_);
  // The server bound an ephemeral port and announced its endpoints.
  EXPECT_NE(output.find("stats server on http://127.0.0.1:"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("/metrics"), std::string::npos) << output;
  // The flight-recorder dump was written on exit and is parseable shape.
  const std::string dump = Slurp(fr);
  EXPECT_NE(dump.find("\"recorded\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"events\""), std::string::npos) << dump;
  std::remove(fr.c_str());
}

TEST_F(CfgtagcCliTest, RejectsBadStatsPorts) {
  for (const char* bad : {"65536", "-2", "abc", "1.5", "12abc", ""}) {
    EXPECT_EQ(RunTool(grammar_ + " --stats-port \"" + bad + "\" --tag " +
                          input_,
                      out_),
              2)
        << "--stats-port " << bad << " accepted: " << Slurp(out_);
    EXPECT_NE(Slurp(out_).find("--stats-port"), std::string::npos)
        << Slurp(out_);
  }
}

TEST_F(CfgtagcCliTest, RejectsUnwritableFlightRecorderPath) {
  // The dump path is validated up front like --threads/--stats-port: a
  // path that can only fail at exit (or inside the signal handler) would
  // silently lose the recording.
  const std::string bad = TempPath("no_such_dir") + "/sub/fr.json";
  EXPECT_EQ(RunTool(grammar_ + " --flight-recorder-out " + bad + " --tag " +
                        input_,
                    out_),
            2)
      << Slurp(out_);
  EXPECT_NE(Slurp(out_).find("--flight-recorder-out needs a writable path"),
            std::string::npos)
      << Slurp(out_);
  // An empty value is a usage error too.
  EXPECT_EQ(RunTool(grammar_ + " --flight-recorder-out \"\" --tag " + input_,
                    out_),
            2)
      << Slurp(out_);
  // The probe must not clobber an existing dump: probing opens for append.
  const std::string existing = TempPath("fr_existing.json");
  WriteFile(existing, "precious");
  EXPECT_EQ(RunTool(grammar_ + " --flight-recorder-out " + existing +
                        " --mode turbo",  // fails after validation
                    out_),
            2);
  EXPECT_EQ(Slurp(existing), "precious");
  std::remove(existing.c_str());
}

TEST_F(CfgtagcCliTest, SaveThenLoadArtifactTagsIdentically) {
  const std::string art = TempPath("tagger.cfgtag");
  std::remove(art.c_str());
  ASSERT_EQ(RunTool(grammar_ + " --save-artifact " + art + " --tag " + input_,
                    out_),
            0)
      << Slurp(out_);
  const std::string direct = Slurp(out_);
  EXPECT_NE(direct.find("wrote "), std::string::npos) << direct;
  EXPECT_NE(direct.find("-byte artifact to "), std::string::npos) << direct;

  // With --load-artifact the grammar positional becomes the input to tag.
  ASSERT_EQ(RunTool("--load-artifact " + art + " " + input_, out_), 0)
      << Slurp(out_);
  const std::string loaded = Slurp(out_);
  EXPECT_NE(loaded.find("from artifact"), std::string::npos) << loaded;
  EXPECT_NE(loaded.find("software engine loaded from artifact (no netlist)"),
            std::string::npos)
      << loaded;
  const auto tags_of = [](const std::string& s) {
    const size_t at = s.find(" tags from ");
    return s.substr(s.find(":", at));
  };
  EXPECT_EQ(tags_of(direct), tags_of(loaded));
  std::remove(art.c_str());
}

TEST_F(CfgtagcCliTest, CacheDirMissesThenHits) {
  const std::string dir = TempPath("cache");
  const std::string cmd = "mkdir -p '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  ASSERT_EQ(RunTool(grammar_ + " --cache-dir " + dir + " --tag " + input_,
                    out_),
            0)
      << Slurp(out_);
  const std::string miss = Slurp(out_);
  // The miss compiled for real.
  EXPECT_NE(miss.find("lazy-dfa engine"), std::string::npos) << miss;
  EXPECT_EQ(miss.find("loaded from artifact"), std::string::npos) << miss;

  ASSERT_EQ(RunTool(grammar_ + " --cache-dir " + dir + " --tag " + input_,
                    out_),
            0)
      << Slurp(out_);
  const std::string hit = Slurp(out_);
  EXPECT_NE(hit.find("software engine loaded from artifact (no netlist)"),
            std::string::npos)
      << hit;
  const auto tags_of = [](const std::string& s) {
    const size_t at = s.find(" tags from ");
    return s.substr(s.find(":", at));
  };
  EXPECT_EQ(tags_of(miss), tags_of(hit));

  const std::string rm = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(rm.c_str()), 0);
}

TEST_F(CfgtagcCliTest, RejectsUnusableArtifactPaths) {
  // --save-artifact into a missing directory: probed up front, exit 2.
  const std::string bad_out = TempPath("no_such_dir") + "/sub/t.cfgtag";
  EXPECT_EQ(RunTool(grammar_ + " --save-artifact " + bad_out + " --tag " +
                        input_,
                    out_),
            2)
      << Slurp(out_);
  EXPECT_NE(Slurp(out_).find("--save-artifact needs a writable path"),
            std::string::npos)
      << Slurp(out_);

  // --load-artifact with a missing file: probed up front, exit 2.
  const std::string missing = TempPath("missing.cfgtag");
  std::remove(missing.c_str());
  EXPECT_EQ(RunTool("--load-artifact " + missing + " " + input_, out_), 2)
      << Slurp(out_);
  EXPECT_NE(Slurp(out_).find("--load-artifact needs a readable artifact"),
            std::string::npos)
      << Slurp(out_);

  // --cache-dir that does not exist: probed up front, exit 2.
  const std::string bad_dir = TempPath("no_such_cache_dir");
  EXPECT_EQ(RunTool(grammar_ + " --cache-dir " + bad_dir + " --tag " + input_,
                    out_),
            2)
      << Slurp(out_);
  EXPECT_NE(Slurp(out_).find("--cache-dir needs a writable directory"),
            std::string::npos)
      << Slurp(out_);

  // Empty values are usage errors for all three.
  EXPECT_EQ(RunTool(grammar_ + " --save-artifact \"\" --tag " + input_, out_),
            2);
  EXPECT_EQ(RunTool(grammar_ + " --load-artifact \"\" " + input_, out_), 2);
  EXPECT_EQ(RunTool(grammar_ + " --cache-dir \"\" --tag " + input_, out_), 2);
}

TEST_F(CfgtagcCliTest, LoadArtifactRejectsHardwareAndAnalysisOutputs) {
  const std::string art = TempPath("tagger.cfgtag");
  std::remove(art.c_str());
  ASSERT_EQ(RunTool(grammar_ + " --save-artifact " + art + " --tag " + input_,
                    out_),
            0)
      << Slurp(out_);

  // Artifacts carry no netlist: every hardware output is a usage error.
  EXPECT_EQ(RunTool("--load-artifact " + art + " --report " + input_, out_),
            2);
  EXPECT_NE(Slurp(out_).find("software engine only"), std::string::npos)
      << Slurp(out_);
  EXPECT_EQ(RunTool("--load-artifact " + art + " --vhdl " +
                        TempPath("t.vhd") + " " + input_,
                    out_),
            2);

  // Analysis and lint need the grammar source.
  EXPECT_EQ(RunTool("--load-artifact " + art + " --analysis " + input_, out_),
            2);
  EXPECT_NE(Slurp(out_).find("need the grammar source"), std::string::npos)
      << Slurp(out_);

  // A corrupt artifact fails with a status error (exit 1, not a crash).
  const std::string corrupt = TempPath("corrupt.cfgtag");
  WriteFile(corrupt, "CFGTAGAF but not really an artifact");
  EXPECT_EQ(RunTool("--load-artifact " + corrupt + " " + input_, out_), 1)
      << Slurp(out_);
  EXPECT_NE(Slurp(out_).find("artifact"), std::string::npos) << Slurp(out_);
  std::remove(corrupt.c_str());
  std::remove(art.c_str());
}

TEST_F(CfgtagcCliTest, FlightRecorderDumpCarriesStatusFailures) {
  const std::string bad_grammar = TempPath("bad_grammar.y");
  const std::string fr = TempPath("fr_fail.json");
  WriteFile(bad_grammar, "NUM [0-9]+\n");  // no definitions section
  std::remove(fr.c_str());
  EXPECT_EQ(RunTool(bad_grammar + " --flight-recorder-out " + fr + " --tag " +
                        input_,
                    out_),
            1)
      << Slurp(out_);
  EXPECT_NE(Slurp(out_).find("grammar error:"), std::string::npos)
      << Slurp(out_);
  // The failure that ended the run is in the dump.
  const std::string dump = Slurp(fr);
  EXPECT_NE(dump.find("status_error"), std::string::npos) << dump;
  EXPECT_NE(dump.find("grammar"), std::string::npos) << dump;
  std::remove(fr.c_str());
  std::remove(bad_grammar.c_str());
}

}  // namespace
