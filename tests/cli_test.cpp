// anafaultc end to end: the command-line tool runs the same campaign as
// the library, rejects malformed flag values with exit status 2 instead of
// silently parsing them as 0, and forwards every campaign-shaping flag to
// its fabric workers.
//
// The test writes the OTA buffer's deck and its LIFT fault list to a
// temporary directory and runs the anafaultc binary built next to it
// (CLI_TEST_ANAFAULTC, set by CMake).

#include "anafault/campaign.h"
#include "anafault/report.h"
#include "batch/result_store.h"
#include "circuits/ota.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "netlist/parser.h"
#include "netlist/writer.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#ifndef CLI_TEST_ANAFAULTC
#error "CLI_TEST_ANAFAULTC must name the anafaultc binary"
#endif

using namespace catlift;
namespace fs = std::filesystem;

namespace {

struct CliRun {
    int status = -1;  ///< exit status, -1 when not a normal exit
    std::string out;  ///< stdout
    std::string err;  ///< stderr
};

std::string slurp(const fs::path& p) {
    std::ifstream f(p);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

std::string quoted(const std::string& s) { return "'" + s + "'"; }

/// Drops the "kernel time:" line, the only wall-clock figure in
/// campaign_summary().
std::string without_timing(const std::string& summary) {
    std::istringstream in(summary);
    std::string line, kept;
    while (std::getline(in, line))
        if (line.rfind("kernel time:", 0) != 0) kept += line + "\n";
    return kept;
}

class CliTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        dir_ = new fs::path(fs::temp_directory_path() /
                            ("catlift_cli_" + std::to_string(::getpid())));
        fs::create_directories(*dir_);
        netlist::write_spice_file(deck(), circuits::build_ota());

        circuits::OtaOptions dev_opt;
        dev_opt.with_sources = false;
        const layout::Layout lo =
            layout::generate_cell_layout(circuits::build_ota(dev_opt));
        lift::LiftOptions lopt;
        lopt.net_blocks = circuits::ota_net_blocks();
        std::ofstream f(faults_file());
        lift::write_faultlist(
            f, lift::extract_faults(
                   lo, layout::Technology::single_poly_double_metal(), lopt)
                   .faults);
    }

    static void TearDownTestSuite() {
        std::error_code ec;
        fs::remove_all(*dir_, ec);
        delete dir_;
        dir_ = nullptr;
    }

    static std::string deck() { return (*dir_ / "ota.sp").string(); }
    static std::string faults_file() { return (*dir_ / "ota.flt").string(); }
    static std::string path(const std::string& name) {
        return (*dir_ / name).string();
    }

    /// The deck and fault list exactly as anafaultc reads them back.
    static netlist::Circuit circuit() {
        return netlist::parse_spice_file(deck());
    }
    static lift::FaultList faults() {
        std::ifstream f(faults_file());
        return lift::read_faultlist(f);
    }

    /// Runs `anafaultc <deck> <faults> <args>`.
    static CliRun anafaultc(const std::vector<std::string>& args) {
        std::string cmd = quoted(CLI_TEST_ANAFAULTC) + " " +
                          quoted(deck()) + " " + quoted(faults_file());
        for (const std::string& a : args) {
            cmd += ' ';
            cmd += quoted(a);
        }
        const std::string out = path("stdout.txt");
        const std::string err = path("stderr.txt");
        cmd += " > " + quoted(out) + " 2> " + quoted(err);
        CliRun r;
        const int ws = std::system(cmd.c_str());
        if (ws != -1 && WIFEXITED(ws)) r.status = WEXITSTATUS(ws);
        r.out = slurp(out);
        r.err = slurp(err);
        return r;
    }

    static anafault::CampaignOptions options() {
        anafault::CampaignOptions opt;
        opt.detection.observed = {circuits::kOtaOutput};
        opt.detection.v_tol = 0.4;
        return opt;
    }

    static fs::path* dir_;
};

fs::path* CliTest::dir_ = nullptr;

} // namespace

TEST_F(CliTest, DefaultRunPrintsTheLibrarySummary) {
    const CliRun r = anafaultc({"--v-tol", "0.4"});
    ASSERT_EQ(r.status, 0) << r.err;
    const anafault::CampaignResult lib =
        anafault::run_campaign(circuit(), faults(), options());
    EXPECT_EQ(without_timing(r.out),
              without_timing(anafault::campaign_summary(lib)));
}

TEST_F(CliTest, MalformedOrOutOfRangeValuesExit2) {
    const std::vector<std::vector<std::string>> bad = {
        {"--v-tol", "abc"},
        {"--v-tol", "0.4x"},
        {"--v-tol", ""},
        {"--threads", "-1"},
        {"--threads", "2.5"},
        {"--nr-budget", "-1"},
        {"--step-budget", "1e3"},
        {"--max-retries", "-1"},
        {"--lte-tol", "0"},
        {"--t-tol", "nan"},
        {"--workers", "0"},
        {"--ordering", "amd"},  // removed: AMD is the only ordering
        {"--no-early-abort"},   // removed: early abort always runs
        {"--no-collapse"},      // removed: collapsing always runs
        {"--worker", "--store", path("w.store"), "--fault-range", "a:b"},
        {"--worker", "--store", path("w.store"), "--fault-range", "5"},
    };
    for (const auto& args : bad) {
        const CliRun r = anafaultc(args);
        std::string shown;
        for (const std::string& a : args) shown += a + " ";
        EXPECT_EQ(r.status, 2) << shown << "\n" << r.out << r.err;
        EXPECT_EQ(r.out, "") << shown;
    }
}

TEST_F(CliTest, BadValueNamesTheFlag) {
    // Whatever the command line cannot take, the first line of stderr
    // names it.
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        bad = {
            {{"--v-tol", "abc"}, "anafaultc: --v-tol needs"},
            {{"--no-collapse"}, "anafaultc: unknown option --no-collapse\n"},
            {{"--v-tol"}, "anafaultc: --v-tol needs a value\n"},
            {{"x"}, "anafaultc: unexpected argument x\n"},
        };
    for (const auto& [args, first_line] : bad) {
        const CliRun r = anafaultc(args);
        EXPECT_EQ(r.status, 2) << first_line;
        EXPECT_EQ(r.err.rfind(first_line, 0), 0u) << r.err;
    }
}

TEST_F(CliTest, FabricWorkersGetTheCampaignFlags) {
    const std::string store = path("fabric.store");
    const CliRun r = anafaultc({"--v-tol", "0.4", "--workers", "2",
                                "--store", store, "--no-share-symbolic",
                                "--max-retries", "1"});
    ASSERT_EQ(r.status, 0) << r.err;
    anafault::CampaignOptions opt = options();
    opt.share_symbolic = false;
    opt.max_retries = 1;
    const auto snap = batch::load_store(store);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->manifest,
              anafault::campaign_manifest(circuit(), faults(), opt));
    // Not vacuous: the forwarded flags moved the manifest off the default
    // campaign's.
    EXPECT_NE(snap->manifest,
              anafault::campaign_manifest(circuit(), faults(), options()));
    EXPECT_EQ(snap->records.size(), faults().size());
}

TEST_F(CliTest, ResumeOfAFinishedStoreLoadsTheNominal) {
    const std::string store = path("finished.store");
    const CliRun cold = anafaultc({"--v-tol", "0.4", "--store", store,
                                   "--table"});
    ASSERT_EQ(cold.status, 0) << cold.err;

    // Any Newton solve would now throw: the resume must take the nominal
    // and every verdict from the store.
    const CliRun warm =
        anafaultc({"--v-tol", "0.4", "--store", store, "--resume", "--table",
                   "--failpoints", "kernel.newton=error@1"});
    ASSERT_EQ(warm.status, 0) << warm.err;
    const auto table = [](const std::string& out) {
        const std::size_t at = out.find("  id  fault");
        return at == std::string::npos ? std::string() : out.substr(at);
    };
    ASSERT_FALSE(table(cold.out).empty()) << cold.out;
    EXPECT_EQ(table(warm.out), table(cold.out));
    EXPECT_NE(warm.out.find("nominal loaded from store"), std::string::npos)
        << warm.out;
    EXPECT_EQ(cold.out.find("nominal loaded from store"), std::string::npos)
        << cold.out;
}

TEST_F(CliTest, IncrementalRunCarriesTheBaselineAndItsNominal) {
    const std::string base = path("incr_base.store");
    ASSERT_EQ(anafaultc({"--v-tol", "0.4", "--store", base}).status, 0);

    // The same list against its own store: every verdict carries and the
    // nominal is the baseline's, merged store or not.
    const CliRun r = anafaultc({"--v-tol", "0.4", "--baseline-store", base,
                                "--baseline-faults", faults_file()});
    ASSERT_EQ(r.status, 0) << r.err;
    const std::string all = std::to_string(faults().size());
    EXPECT_NE(r.out.find("carried " + all + "/" + all), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("nominal loaded from store"), std::string::npos)
        << r.out;

    // The merged store identifies as the revision's own campaign.
    const std::string merged = path("incr_merged.store");
    const CliRun m = anafaultc({"--v-tol", "0.4", "--baseline-store", base,
                                "--baseline-faults", faults_file(),
                                "--store", merged});
    ASSERT_EQ(m.status, 0) << m.err;
    const auto snap = batch::load_store(merged);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->manifest,
              anafault::campaign_manifest(circuit(), faults(), options()));
    EXPECT_EQ(snap->records.size(), faults().size());
}
