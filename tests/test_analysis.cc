/**
 * @file
 * Tests for per-instruction root-cause attribution (src/analysis/ and
 * its SamplingConfig::attribution plumbing — docs/ANALYSIS.md):
 *
 *  - the RV32I(+M) disassembler used for attribution labels
 *    (round-tripped through the repo's own assembler, so the two can
 *    never drift on operand syntax);
 *  - the attr/attrtab journal grammar: outcome and result sections
 *    round-trip bit-exactly, percent-encoded mnemonics survive spaces
 *    and empty strings, damage is rejected, and unknown trailing
 *    tokens are left for the caller (the worker-reply rusage suffix);
 *  - the shard/query spec grammar: the trailing "attr" token
 *    round-trips, attribution-off text is byte-identical to the
 *    pre-flag grammar (the store-key stability guarantee), and junk
 *    after the token is rejected;
 *  - engine-level identity on a real IbexMini workspace: the
 *    attribution table is bit-identical across thread counts, enabling
 *    attribution does not perturb any non-attribution counter, and an
 *    interrupted --attribution campaign resumed at a different thread
 *    count reproduces the uninterrupted journal, CSV, and attribution
 *    CSV byte-for-byte (both interruption directions).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/analysis/disasm.hh"
#include "src/campaign/campaign.hh"
#include "src/campaign/checkpoint.hh"
#include "src/core/report.hh"
#include "src/core/shard.hh"
#include "src/core/vulnerability.hh"
#include "src/isa/assembler.hh"
#include "src/service/protocol.hh"
#include "src/service/result_store.hh"
#include "src/service/workspace.hh"

namespace davf {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_test_"
        + std::to_string(::getpid()) + "_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(file)) << path;
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------- disasm

TEST(Disasm, RoundTripsThroughTheAssembler)
{
    // Assemble canonical text and expect the disassembler to
    // reproduce it verbatim — operand order, the mem-operand
    // "offset(base)" form, and signed branch/jump byte offsets.
    const std::vector<std::string> lines = {
        "lw x1, 8(x2)",        "addi x5, x0, 42",
        "add x3, x1, x5",      "sub x3, x3, x1",
        "sw x3, 12(x2)",       "slli x6, x5, 3",
        "srai x6, x6, 1",      "mul x7, x5, x6",
        "andi x8, x7, 255",    "xor x9, x8, x7",
    };
    std::string source;
    for (const std::string &line : lines)
        source += line + "\n";
    const std::vector<uint32_t> image = assemble(source);
    ASSERT_EQ(image.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(analysis::disassemble(image[i]), lines[i]) << i;
}

TEST(Disasm, BranchesAndJumpsUseSignedByteOffsets)
{
    const std::vector<uint32_t> image = assemble("top:\n"
                                                 "  addi x5, x5, -1\n"
                                                 "  beq x5, x0, top\n"
                                                 "  jal x1, top\n");
    ASSERT_EQ(image.size(), 3u);
    EXPECT_EQ(analysis::disassemble(image[0]), "addi x5, x5, -1");
    EXPECT_EQ(analysis::disassemble(image[1]), "beq x5, x0, -4");
    EXPECT_EQ(analysis::disassemble(image[2]), "jal x1, -8");
}

TEST(Disasm, UnknownWordsRenderAsData)
{
    // The table must stay total over whatever the image holds.
    EXPECT_EQ(analysis::disassemble(0xffffffffu), ".word 0xffffffff");
    EXPECT_EQ(analysis::disassemble(0u), ".word 0x00000000");
    EXPECT_EQ(analysis::disassemble(0x00000073u), "ecall");
    // M-extension division (not in the assembler's source dialect).
    EXPECT_EQ(analysis::disassemble(0x025353b3u), "divu x7, x6, x5");
}

// ---------------------------------------------- attr journal grammar

InjectionCycleOutcome
outcomeWithAttr()
{
    InjectionCycleOutcome out;
    out.cycle = 17;
    out.injections = 40;
    out.errorInjections = 9;
    out.delayAce = 3;
    out.sdc = 2;
    out.due = 1;
    out.uniqueGroupSims = 9;
    out.wireDyn = {1, 0, 1};
    out.wireAce = {1, 0, 0};
    out.attr.valid = true;
    out.attr.pc = 0x40;
    out.attr.mnemonic = "lw x1, 8(x2)";
    out.attr.events = {{0x44, "addi x5, x0, 42", "x5", 2},
                       {0x48, "sw x3, 12(x2)", "mem", 1}};
    return out;
}

TEST(AttrGrammar, OutcomeSectionRoundTripsBitExactly)
{
    const InjectionCycleOutcome out = outcomeWithAttr();
    const std::string text = serializeOutcomeFields(out);
    EXPECT_NE(text.find(" attr "), std::string::npos) << text;

    std::istringstream is(text);
    InjectionCycleOutcome back;
    ASSERT_TRUE(parseOutcomeFields(is, back)) << text;
    EXPECT_EQ(back, out);

    // Attribution off: the section is absent and the bytes match the
    // pre-flag grammar, so old journals parse and old resumes match.
    InjectionCycleOutcome plain = out;
    plain.attr = CycleAttribution{};
    const std::string plain_text = serializeOutcomeFields(plain);
    EXPECT_EQ(plain_text.find("attr"), std::string::npos);
    EXPECT_EQ(text.rfind(plain_text, 0), 0u)
        << "attr must extend the line, not reshape it";
}

TEST(AttrGrammar, MnemonicsSurvivePercentEncoding)
{
    InjectionCycleOutcome out = outcomeWithAttr();
    out.attr.mnemonic = ""; // encoded as the lone "%" sentinel
    out.attr.events = {{0, "%weird 100% text%", "x1", 1},
                       {4, ".word 0xdeadbeef", "uarch", 2}};
    const std::string text = serializeOutcomeFields(out);
    EXPECT_EQ(text.find('\n'), std::string::npos) << text;

    std::istringstream is(text);
    InjectionCycleOutcome back;
    ASSERT_TRUE(parseOutcomeFields(is, back)) << text;
    EXPECT_EQ(back, out);
}

TEST(AttrGrammar, DamagedSectionsAreRejected)
{
    const std::string text = serializeOutcomeFields(outcomeWithAttr());
    // Truncations inside the attr section must never yield a
    // *different* attribution than the intact bytes: either the parse
    // fails, or it returns the full outcome, or — when the cut makes
    // the tail an unknown token the parser leaves for its caller —
    // the attribution-free outcome (the caller's trailing-token check
    // then rejects the leftover, as the scheduler and journal do).
    InjectionCycleOutcome plain = outcomeWithAttr();
    plain.attr = CycleAttribution{};
    const size_t attr_at = text.find(" attr ");
    ASSERT_NE(attr_at, std::string::npos);
    for (size_t len = attr_at + 1; len < text.size(); ++len) {
        std::istringstream is(text.substr(0, len));
        InjectionCycleOutcome torn;
        if (parseOutcomeFields(is, torn)) {
            EXPECT_TRUE(torn == outcomeWithAttr() || torn == plain)
                << len;
        }
    }
    // A non-numeric event count is damage.
    std::string garbled = text;
    garbled.replace(garbled.find(" attr ") + 6, 0, "x");
    std::istringstream is(garbled);
    InjectionCycleOutcome out;
    EXPECT_FALSE(parseOutcomeFields(is, out));
}

TEST(AttrGrammar, UnknownTailIsLeftForTheCaller)
{
    // The process-isolation worker reply appends a rusage suffix after
    // the outcome fields; the outcome parser must leave it unread
    // (with and without an attr section) for the supervisor to parse.
    for (const bool with_attr : {false, true}) {
        InjectionCycleOutcome out = outcomeWithAttr();
        if (!with_attr)
            out.attr = CycleAttribution{};
        std::istringstream is(serializeOutcomeFields(out)
                              + " rss 1234 0.5 0.25");
        InjectionCycleOutcome back;
        ASSERT_TRUE(parseOutcomeFields(is, back)) << with_attr;
        EXPECT_EQ(back, out);
        std::string tag;
        ASSERT_TRUE(static_cast<bool>(is >> tag)) << with_attr;
        EXPECT_EQ(tag, "rss");
    }
}

// ---------------------------------------------------- spec grammar

TEST(AttrGrammar, ShardSpecAttrTokenRoundTrips)
{
    ShardSpec spec;
    spec.structure = "ALU";
    spec.delayFraction = 0.5;
    spec.cycle = 9;
    spec.sampling.maxInjectionCycles = 4;
    spec.sampling.maxWires = 60;

    const std::string off = serializeShardSpec(spec);
    EXPECT_EQ(off.find("attr"), std::string::npos);

    spec.sampling.attribution = true;
    const std::string on = serializeShardSpec(spec);
    // Append-only extension: the attribution-off text (= the store
    // key) is byte-identical to the pre-flag grammar.
    EXPECT_EQ(on, off + " attr");

    const Result<ShardSpec> back = parseShardSpec(on);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_TRUE(back.value().sampling.attribution);
    EXPECT_EQ(serializeShardSpec(back.value()), on);

    const Result<ShardSpec> plain = parseShardSpec(off);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().sampling.attribution);

    EXPECT_FALSE(parseShardSpec(on + " junk").ok());
    EXPECT_FALSE(parseShardSpec(off + " junk").ok());
}

TEST(AttrGrammar, QuerySpecAttrTokenRoundTrips)
{
    service::QuerySpec query;
    query.structure = "ALU";
    query.delays = {0.5, 0.7};
    query.sampling.maxInjectionCycles = 4;

    const std::string off = service::serializeQuerySpec(query);
    EXPECT_EQ(off.find("attr"), std::string::npos);

    query.sampling.attribution = true;
    const std::string on = service::serializeQuerySpec(query);
    EXPECT_EQ(on, off + " attr");

    const auto back = service::parseQuerySpec(on);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_TRUE(back.value().sampling.attribution);
    EXPECT_EQ(service::serializeQuerySpec(back.value()), on);

    const auto plain = service::parseQuerySpec(off);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().sampling.attribution);

    EXPECT_FALSE(service::parseQuerySpec(on + " junk").ok());
}

TEST(AttrGrammar, ConfigHashSeparatesAttributionCampaigns)
{
    // Attribution changes what a campaign computes, so it must fence
    // resume compatibility — but the attribution-off hash has to match
    // pre-flag journals, which is why the token is append-only.
    CampaignOptions options;
    options.benchmark = "popcount";
    options.structures = {"ALU"};
    options.delays = {0.5};
    const std::string off = campaignConfigHash(options);
    options.sampling.attribution = true;
    const std::string on = campaignConfigHash(options);
    EXPECT_NE(on, off);
    options.sampling.attribution = false;
    EXPECT_EQ(campaignConfigHash(options), off);
}

// ------------------------------------------------- engine identity

/** One shared IbexMini workspace (built once; popcount is the
 *  smallest benchmark with a non-trivial instruction mix). */
service::Workspace &
workspace()
{
    static service::Workspace *ws = [] {
        service::WorkspaceSpec spec;
        spec.benchmark = "popcount";
        return new service::Workspace(spec);
    }();
    return *ws;
}

SamplingConfig
smallSampling()
{
    SamplingConfig config;
    config.maxInjectionCycles = 3;
    config.maxWires = 40;
    config.maxFlops = 16;
    config.seed = 1;
    config.attribution = true;
    return config;
}

/** Bit-exact comparable text form of a full DelayAVF result (the
 *  journal cell grammar serializes doubles as hexfloats). */
std::string
resultText(const DelayAvfResult &result)
{
    Checkpoint checkpoint;
    checkpoint.configHash = "test";
    CheckpointCell cell;
    cell.key = {"davf", "popcount", "ALU", canonicalDelay(0.5)};
    cell.davf = result;
    checkpoint.cells.push_back(cell);
    return serializeCheckpoint(checkpoint);
}

TEST(AttrEngine, TableIsBitIdenticalAcrossThreadCounts)
{
    service::Workspace &ws = workspace();
    const Structure &alu = ws.structure("ALU");

    SamplingConfig config = smallSampling();
    config.threads = 1;
    const DelayAvfResult one = ws.engine().delayAvf(alu, 0.5, config);
    config.threads = 4;
    const DelayAvfResult four = ws.engine().delayAvf(alu, 0.5, config);

    ASSERT_TRUE(one.attrValid);
    ASSERT_FALSE(one.attribution.empty());
    EXPECT_EQ(resultText(one), resultText(four));
    EXPECT_EQ(one.attribution, four.attribution);

    // The same table flows into the CSV and JSON report surfaces.
    EXPECT_EQ(attributionCsvRows("popcount", "ALU", 0.5, one),
              attributionCsvRows("popcount", "ALU", 0.5, four));
    EXPECT_NE(delayAvfJson("popcount", "ALU", 0.5, one)
                  .find("\"attribution\":["),
              std::string::npos);
}

TEST(AttrEngine, AttributionDoesNotPerturbTheCounters)
{
    // Divergence walks ride outside the counted simulations, so every
    // non-attribution field must match an attribution-off run exactly
    // (the per-structure byte-identity acceptance bar).
    service::Workspace &ws = workspace();
    const Structure &alu = ws.structure("ALU");

    SamplingConfig config = smallSampling();
    config.threads = 2;
    DelayAvfResult with = ws.engine().delayAvf(alu, 0.5, config);
    config.attribution = false;
    const DelayAvfResult without = ws.engine().delayAvf(alu, 0.5, config);

    ASSERT_TRUE(with.attrValid);
    EXPECT_FALSE(without.attrValid);
    with.attrValid = false;
    with.attribution.clear();
    EXPECT_EQ(resultText(with), resultText(without));
}

/** Run one small --attribution campaign; returns its summary. */
CampaignSummary
runAttrCampaign(unsigned threads, const std::string &ckpt,
                const std::string &csv, bool resume,
                const std::atomic<bool> *stop = nullptr,
                std::function<void()> on_saved = nullptr)
{
    service::Workspace &ws = workspace();
    CampaignOptions opts;
    opts.benchmark = "popcount";
    opts.structures = {"ALU"};
    opts.delays = {0.5, 0.7};
    opts.runSavf = false;
    opts.sampling = smallSampling();
    opts.sampling.threads = threads;
    opts.checkpointPath = ckpt;
    opts.csvPath = csv;
    opts.resume = resume;
    opts.stopFlag = stop;
    opts.onCheckpointSaved = std::move(on_saved);
    Campaign campaign(ws.engine(), ws.structures(), opts);
    return campaign.run();
}

TEST(AttrEngine, InterruptedResumeReproducesTablesByteForByte)
{
    const std::string ref_ckpt = tempPath("attr_ref.ckpt");
    const std::string ref_csv = tempPath("attr_ref.csv");

    // Reference: uninterrupted, 1 thread.
    {
        const CampaignSummary summary =
            runAttrCampaign(1, ref_ckpt, ref_csv, false);
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
    }
    const std::string ref_journal = slurp(ref_ckpt);
    const std::string ref_attr_csv = slurp(ref_csv + ".attr");
    EXPECT_NE(ref_journal.find(" attrtab "), std::string::npos);
    EXPECT_NE(ref_attr_csv.find("popcount"), std::string::npos);

    // Both interruption directions: cut at one thread count, resume
    // at another; journal, CSV, and attribution CSV must all equal
    // the uninterrupted reference byte-for-byte.
    struct Direction { unsigned cutThreads, resumeThreads; };
    for (const Direction dir : {Direction{1, 4}, Direction{4, 1}}) {
        const std::string tag = std::to_string(dir.cutThreads) + "to"
            + std::to_string(dir.resumeThreads);
        const std::string cut_ckpt = tempPath("attr_" + tag + ".ckpt");
        const std::string cut_csv = tempPath("attr_" + tag + ".csv");

        std::atomic<bool> stop{false};
        uint64_t saves = 0;
        const CampaignSummary cut = runAttrCampaign(
            dir.cutThreads, cut_ckpt, cut_csv, false, &stop, [&] {
                if (++saves == 2)
                    stop.store(true);
            });
        EXPECT_TRUE(cut.interrupted) << tag;
        ASSERT_GE(saves, 2u) << tag;

        const CampaignSummary resumed = runAttrCampaign(
            dir.resumeThreads, cut_ckpt, cut_csv, true);
        EXPECT_FALSE(resumed.interrupted) << tag;
        EXPECT_EQ(slurp(cut_ckpt), ref_journal) << tag;
        EXPECT_EQ(slurp(cut_csv), slurp(ref_csv)) << tag;
        EXPECT_EQ(slurp(cut_csv + ".attr"), ref_attr_csv) << tag;

        for (const std::string &path :
             {cut_ckpt, cut_csv, cut_csv + ".attr"})
            std::remove(path.c_str());
    }

    // Resuming the complete journal recomputes nothing and rewrites
    // the same bytes.
    {
        const CampaignSummary summary =
            runAttrCampaign(2, ref_ckpt, ref_csv, true);
        EXPECT_EQ(summary.cellsComputed, 0u);
        EXPECT_EQ(summary.cellsFromCheckpoint, 2u);
        EXPECT_EQ(slurp(ref_ckpt), ref_journal);
        EXPECT_EQ(slurp(ref_csv + ".attr"), ref_attr_csv);
    }

    for (const std::string &path :
         {ref_ckpt, ref_csv, ref_csv + ".attr"})
        std::remove(path.c_str());
}

TEST(AttrEngine, JournalRoundTripsAttributionTables)
{
    // A full cell result (attrtab section) survives the journal parse
    // bit-exactly — resume adopts tables instead of recomputing them.
    service::Workspace &ws = workspace();
    const DelayAvfResult result =
        ws.engine().delayAvf(ws.structure("ALU"), 0.5, smallSampling());
    ASSERT_TRUE(result.attrValid);

    const std::string text = resultText(result);
    EXPECT_NE(text.find(" attrtab "), std::string::npos);
    const Result<Checkpoint> back = parseCheckpoint(text);
    ASSERT_TRUE(back.ok()) << back.error().what();
    ASSERT_EQ(back.value().cells.size(), 1u);
    const DelayAvfResult &reparsed = back.value().cells[0].davf;
    EXPECT_TRUE(reparsed.attrValid);
    EXPECT_EQ(reparsed.attribution, result.attribution);
    EXPECT_EQ(resultText(reparsed), text);
}

/** Occurrences of @p needle in @p haystack. */
size_t
countOf(const std::string &haystack, const std::string &needle)
{
    size_t count = 0;
    for (size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + 1))
        ++count;
    return count;
}

TEST(AttrEngine, StoredOutcomesAreV3ExactlyWhenTheyCarryAttribution)
{
    // The cell runner's store tier writes an outcome with an
    // attribution section as a v3 record (old readers see a clean
    // future-version miss) and a plain one as v2, in every mode.
    service::Workspace &ws = workspace();
    for (const bool attribution : {true, false}) {
        SCOPED_TRACE(attribution ? "attribution" : "plain");
        const std::string dir = tempPath("attr_store");
        std::filesystem::remove_all(dir);
        CampaignOptions opts;
        opts.benchmark = "popcount";
        opts.structures = {"ALU"};
        opts.delays = {0.5};
        opts.sampling = smallSampling();
        opts.sampling.maxInjectionCycles = 2;
        opts.sampling.maxWires = 12;
        opts.sampling.attribution = attribution;
        size_t cycles = 0;
        {
            service::ResultStore results({.dir = dir});
            ShardStore tier(results, ws.fingerprint());
            opts.store = &tier;
            Campaign campaign(ws.engine(), ws.structures(), opts);
            const CampaignSummary summary = campaign.run();
            ASSERT_EQ(summary.cellsFailed, 0u);
            cycles = ws.engine().injectionCycles(opts.sampling).size();
            ASSERT_EQ(results.stats().writes, cycles);
        }
        const std::string segments = slurp(dir + "/segments.davf");
        EXPECT_EQ(countOf(segments, "davf-store v3\n"),
                  attribution ? cycles : 0u);
        EXPECT_EQ(countOf(segments, "davf-store v2\n"),
                  attribution ? 0u : cycles);
        EXPECT_EQ(countOf(segments, " attr "), attribution ? cycles : 0u);
        std::filesystem::remove_all(dir);
    }
}

} // namespace
} // namespace davf
