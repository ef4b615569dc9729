/**
 * @file
 * Every verdict gate's evidence line, one case per machine knob:
 *
 *  - the timing gate of the model and the static backend for each of
 *    the 20 timing knobs set off its default on Spectre v1;
 *  - the static backend's hardware gate for each of the 13
 *    HwDefenseConfig toggles (Spectre v1), and its out-of-program
 *    gate for kpti, rsbStuffing and flushL1OnExit on the attacks
 *    whose runners read them (Meltdown, Spectre RSB, Foreshadow);
 *  - the model's mechanism rule for each defense and mitigation knob
 *    on a variant it blocks.
 *
 * The strings are literal, so a change to a gate's knob names, its
 * order or its wording shows here.
 */

#include <gtest/gtest.h>

#include "core/catalog.hh"
#include "verdict/model.hh"
#include "verdict/static_verdict.hh"

namespace
{

using namespace specsec;
using attacks::AttackOptions;
using core::AttackVariant;
using core::ModelVerdict;
using uarch::CpuConfig;

using Setter = void (*)(CpuConfig &, AttackOptions &);

core::ModelJudgement
judgeStatic(AttackVariant variant, Setter set)
{
    CpuConfig config;
    AttackOptions options;
    set(config, options);
    return verdict::judgeScenarioStatic(variant, config, options);
}

core::ModelJudgement
judgeModel(AttackVariant variant, Setter set)
{
    CpuConfig config;
    AttackOptions options;
    set(config, options);
    return verdict::modelJudgement(variant, config, options);
}

/** One timing knob off its default, and both backends' evidence. */
struct TimingCase
{
    const char *name;
    Setter set;
    const char *model;
    const char *staticEvidence;
};

class TimingGate : public testing::TestWithParam<TimingCase>
{
};

TEST_P(TimingGate, BothBackendsNameTheKnob)
{
    const TimingCase &c = GetParam();
    const core::ModelJudgement model =
        judgeModel(AttackVariant::SpectreV1, c.set);
    EXPECT_EQ(model.verdict, ModelVerdict::Undecided);
    EXPECT_EQ(model.evidence, c.model);
    const core::ModelJudgement stat =
        judgeStatic(AttackVariant::SpectreV1, c.set);
    EXPECT_EQ(stat.verdict, ModelVerdict::Undecided);
    EXPECT_EQ(stat.evidence, c.staticEvidence);
}

const TimingCase kTimingCases[] = {
    {"robSize", [](CpuConfig &c, AttackOptions &) { c.robSize = 32; },
     "off-default timing knob 'robSize'; the graph orders operations "
     "but counts no cycles",
     "off-default timing knob 'robSize'; static analysis orders "
     "operations but counts no cycles"},
    {"fetchWidth",
     [](CpuConfig &c, AttackOptions &) { c.fetchWidth = 4; },
     "off-default timing knob 'fetchWidth'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'fetchWidth'; static analysis orders "
     "operations but counts no cycles"},
    {"commitWidth",
     [](CpuConfig &c, AttackOptions &) { c.commitWidth = 2; },
     "off-default timing knob 'commitWidth'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'commitWidth'; static analysis orders "
     "operations but counts no cycles"},
    {"permCheckLatency",
     [](CpuConfig &c, AttackOptions &) { c.permCheckLatency = 10; },
     "off-default timing knob 'permCheckLatency'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'permCheckLatency'; static analysis "
     "orders operations but counts no cycles"},
    {"branchResolveLatency",
     [](CpuConfig &c, AttackOptions &) { c.branchResolveLatency = 8; },
     "off-default timing knob 'branchResolveLatency'; the graph "
     "orders operations but counts no cycles",
     "off-default timing knob 'branchResolveLatency'; static analysis "
     "orders operations but counts no cycles"},
    {"retResolveLatency",
     [](CpuConfig &c, AttackOptions &) { c.retResolveLatency = 8; },
     "off-default timing knob 'retResolveLatency'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'retResolveLatency'; static analysis "
     "orders operations but counts no cycles"},
    {"exceptionDeliveryLatency",
     [](CpuConfig &c, AttackOptions &) {
         c.exceptionDeliveryLatency = 4;
     },
     "off-default timing knob 'exceptionDeliveryLatency'; the graph "
     "orders operations but counts no cycles",
     "off-default timing knob 'exceptionDeliveryLatency'; static "
     "analysis orders operations but counts no cycles"},
    {"txnAbortDetectLatency",
     [](CpuConfig &c, AttackOptions &) { c.txnAbortDetectLatency = 10; },
     "off-default timing knob 'txnAbortDetectLatency'; the graph "
     "orders operations but counts no cycles",
     "off-default timing knob 'txnAbortDetectLatency'; static "
     "analysis orders operations but counts no cycles"},
    {"partialAliasPenalty",
     [](CpuConfig &c, AttackOptions &) { c.partialAliasPenalty = 6; },
     "off-default timing knob 'partialAliasPenalty'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'partialAliasPenalty'; static analysis "
     "orders operations but counts no cycles"},
    {"physAliasPenalty",
     [](CpuConfig &c, AttackOptions &) { c.physAliasPenalty = 30; },
     "off-default timing knob 'physAliasPenalty'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'physAliasPenalty'; static analysis "
     "orders operations but counts no cycles"},
    {"rsbDepth", [](CpuConfig &c, AttackOptions &) { c.rsbDepth = 4; },
     "off-default timing knob 'rsbDepth'; the graph orders operations "
     "but counts no cycles",
     "off-default timing knob 'rsbDepth'; static analysis orders "
     "operations but counts no cycles"},
    {"lfbEntries",
     [](CpuConfig &c, AttackOptions &) { c.lfbEntries = 4; },
     "off-default timing knob 'lfbEntries'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'lfbEntries'; static analysis orders "
     "operations but counts no cycles"},
    {"cacheSets",
     [](CpuConfig &c, AttackOptions &) { c.cache.sets = 64; },
     "off-default timing knob 'cache.sets'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'cache.sets'; static analysis orders "
     "operations but counts no cycles"},
    {"cacheWays",
     [](CpuConfig &c, AttackOptions &) { c.cache.ways = 2; },
     "off-default timing knob 'cache.ways'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'cache.ways'; static analysis orders "
     "operations but counts no cycles"},
    {"cacheLineSize",
     [](CpuConfig &c, AttackOptions &) { c.cache.lineSize = 32; },
     "off-default timing knob 'cache.lineSize'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'cache.lineSize'; static analysis "
     "orders operations but counts no cycles"},
    {"cacheHitLatency",
     [](CpuConfig &c, AttackOptions &) { c.cache.hitLatency = 2; },
     "off-default timing knob 'cache.hitLatency'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'cache.hitLatency'; static analysis "
     "orders operations but counts no cycles"},
    {"cacheMissLatency",
     [](CpuConfig &c, AttackOptions &) { c.cache.missLatency = 100; },
     "off-default timing knob 'cache.missLatency'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'cache.missLatency'; static analysis "
     "orders operations but counts no cycles"},
    {"secretLen",
     [](CpuConfig &, AttackOptions &o) { o.secretLen = 4; },
     "off-default timing knob 'secretLen'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'secretLen'; static analysis orders "
     "operations but counts no cycles"},
    {"trainingRounds",
     [](CpuConfig &, AttackOptions &o) { o.trainingRounds = 2; },
     "off-default timing knob 'trainingRounds'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'trainingRounds'; static analysis "
     "orders operations but counts no cycles"},
    {"delayAuthorization",
     [](CpuConfig &, AttackOptions &o) { o.delayAuthorization = false; },
     "off-default timing knob 'delayAuthorization'; the graph orders "
     "operations but counts no cycles",
     "off-default timing knob 'delayAuthorization'; static analysis "
     "orders operations but counts no cycles"},
};

/** One knob set on one variant, and one backend's verdict. */
struct GateCase
{
    const char *name;
    AttackVariant variant;
    Setter set;
    ModelVerdict verdict;
    const char *evidence;
};

template <typename Case>
std::string
caseName(const testing::TestParamInfo<Case> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Knob, TimingGate, testing::ValuesIn(kTimingCases),
                         caseName<TimingCase>);

class StaticGate : public testing::TestWithParam<GateCase>
{
};

TEST_P(StaticGate, EvidenceIsPinned)
{
    const GateCase &c = GetParam();
    const core::ModelJudgement j = judgeStatic(c.variant, c.set);
    EXPECT_EQ(j.verdict, c.verdict);
    EXPECT_EQ(j.evidence, c.evidence);
}

const GateCase kHardwareCases[] = {
    {"fenceSpeculativeLoads", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.fenceSpeculativeLoads = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'fenceSpeculativeLoads' is outside the "
     "program-level analyzer's scope"},
    {"blockSpeculativeForwarding", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.blockSpeculativeForwarding = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'blockSpeculativeForwarding' is outside the "
     "program-level analyzer's scope"},
    {"blockTaintedTransmit", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.blockTaintedTransmit = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'blockTaintedTransmit' is outside the "
     "program-level analyzer's scope"},
    {"invisibleSpeculation", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.invisibleSpeculation = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'invisibleSpeculation' is outside the "
     "program-level analyzer's scope"},
    {"cleanupSpec", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) { c.defense.cleanupSpec = true; },
     ModelVerdict::Undecided,
     "hardware defense 'cleanupSpec' is outside the program-level "
     "analyzer's scope"},
    {"conditionalSpeculation", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.conditionalSpeculation = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'conditionalSpeculation' is outside the "
     "program-level analyzer's scope"},
    {"partitionedCache", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.partitionedCache = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'partitionedCache' is outside the "
     "program-level analyzer's scope"},
    {"flushPredictorOnContextSwitch", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.flushPredictorOnContextSwitch = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'flushPredictorOnContextSwitch' is outside the "
     "program-level analyzer's scope"},
    {"noIndirectPrediction", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.noIndirectPrediction = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'noIndirectPrediction' is outside the "
     "program-level analyzer's scope"},
    {"noBranchPrediction", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.noBranchPrediction = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'noBranchPrediction' is outside the "
     "program-level analyzer's scope"},
    {"clearBuffersOnContextSwitch", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.clearBuffersOnContextSwitch = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'clearBuffersOnContextSwitch' is outside the "
     "program-level analyzer's scope"},
    {"eagerFpuSwitch", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.eagerFpuSwitch = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'eagerFpuSwitch' is outside the program-level "
     "analyzer's scope"},
    {"safeStoreBypass", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.safeStoreBypass = true;
     },
     ModelVerdict::Undecided,
     "hardware defense 'safeStoreBypass' is outside the program-level "
     "analyzer's scope"},
};

INSTANTIATE_TEST_SUITE_P(Hardware, StaticGate,
                         testing::ValuesIn(kHardwareCases),
                         caseName<GateCase>);

const GateCase kOutOfProgramCases[] = {
    {"kpti", AttackVariant::Meltdown,
     [](CpuConfig &, AttackOptions &o) { o.kpti = true; },
     ModelVerdict::Undecided,
     "mitigation 'kpti' acts outside the program (page tables / RSB / "
     "L1), which the analyzer does not model"},
    {"rsbStuffing", AttackVariant::SpectreRsb,
     [](CpuConfig &, AttackOptions &o) { o.rsbStuffing = true; },
     ModelVerdict::Undecided,
     "mitigation 'rsbStuffing' acts outside the program (page tables / "
     "RSB / L1), which the analyzer does not model"},
    {"flushL1OnExit", AttackVariant::Foreshadow,
     [](CpuConfig &, AttackOptions &o) { o.flushL1OnExit = true; },
     ModelVerdict::Undecided,
     "mitigation 'flushL1OnExit' acts outside the program (page "
     "tables / RSB / L1), which the analyzer does not model"},
};

INSTANTIATE_TEST_SUITE_P(OutOfProgram, StaticGate,
                         testing::ValuesIn(kOutOfProgramCases),
                         caseName<GateCase>);

class MechanismRule : public testing::TestWithParam<GateCase>
{
};

TEST_P(MechanismRule, EvidenceIsPinned)
{
    const GateCase &c = GetParam();
    const core::ModelJudgement j = judgeModel(c.variant, c.set);
    EXPECT_EQ(j.verdict, c.verdict);
    EXPECT_EQ(j.evidence, c.evidence);
    EXPECT_EQ(j.rationale, "");
}

const GateCase kRuleCases[] = {
    {"fenceSpeculativeLoads", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.fenceSpeculativeLoads = true;
     },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Read "
     "out-of-bounds memory (security) (strategy 1, "
     "fenceSpeculativeLoads) cuts every escaping flow"},
    {"blockSpeculativeForwarding", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.blockSpeculativeForwarding = true;
     },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Compute "
     "load address R from secret (security) (strategy 2, "
     "blockSpeculativeForwarding) cuts every escaping flow"},
    {"blockTaintedTransmit", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.blockTaintedTransmit = true;
     },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Load R "
     "to cache (security) (strategy 3, blockTaintedTransmit) cuts "
     "every escaping flow"},
    {"invisibleSpeculation", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.invisibleSpeculation = true;
     },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Load R "
     "to cache (security) (strategy 3, invisibleSpeculation) cuts "
     "every escaping flow"},
    {"cleanupSpec", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) { c.defense.cleanupSpec = true; },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Load R "
     "to cache (security) (strategy 3, cleanupSpec) cuts every "
     "escaping flow"},
    {"conditionalSpeculation", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.conditionalSpeculation = true;
     },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Load R "
     "to cache (security) (strategy 3, conditionalSpeculation) cuts "
     "every escaping flow"},
    {"partitionedCache", AttackVariant::SpectreV2,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.partitionedCache = true;
     },
     ModelVerdict::Blocked,
     "security dependency Indirect branch target resolution -> Load R "
     "to cache (security) (strategy 3, partitionedCache) cuts every "
     "escaping flow"},
    {"flushPredictorOnContextSwitch", AttackVariant::SpectreV2,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.flushPredictorOnContextSwitch = true;
     },
     ModelVerdict::Blocked,
     "PredictorFlush spliced into every mistrain->trigger influence "
     "(strategy 4, flushPredictorOnContextSwitch)"},
    {"noIndirectPrediction", AttackVariant::SpectreV2,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.noIndirectPrediction = true;
     },
     ModelVerdict::Blocked,
     "PredictorFlush spliced into every mistrain->trigger influence "
     "(strategy 4, noIndirectPrediction)"},
    {"noBranchPrediction", AttackVariant::SpectreV1,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.noBranchPrediction = true;
     },
     ModelVerdict::Blocked,
     "PredictorFlush spliced into every mistrain->trigger influence "
     "(strategy 4, noBranchPrediction)"},
    {"clearBuffersOnContextSwitch", AttackVariant::Ridl,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.clearBuffersOnContextSwitch = true;
     },
     ModelVerdict::Blocked,
     "security dependency Load fault check -> Read S from line fill "
     "buffer (security) (strategy 1, clearBuffersOnContextSwitch) "
     "cuts every escaping flow"},
    {"eagerFpuSwitch", AttackVariant::LazyFp,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.eagerFpuSwitch = true;
     },
     ModelVerdict::Blocked,
     "security dependency FPU owner check -> Read stale FPU state "
     "(security) (strategy 1, eagerFpuSwitch) cuts every escaping "
     "flow"},
    {"safeStoreBypass", AttackVariant::SpectreV4,
     [](CpuConfig &c, AttackOptions &) {
         c.defense.safeStoreBypass = true;
     },
     ModelVerdict::Blocked,
     "security dependency Store-load address dependency resolution -> "
     "Read stale data (security) (strategy 1, safeStoreBypass) cuts "
     "every escaping flow"},
    {"flushL1OnExit", AttackVariant::Foreshadow,
     [](CpuConfig &, AttackOptions &o) { o.flushL1OnExit = true; },
     ModelVerdict::Blocked,
     "security dependency Page permission check -> Read enclave data "
     "in L1 cache from outside enclave (security) (strategy 1, "
     "flushL1OnExit) cuts every escaping flow"},
    {"kpti", AttackVariant::Meltdown,
     [](CpuConfig &, AttackOptions &o) { o.kpti = true; },
     ModelVerdict::Blocked,
     "security dependency Kernel privilege check -> Read from kernel "
     "memory (security) (strategy 1, kpti) cuts every escaping flow"},
    {"rsbStuffing", AttackVariant::SpectreRsb,
     [](CpuConfig &, AttackOptions &o) { o.rsbStuffing = true; },
     ModelVerdict::Blocked,
     "PredictorFlush spliced into every mistrain->trigger influence "
     "(strategy 4, rsbStuffing)"},
    {"softwareLfence", AttackVariant::SpectreV1,
     [](CpuConfig &, AttackOptions &o) { o.softwareLfence = true; },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Read "
     "out-of-bounds memory (security) (strategy 1, softwareLfence) "
     "cuts every escaping flow"},
    {"addressMasking", AttackVariant::SpectreV1,
     [](CpuConfig &, AttackOptions &o) { o.addressMasking = true; },
     ModelVerdict::Blocked,
     "security dependency Boundary-check branch resolution -> Read "
     "out-of-bounds memory (security) (strategy 1, addressMasking) "
     "cuts every escaping flow"},
};

INSTANTIATE_TEST_SUITE_P(Model, MechanismRule,
                         testing::ValuesIn(kRuleCases),
                         caseName<GateCase>);

TEST(MechanismRule, NoBranchPredictionCarriesTheSpectreV2Divergence)
{
    const core::ModelJudgement j = judgeModel(
        AttackVariant::SpectreV2, [](CpuConfig &c, AttackOptions &) {
            c.defense.noBranchPrediction = true;
        });
    EXPECT_EQ(j.verdict, ModelVerdict::Blocked);
    EXPECT_EQ(j.evidence,
              "PredictorFlush spliced into every mistrain->trigger "
              "influence (strategy 4, noBranchPrediction)");
    EXPECT_EQ(j.rationale,
              "graph model: stalling prediction cuts mistrain->trigger "
              "influence; simulator: the stall applies to conditional "
              "branches only, the poisoned indirect-branch target "
              "still steers the transient path");
}

} // namespace
