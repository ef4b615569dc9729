/**
 * @file
 * Tests for the predictors: bimodal training and mistraining, BTB
 * injection, RSB push/pop/underflow/stuffing — the structures the
 * Spectre family steers.
 */

#include <gtest/gtest.h>

#include "uarch/predictor.hh"

namespace
{

using namespace specsec::uarch;

TEST(BranchPredictorTest, DefaultsWeaklyTaken)
{
    BranchPredictor bp;
    EXPECT_TRUE(bp.predictTaken(0x10));
}

TEST(BranchPredictorTest, MistrainTowardNotTaken)
{
    BranchPredictor bp;
    bp.update(0x10, false);
    bp.update(0x10, false);
    EXPECT_FALSE(bp.predictTaken(0x10));
}

TEST(BranchPredictorTest, SaturatingCounters)
{
    BranchPredictor bp;
    for (int i = 0; i < 10; ++i)
        bp.update(0x10, false);
    // One taken outcome must not flip a saturated counter.
    bp.update(0x10, true);
    EXPECT_FALSE(bp.predictTaken(0x10));
    bp.update(0x10, true);
    EXPECT_TRUE(bp.predictTaken(0x10));
}

TEST(BranchPredictorTest, PerPcState)
{
    BranchPredictor bp;
    bp.update(0x10, false);
    bp.update(0x10, false);
    EXPECT_FALSE(bp.predictTaken(0x10));
    EXPECT_TRUE(bp.predictTaken(0x20)); // untouched pc keeps default
}

TEST(BranchPredictorTest, FlushRestoresDefault)
{
    BranchPredictor bp;
    bp.update(0x10, false);
    bp.update(0x10, false);
    bp.flush();
    EXPECT_TRUE(bp.predictTaken(0x10));
    EXPECT_EQ(bp.trainedEntries(), 0u);
}

TEST(BranchPredictorTest, GenerationResetNeverLeaksStaleTraining)
{
    // The flat table flushes by bumping a generation counter, not
    // by clearing cells: a cell written before the flush still
    // physically holds its counter.  Re-training after repeated
    // flushes must never observe those stale bytes — in-table and
    // overflow (pc >= kPredictorTableSize) alike.
    BranchPredictor bp;
    const Addr inTable = 0x10;
    const Addr overflow = kPredictorTableSize + 7;
    for (int round = 0; round < 3; ++round) {
        bp.update(inTable, false);
        bp.update(inTable, false);
        bp.update(overflow, false);
        bp.update(overflow, false);
        EXPECT_FALSE(bp.predictTaken(inTable));
        EXPECT_FALSE(bp.predictTaken(overflow));
        bp.flush();
        // Back to the weakly-taken default, as if never trained.
        EXPECT_TRUE(bp.predictTaken(inTable));
        EXPECT_TRUE(bp.predictTaken(overflow));
        EXPECT_EQ(bp.trainedEntries(), 0u);
        // One update after a flush starts from the default state,
        // not from the stale saturated counter.
        bp.update(inTable, false);
        EXPECT_FALSE(bp.predictTaken(inTable));
        bp.flush();
    }
}

TEST(BtbTest, GenerationResetNeverLeaksStaleTargets)
{
    Btb btb;
    const Addr inTable = 0x30;
    const Addr overflow = kPredictorTableSize + 11;
    for (int round = 0; round < 3; ++round) {
        btb.update(inTable, 0x80 + round);
        btb.update(overflow, 0x90 + round);
        EXPECT_EQ(btb.predict(inTable), Addr{0x80} + round);
        EXPECT_EQ(btb.predict(overflow), Addr{0x90} + round);
        EXPECT_EQ(btb.entries(), 2u);
        btb.flush();
        EXPECT_FALSE(btb.predict(inTable).has_value());
        EXPECT_FALSE(btb.predict(overflow).has_value());
        EXPECT_EQ(btb.entries(), 0u);
    }
}

TEST(BtbTest, MissThenTrain)
{
    Btb btb;
    EXPECT_FALSE(btb.predict(0x30).has_value());
    btb.update(0x30, 0x80);
    EXPECT_EQ(btb.predict(0x30), 0x80u);
}

TEST(BtbTest, InjectionOverwrites)
{
    Btb btb;
    btb.update(0x30, 0x80);
    btb.update(0x30, 0x90); // attacker injection
    EXPECT_EQ(btb.predict(0x30), 0x90u);
}

TEST(BtbTest, Flush)
{
    Btb btb;
    btb.update(0x30, 0x80);
    btb.flush();
    EXPECT_FALSE(btb.predict(0x30).has_value());
    EXPECT_EQ(btb.entries(), 0u);
}

TEST(RsbTest, PushPopLifo)
{
    Rsb rsb(4);
    rsb.push(10);
    rsb.push(20);
    EXPECT_EQ(rsb.pop().target, 20u);
    EXPECT_EQ(rsb.pop().target, 10u);
}

TEST(RsbTest, UnderflowReportsInvalid)
{
    Rsb rsb(4);
    const Rsb::Pop pop = rsb.pop();
    EXPECT_FALSE(pop.valid); // the Spectre-RSB entry point
}

TEST(RsbTest, OverflowDropsOldest)
{
    Rsb rsb(2);
    rsb.push(1);
    rsb.push(2);
    rsb.push(3);
    EXPECT_EQ(rsb.size(), 2u);
    EXPECT_EQ(rsb.pop().target, 3u);
    EXPECT_EQ(rsb.pop().target, 2u);
    EXPECT_FALSE(rsb.pop().valid); // 1 was dropped
}

TEST(RsbTest, StuffingFillsWithBenignTarget)
{
    Rsb rsb(4);
    rsb.push(99);
    rsb.stuff(7);
    EXPECT_EQ(rsb.size(), 4u);
    // Real entry pops first, then stuffed entries.
    EXPECT_EQ(rsb.pop().target, 99u);
    const Rsb::Pop stuffed = rsb.pop();
    EXPECT_TRUE(stuffed.valid);
    EXPECT_TRUE(stuffed.stuffed);
    EXPECT_EQ(stuffed.target, 7u);
}

TEST(RsbTest, ZeroDepthHoldsNothing)
{
    // rsbDepth 0: every pop underflows to the BTB fallback, stuffed
    // or not.
    Rsb rsb(0);
    rsb.push(10);
    EXPECT_EQ(rsb.size(), 0u);
    EXPECT_FALSE(rsb.pop().valid);
    rsb.stuff(7);
    EXPECT_EQ(rsb.size(), 0u);
    EXPECT_FALSE(rsb.pop().valid);
}

TEST(RsbTest, FlushEmpties)
{
    Rsb rsb(4);
    rsb.push(1);
    rsb.flush();
    EXPECT_EQ(rsb.size(), 0u);
    EXPECT_FALSE(rsb.pop().valid);
}

} // namespace
