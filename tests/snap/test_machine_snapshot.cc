/**
 * @file
 * Whole-machine capture/restore: the round-trip determinism contract.
 * A restored machine is byte-indistinguishable from the original
 * (save -> restore -> re-save produces identical bytes), and running
 * both onward stays bit-identical. Mismatched restores (wrong
 * prefetcher, trailing bytes, recording frontends) die cleanly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "snap/machine_snapshot.hh"
#include "trace/trace_workload.hh"
#include "trace/trace_writer.hh"
#include "workload/generators.hh"
#include "workload/spec_suite.hh"

namespace fdp
{
namespace
{

RunConfig
testConfig()
{
    RunConfig c = RunConfig::fullFdp();
    c.numInsts = 200'000;
    return c;
}

/** Run @p insts micro-ops, drain, and capture. */
SnapshotImageBody
runAndCapture(SimMachine &m, std::uint64_t insts)
{
    m.core.run(insts);
    drainToQuiesce(m.events, m.mem);
    return captureMachine(m.parts());
}

TEST(MachineSnapshot, SaveRestoreResaveIsByteIdentical)
{
    const RunConfig config = testConfig();
    SyntheticWorkload w1(benchmarkParams("swim"));
    SimMachine m1(w1, config);
    const SnapshotImageBody saved = runAndCapture(m1, 150'000);

    SyntheticWorkload w2(benchmarkParams("swim"));
    SimMachine m2(w2, config);
    restoreMachine(m2.parts(), saved.bytes, RestoreMode::Full);
    const SnapshotImageBody resaved = captureMachine(m2.parts());

    EXPECT_EQ(saved.sectionCount, resaved.sectionCount);
    EXPECT_EQ(saved.bytes, resaved.bytes);
}

TEST(MachineSnapshot, ManagedMachineRoundTripsAndContinues)
{
    // The manager nests every zoo candidate's state inside its own
    // section; the whole-machine capture must round-trip it and keep a
    // restored run bit-identical through later FSM transitions.
    RunConfig config = testConfig();
    config.manager = ManagerKind::Explore;
    config.fdp.intervalEvictions = 1024;  // several manager ticks
    SyntheticWorkload w1(benchmarkParams("swim"));
    SimMachine m1(w1, config);
    AuditSet audits1;
    wireAudits(m1, audits1);  // installs the manager's interval hook
    const SnapshotImageBody saved = runAndCapture(m1, 120'000);

    SyntheticWorkload w2(benchmarkParams("swim"));
    SimMachine m2(w2, config);
    AuditSet audits2;
    wireAudits(m2, audits2);
    restoreMachine(m2.parts(), saved.bytes, RestoreMode::Full);
    EXPECT_EQ(captureMachine(m2.parts()).bytes, saved.bytes);

    const SnapshotImageBody after1 = runAndCapture(m1, 120'000);
    const SnapshotImageBody after2 = runAndCapture(m2, 120'000);
    EXPECT_EQ(after1.bytes, after2.bytes);
}

TEST(MachineSnapshot, RestoredMachineContinuesBitIdentically)
{
    const RunConfig config = testConfig();
    SyntheticWorkload w1(benchmarkParams("art"));
    SimMachine m1(w1, config);
    const SnapshotImageBody saved = runAndCapture(m1, 100'000);

    SyntheticWorkload w2(benchmarkParams("art"));
    SimMachine m2(w2, config);
    restoreMachine(m2.parts(), saved.bytes, RestoreMode::Full);

    // Both machines run the same continuation; their complete state
    // must agree byte for byte afterwards.
    const SnapshotImageBody after1 = runAndCapture(m1, 100'000);
    const SnapshotImageBody after2 = runAndCapture(m2, 100'000);
    EXPECT_EQ(after1.bytes, after2.bytes);
    EXPECT_EQ(m1.core.retired(), m2.core.retired());
    EXPECT_EQ(m1.core.cycles(), m2.core.cycles());
}

TEST(MachineSnapshot, ForkRestoreMatchesInPlaceWarmup)
{
    // The warm-fork contract: capture under no prefetcher (the neutral
    // warm-up shape), fork-restore into a machine with a policy
    // attached, then measure; the result must be byte-identical to
    // warming the policy machine in place. Fork mode skips the
    // snapshot's policy and stats sections -- measurementBoundary
    // resets both -- so only the measured interval can differ, and it
    // must not.
    RunConfig fdp = testConfig();
    fdp.numInsts = 100'000;
    fdp.warmupInsts = 100'000;

    // Cold reference: warm in place with the prefetcher detached.
    SyntheticWorkload w1(benchmarkParams("swim"));
    SimMachine m1(w1, fdp);
    m1.core.run(fdp.warmupInsts);
    measurementBoundary(m1);
    const SnapshotImageBody end1 = runAndCapture(m1, fdp.numInsts);

    // Fork path: neutral machine warms, is captured, and the image is
    // restored into a fresh policy machine.
    RunConfig neutral = RunConfig::noPrefetching();
    neutral.machine = fdp.machine;
    neutral.core = fdp.core;
    neutral.warmupInsts = fdp.warmupInsts;
    SyntheticWorkload wn(benchmarkParams("swim"));
    SimMachine mn(wn, neutral);
    const SnapshotImageBody saved = runAndCapture(mn, fdp.warmupInsts);

    SyntheticWorkload w2(benchmarkParams("swim"));
    SimMachine m2(w2, fdp);
    restoreMachine(m2.parts(), saved.bytes, RestoreMode::Fork);
    measurementBoundary(m2);
    const SnapshotImageBody end2 = runAndCapture(m2, fdp.numInsts);

    EXPECT_EQ(end1.bytes, end2.bytes);
}

class MachineSnapshotDeath : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST_F(MachineSnapshotDeath, FullRestoreWithWrongPrefetcherIsFatal)
{
    RunConfig stream = testConfig();  // stream prefetcher
    SyntheticWorkload w1(benchmarkParams("swim"));
    SimMachine m1(w1, stream);
    const SnapshotImageBody saved = runAndCapture(m1, 50'000);

    RunConfig ghb = testConfig();
    ghb.prefetcher = PrefetcherKind::GhbCdc;
    SyntheticWorkload w2(benchmarkParams("swim"));
    SimMachine m2(w2, ghb);
    EXPECT_EXIT(restoreMachine(m2.parts(), saved.bytes, RestoreMode::Full),
                testing::ExitedWithCode(1), "prefetcher");
}

TEST_F(MachineSnapshotDeath, TrailingBytesAreFatal)
{
    const RunConfig config = testConfig();
    SyntheticWorkload w1(benchmarkParams("swim"));
    SimMachine m1(w1, config);
    SnapshotImageBody saved = runAndCapture(m1, 50'000);
    saved.bytes.push_back(0);  // one stray byte after the last section

    SyntheticWorkload w2(benchmarkParams("swim"));
    SimMachine m2(w2, config);
    EXPECT_EXIT(restoreMachine(m2.parts(), saved.bytes, RestoreMode::Full),
                testing::ExitedWithCode(1), "trailing bytes");
}

TEST_F(MachineSnapshotDeath, RecordingWorkloadCannotSnapshot)
{
    const RunConfig config = testConfig();
    const std::string path =
        testing::TempDir() + "machine_snapshot_record.fdptrace";
    SyntheticWorkload inner(benchmarkParams("swim"));
    TraceWriter writer(path, "swim", benchmarkParams("swim").seed);
    RecordingWorkload recorder(inner, writer);
    SimMachine m(recorder, config);
    EXPECT_EXIT(
        {
            m.core.run(10'000);
            drainToQuiesce(m.events, m.mem);
            captureMachine(m.parts());
        },
        testing::ExitedWithCode(1), "does not support snapshots");
}

} // namespace
} // namespace fdp
