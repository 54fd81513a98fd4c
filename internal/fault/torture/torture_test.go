package torture

import "testing"

// runRow runs the table row called name and logs its coverage.
func runRow(t *testing.T, name string) *result {
	t.Helper()
	for _, r := range table {
		if r.name == name {
			res, err := run(t.TempDir(), r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			t.Logf("%s: %+v", name, *res)
			return res
		}
	}
	t.Fatalf("no row %q", name)
	return nil
}

// TestTruncationSweep: recovery must be correct at every record
// boundary and inside every record of the workload log.
func TestTruncationSweep(t *testing.T) {
	res := runRow(t, "truncate")
	boundaries := res.points - res.midRecord
	if res.commits != 24 || res.records < 48 || boundaries != res.records+1 || res.midRecord != 2*res.records {
		t.Fatalf("coverage too thin: %d boundary + %d mid-record points over %d records, %d commits",
			boundaries, res.midRecord, res.records, res.commits)
	}
}

// TestSyncFaultTorture injects a 20% fsync failure rate: the store must
// self-heal and keep committing, and after a crash the recovered state
// must be exactly the acknowledged prefix.
func TestSyncFaultTorture(t *testing.T) {
	res := runRow(t, "fsync-fail")
	if res.failed == 0 || res.commits == 0 || res.heals == 0 {
		t.Fatalf("failed %d, acked %d, heals %d: want faults that bite and a store that heals past them",
			res.failed, res.commits, res.heals)
	}
}

// TestCrashPointPanics simulates power loss at every fsync of the
// workload; every left-behind state must recover.
func TestCrashPointPanics(t *testing.T) {
	res := runRow(t, "crash")
	if res.syncs == 0 || uint64(res.points) != res.syncs+1 {
		t.Fatalf("%d crash states over %d fsyncs, want one per fsync plus the clean run", res.points, res.syncs)
	}
}

// TestReplSweep cuts a real replica's link after every record of the
// primary's log (one record per frame): at each cut the replica must
// equal the replay up to its resume position with its trigger state
// consistent, and a restart from its sidecar must converge it to the
// full log.
func TestReplSweep(t *testing.T) {
	t.Parallel()
	res := runRow(t, "record-cut")
	if res.commits != 20 || res.link.Cuts != uint64(res.records) || res.points != res.records+1 {
		t.Fatalf("%d cuts, %d points over %d records, %d commits: want a cut at every record",
			res.link.Cuts, res.points, res.records, res.commits)
	}
}

// TestLinkSweep cuts, and flips a byte in, every frame of the live
// stream and of the anti-entropy rejoin; at every position the replica
// must converge to the replay of the primary's log.
func TestLinkSweep(t *testing.T) {
	t.Parallel()
	for _, r := range table {
		if r.attack != linkCut && r.attack != linkCorrupt {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			res := runRow(t, r.name)
			if fired := res.link.Cuts + res.link.Corruptions; res.points < 3 || fired != uint64(res.points-1) {
				t.Fatalf("%d faults fired over %d positions, want one at every position but the last", fired, res.points)
			}
		})
	}
}
