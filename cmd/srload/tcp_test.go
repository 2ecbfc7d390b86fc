package main

import (
	"context"
	"testing"

	"siterecovery/internal/chaos/proc"
	"siterecovery/internal/workload"
)

// TestTCPColumn drives srload's TCP column end to end — three srnode
// processes, 60 transactions from 2 closed-loop clients — once plain and
// once with -crash, whose column must report its fault window.
func TestTCPColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning srload run in -short mode")
	}
	bin, err := proc.Build(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, crash := range []bool{false, true} {
		o := options{
			cluster: "tcp", txns: 60, concurrency: 2, items: 48, sites: 3, replicas: 3,
			readFrac: 0.5, ops: 4, dist: workload.Zipf, seed: 1, crash: crash, srnodeBin: bin,
		}
		rep, err := runTCP(context.Background(), o, "tcp")
		if err != nil {
			t.Fatalf("crash=%v: %v", crash, err)
		}
		if rep.Committed == 0 {
			t.Errorf("crash=%v: nothing committed: %+v", crash, rep)
		}
		if crash && rep.FaultWindow == nil {
			t.Errorf("crash run reports no fault window: %+v", rep)
		}
	}
}
