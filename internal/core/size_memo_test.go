package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/grover"
)

// TestMaxSizeRunAllocsPerGate guards the per-gate decision path: with
// the size callbacks bound once per run, deciding whether to flush
// allocates nothing, so a warmed max-size run of grover_12 allocates
// fewer than two objects per gate in total.
func TestMaxSizeRunAllocsPerGate(t *testing.T) {
	c := grover.Circuit(12, 1234, 0)
	opt := Options{Strategy: MaxSize{SMax: 128}, Engine: dd.New()}
	if _, err := Run(c, opt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(c, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Size.Hits == 0 {
		t.Fatal("no SizeM call was answered by the memo")
	}
	perGate := float64(after.Mallocs-before.Mallocs) / float64(len(c.Gates))
	t.Logf("%d gates, %.2f mallocs per gate", len(c.Gates), perGate)
	if perGate >= 2 {
		t.Fatalf("%.2f mallocs per gate on a warmed run, want < 2", perGate)
	}
}

// TestRunBatchSizeMemoSharedTerminal runs max-size jobs on four workers
// at once. Every engine's diagrams end in the shared matrix terminal, so
// the memo must not write to shared state (checked under -race), and
// the states and size counters must match serial runs exactly.
func TestRunBatchSizeMemoSharedTerminal(t *testing.T) {
	rng := rand.New(rand.NewSource(1505))
	var jobs []BatchJob
	for i := 0; i < 8; i++ {
		var c *circuit.Circuit
		if i%2 == 0 {
			c = grover.Circuit(6+i/2, uint64(rng.Intn(64)), 0)
		} else {
			c = randomCircuit(rng, 5, 60, false)
		}
		jobs = append(jobs, BatchJob{Circuit: c, Options: Options{Strategy: MaxSize{SMax: 16}}})
	}
	results, err := RunBatch(context.Background(), jobs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		serial, err := Run(jobs[i].Circuit, jobs[i].Options)
		if err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		got, want := r.Result.State.ToVector(), serial.State.ToVector()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("job %d: amplitude %d = %v, serial %v", i, k, got[k], want[k])
			}
		}
		if r.Result.Stats.Size != serial.Stats.Size || r.Result.MatMatSteps != serial.MatMatSteps {
			t.Fatalf("job %d: size counter %+v, %d mat-mat steps; serial %+v, %d",
				i, r.Result.Stats.Size, r.Result.MatMatSteps, serial.Stats.Size, serial.MatMatSteps)
		}
	}
}
