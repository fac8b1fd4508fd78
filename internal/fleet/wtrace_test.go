package fleet

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"flashwear/internal/telemetry"
	"flashwear/internal/wtrace"
)

// TestFleetWearDeterminism pins the fleet ledger contract: with
// Spec.WearTrace on, the merged per-origin ledger (fleetsim -wear-trace)
// is byte-identical across worker counts, every workload class shows up as
// an origin with real wear, and write amplification is visible in the
// totals (phys >= host). The merge is integer-additive by origin name, so
// scheduling must not leak into the CSV.
func TestFleetWearDeterminism(t *testing.T) {
	ctx := context.Background()
	run := func(workers int, reg *telemetry.Registry) (*Result, string) {
		t.Helper()
		spec := testSpec(workers)
		spec.WearTrace = true
		spec.Telemetry = reg
		res, err := Run(ctx, spec)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.WriteWearCSV(&buf); err != nil {
			t.Fatalf("WriteWearCSV: %v", err)
		}
		return res, buf.String()
	}

	reg := telemetry.NewRegistry()
	res1, csv1 := run(1, reg)
	checkGolden(t, "TestFleetWearDeterminism", []byte(csv1))
	_, csv4 := run(4, nil)
	if csv1 != csv4 {
		t.Fatalf("wear CSV differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", csv1, csv4)
	}

	if res1.Wear == nil {
		t.Fatal("traced run has nil Wear snapshot")
	}
	rows := map[string]wtrace.Row{}
	for _, r := range res1.Wear.Rows {
		rows[r.Origin] = r
	}
	for _, class := range []string{"benign", "buggy", "attack"} {
		r, ok := rows[class]
		if !ok || r.HostPages == 0 || r.PhysPages == 0 {
			t.Errorf("class %q: missing or empty ledger row: %+v", class, r)
		}
	}
	if rows["os"].PhysPages == 0 {
		t.Error("os origin has no wear; mkfs/format attribution lost")
	}
	tot := res1.Wear.Totals()
	if tot.PhysPages < tot.HostPages {
		t.Errorf("phys pages %d < host pages %d; WA below 1 is impossible", tot.PhysPages, tot.HostPages)
	}
	for _, r := range res1.Wear.Rows {
		if causes := r.HostPrograms + r.GCPrograms + r.WLPrograms + r.CachePrograms; r.PhysPages != causes {
			t.Errorf("origin %q: phys_pages %d != cause sum %d", r.Origin, r.PhysPages, causes)
		}
	}

	// The per-worker progress counters (fleetsim -progress reads these)
	// must account for every device, and brick/read-only tallies must
	// match the deterministic aggregates.
	var done, bricked, readOnly int64
	for _, p := range reg.Snapshot(0).Points {
		switch {
		case strings.HasPrefix(p.Name, "fleet.devices_done"):
			done += p.Int
		case strings.HasPrefix(p.Name, "fleet.bricks"):
			bricked += p.Int
		case strings.HasPrefix(p.Name, "fleet.read_only"):
			readOnly += p.Int
		}
	}
	if done != int64(res1.Total.Devices) {
		t.Errorf("fleet.devices_done sums to %d, want %d", done, res1.Total.Devices)
	}
	if bricked != res1.Total.Bricked {
		t.Errorf("fleet.bricks sums to %d, want %d", bricked, res1.Total.Bricked)
	}
	if readOnly < 0 || readOnly > int64(res1.Total.Devices) {
		t.Errorf("fleet.read_only sums to %d, outside [0, %d]", readOnly, res1.Total.Devices)
	}
}

// TestWriteWearCSVRequiresTracing pins the error path: asking an untraced
// result for its wear ledger must fail loudly, not emit an empty file.
func TestWriteWearCSVRequiresTracing(t *testing.T) {
	var res Result
	if err := res.WriteWearCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteWearCSV on an untraced run succeeded")
	}
}
