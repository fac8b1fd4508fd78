package fleetd

import (
	"bytes"
	"context"
	"testing"

	"flashwear/internal/fleet"
)

// tinySpec is the shared test campaign: small population, short horizon,
// aggressive scale so a run takes well under a second per device-day.
func tinySpec() CampaignSpec {
	return CampaignSpec{
		Name:      "tiny",
		Devices:   4,
		Days:      5,
		Seed:      42,
		Scale:     65536,
		Buggy:     0.25,
		Attack:    0.25,
		WearTrace: true,
		Workers:   2,
	}
}

// runToEnd submits spec on a fresh manager and waits for completion.
func runToEnd(t *testing.T, dataDir string, spec CampaignSpec) *Campaign {
	t.Helper()
	m, err := NewManager(dataDir)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if got := c.State(); got != StateDone {
		t.Fatalf("state = %s, want done", got)
	}
	return c
}

func TestCampaignInMemory(t *testing.T) {
	c := runToEnd(t, "", tinySpec())
	series := c.Series()
	if got, want := len(series.Rows), 5; got != want {
		t.Fatalf("series has %d rows, want %d", got, want)
	}
	for k, r := range series.Rows {
		if r[fleet.ColDevices] != 4 {
			t.Errorf("day %d: devices = %d, want 4", k, r[fleet.ColDevices])
		}
	}
	agg, final := c.Aggregate()
	if !final {
		t.Fatal("Aggregate not final after Wait")
	}
	if agg.Total.Devices != 4 {
		t.Errorf("aggregate devices = %d, want 4", agg.Total.Devices)
	}
	if len(c.Ledger().Rows) == 0 {
		t.Error("wear-traced campaign has empty ledger")
	}
	var buf bytes.Buffer
	if err := series.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if got := buf.String(); len(got) == 0 {
		t.Error("empty series CSV")
	}
}

// TestFirstBootDeathMatchesBatch runs one population through both engines
// under a plan that cuts power every 50 operations, so no phone finishes
// first-boot setup: both must count every phone as bricked.
func TestFirstBootDeathMatchesBatch(t *testing.T) {
	spec := tinySpec()
	spec.Devices = 2
	spec.Days = 1
	spec.Faults = "seed=1,cut-every=50"
	agg, _ := runToEnd(t, "", spec).Aggregate()
	fspec, err := spec.withDefaults().fleetSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(context.Background(), fspec)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	if agg.Total.Devices != 2 || agg.Total.Bricked != 2 {
		t.Errorf("campaign: Devices=%d Bricked=%d, want 2 and 2", agg.Total.Devices, agg.Total.Bricked)
	}
	if res.Total.Devices != agg.Total.Devices || res.Total.Bricked != agg.Total.Bricked {
		t.Errorf("batch Devices=%d Bricked=%d, campaign %d and %d",
			res.Total.Devices, res.Total.Bricked, agg.Total.Devices, agg.Total.Bricked)
	}
}
