package fleet

import (
	"context"
	"sync/atomic"
	"time"

	"flashwear/internal/faultinject"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
	"flashwear/internal/wtrace"
)

// DeviceResult is the outcome of one simulated phone. Volumes and times
// are full-scale (the per-device capacity scaling is already multiplied
// back).
type DeviceResult struct {
	Index       int
	ProfileName string
	Class       Class
	// Bricked reports device death within the horizon.
	Bricked bool
	// ReadOnly reports that the death was the graceful JEDEC read-only
	// retirement rather than a hard brick (a subset of Bricked deaths).
	ReadOnly bool
	// Days is the time from workload start to brick (or to the horizon
	// for survivors), in full-scale days.
	Days float64
	// HostBytes is total host data the device absorbed, including the
	// initial file-system and file-set fill.
	HostBytes int64
	// WearLevel is the final Type B JEDEC wear-indicator level (FTL
	// ground truth, so it is meaningful even on BLU-class devices whose
	// registers read garbage).
	WearLevel int
	// WA is the device's cumulative write amplification.
	WA float64

	// metrics is the device's padded row set (nil unless
	// Spec.MetricsEvery is set); see metrics.go.
	metrics [][]int64
	// wear is the device's full-scale wear ledger (zero-value unless
	// Spec.WearTrace is set).
	wear wtrace.Snapshot
}

// remounts counts power-loss recoveries across all devices of all runs —
// schedule-independent in total, never part of a Result; tests read it to
// prove a fault plan actually exercised the recovery path.
var remounts atomic.Int64

// simulateDevice runs one phone from install to brick or horizon. It is
// self-contained: everything it touches is built here, so concurrent calls
// share no mutable state.
func simulateDevice(ctx context.Context, spec Spec, p Params) (DeviceResult, error) {
	var plan *faultinject.Plan
	if spec.Faults != nil && !spec.Faults.Empty() {
		// Re-seed the plan per device: fault schedules stay independent
		// across the population but are a pure function of the Spec.
		pl := spec.Faults.WithSeed(spec.Faults.Seed + p.Seed)
		plan = &pl
	}
	ph, err := NewPhone(spec, p, plan, simclock.New())
	if err != nil {
		return DeviceResult{}, err
	}

	// Metrics rows are sampled from device birth — before mkfs, so the
	// file-system fill is part of the trajectory — at the scaled cadence:
	// full-scale MetricsEvery divides by the effective scale exactly as the
	// horizon does, so row k is the device at full-scale age (k+1)*Every.
	var rows [][]int64
	if spec.MetricsEvery > 0 {
		every := spec.MetricsEvery / time.Duration(ph.Eff)
		if every <= 0 {
			return DeviceResult{}, ph.errorf("MetricsEvery %v vanishes at scale %d", spec.MetricsEvery, ph.Eff)
		}
		stop := ph.Clock.Every(every, func() {
			row, _ := ph.Row(false)
			rows = append(rows, row)
		})
		defer stop()
	}

	dead, err := ph.FirstBoot()
	if err != nil {
		return DeviceResult{}, err
	}
	if !dead {
		// The horizon in scaled simulated time: full-scale days divide by
		// the effective scale, mirroring how the runner multiplies times
		// back.
		horizonEnd := ph.Clock.Now() + time.Duration(spec.Days/float64(ph.Eff)*24*float64(time.Hour))
		dead, err = ph.Run(func() bool {
			return ph.Clock.Now() >= horizonEnd || ctx.Err() != nil
		})
		if err != nil {
			return DeviceResult{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return DeviceResult{}, err
	}
	rep := ph.runner.Report()
	bricked := rep.Bricked || dead
	res := DeviceResult{
		Index:       p.Index,
		ProfileName: ph.Name,
		Class:       p.Class,
		Bricked:     bricked,
		ReadOnly:    ph.Dev.ReadOnly(),
		Days:        rep.TotalHours / 24,
		HostBytes:   ph.Dev.BytesWritten() * ph.Eff,
		WearLevel:   ph.Dev.FTL().WearIndicator(ftl.PoolB),
		WA:          rep.FinalWA,
	}
	if spec.MetricsEvery > 0 {
		// Exactly metricRowCount rows: a device that died early freezes at
		// its final row for the remaining intervals; a survivor that
		// overshot the horizon by part of a step is clipped back to it.
		n := metricRowCount(spec)
		if len(rows) > n {
			rows = rows[:n]
		}
		if len(rows) < n {
			final, _ := ph.Row(bricked)
			for len(rows) < n {
				rows = append(rows, final)
			}
		}
		res.metrics = rows
	}
	if ph.Tracer != nil {
		// Scale each integer count back to full scale before aggregation,
		// exactly as the metrics rows are, so the merged fleet ledger is a
		// pure function of the Spec (DESIGN.md §6).
		snap := ph.Tracer.Ledger().Snapshot()
		snap.Scale(ph.Eff)
		res.wear = snap
	}
	return res, nil
}
