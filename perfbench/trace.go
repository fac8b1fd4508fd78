package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/experiments"
	"flashwear/internal/fleet"
	"flashwear/internal/fleetd"
	"flashwear/internal/fs"
	"flashwear/internal/fs/extfs"
	"flashwear/internal/fs/f2fs"
	"flashwear/internal/ftl"
	"flashwear/internal/hostio"
	"flashwear/internal/runtrace"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

// layers accumulates one traced iteration's per-layer counts and times;
// each re-drive worker fills its own, merged afterwards.
type layers struct {
	nandPrograms, nandErases, nandReads int64
	ftlHostPages, ftlGCCopies           int64

	devNew                          time.Duration
	devWriteN, devWriteBytes        int64
	devWrite                        time.Duration
	devReadN                        int64
	devRead                         time.Duration
	devFlushN, devDiscardN          int64
	devFlush, devDiscard            time.Duration
	extMkfs, extMount, extSelf      time.Duration
	extJournalBlocks, extDataBlocks int64
	f2fsMkfs, f2fsMount, f2fsSelf   time.Duration
	wlSetup, wlStep                 time.Duration
	fleetd                          [runtrace.NumPhases]time.Duration
	io                              ioCounters
}

// merge adds another worker's device-stack counts and times.
func (l *layers) merge(o *layers) {
	l.nandPrograms += o.nandPrograms
	l.nandErases += o.nandErases
	l.nandReads += o.nandReads
	l.ftlHostPages += o.ftlHostPages
	l.ftlGCCopies += o.ftlGCCopies
	l.devNew += o.devNew
	l.devWriteN += o.devWriteN
	l.devWriteBytes += o.devWriteBytes
	l.devWrite += o.devWrite
	l.devReadN += o.devReadN
	l.devRead += o.devRead
	l.devFlushN += o.devFlushN
	l.devDiscardN += o.devDiscardN
	l.devFlush += o.devFlush
	l.devDiscard += o.devDiscard
	l.extMkfs += o.extMkfs
	l.extMount += o.extMount
	l.extSelf += o.extSelf
	l.extJournalBlocks += o.extJournalBlocks
	l.extDataBlocks += o.extDataBlocks
	l.f2fsMkfs += o.f2fsMkfs
	l.f2fsMount += o.f2fsMount
	l.f2fsSelf += o.f2fsSelf
	l.wlSetup += o.wlSetup
	l.wlStep += o.wlStep
}

// deviceTime is the time spent below the blockdev shim so far.
func (l *layers) deviceTime() time.Duration {
	return l.devWrite + l.devRead + l.devFlush + l.devDiscard
}

// countDevice adds a finished device's NAND, FTL and extfs counters.
func (l *layers) countDevice(dev *device.Device, ext *extfs.FS) {
	f := dev.FTL()
	s := f.MainChip().Stats()
	l.nandPrograms += s.Programs
	l.nandErases += s.Erases
	l.nandReads += s.Reads
	if c := f.CacheChip(); c != nil {
		cs := c.Stats()
		l.nandPrograms += cs.Programs
		l.nandErases += cs.Erases
		l.nandReads += cs.Reads
	}
	fst := f.Stats()
	l.ftlHostPages += fst.HostPagesWritten
	l.ftlGCCopies += f.GCCopies()
	if ext != nil {
		es := ext.Stats()
		l.extJournalBlocks += es.JournalBlocks
		l.extDataBlocks += es.DataBlocks
	}
}

// timedStep wraps a workload step in a span, charging the span minus the
// device time under it to the file system's self time.
func timedStep(step core.StepFunc, l *layers, self *time.Duration) core.StepFunc {
	return func(budget int64) (int64, error) {
		dev0 := l.deviceTime()
		t0 := time.Now()
		n, err := step(budget)
		el := time.Since(t0)
		l.wlStep += el
		*self += el - (l.deviceTime() - dev0)
		return n, err
	}
}

func span(d *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*d += time.Since(t0)
	return err
}

// ---- fleet-wearout re-drive ----

// pacer holds a paced class's long-run write rate, as fleet's own pacer
// does: after each burst the device's clock idles until the bytes written
// so far are due.
type pacer struct {
	clock        *simclock.Clock
	step         core.StepFunc
	perSimSecond float64
	start        time.Duration
	started      bool
	written      int64
}

func (p *pacer) Step(budget int64) (int64, error) {
	if !p.started {
		p.started = true
		p.start = p.clock.Now()
	}
	n, err := p.step(budget)
	p.written += n
	due := time.Duration(float64(p.written) / p.perSimSecond * float64(time.Second))
	if owed := due - (p.clock.Now() - p.start); owed > 0 {
		p.clock.Advance(owed)
	}
	return n, err
}

// redriveDevice simulates one fleet device through public calls, the way
// fleet.Run does for a spec without faults, telemetry or wear tracing, and
// folds its outcome into g.
func redriveDevice(spec fleet.Spec, p fleet.Params, l *layers, g *fleet.Group) error {
	prof := spec.Profiles[p.ProfileIndex()].Profile
	prof.Seed = p.Seed
	eff := prof.EffectiveScale(spec.Scale)
	clock := simclock.New()
	var dev *device.Device
	if err := span(&l.devNew, func() (err error) {
		dev, err = device.New(prof.Scaled(spec.Scale), clock)
		return err
	}); err != nil {
		return err
	}
	bd := newDevShim(dev, l)
	fileSize := dev.Size() / 40
	if floor := 4 * spec.ReqBytes; fileSize < floor {
		fileSize = floor
	}
	var mounted *extfs.FS
	if err := span(&l.extMkfs, func() error { return extfs.Mkfs(bd) }); err != nil {
		return fmt.Errorf("mkfs: %w", err)
	}
	if err := span(&l.extMount, func() (err error) {
		mounted, err = extfs.Mount(bd, fs.Options{DataAccounting: true})
		return err
	}); err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	set := workload.NewFileSet(mounted, "/app", fileSize, p.Seed+1)
	set.ReqBytes = spec.ReqBytes
	if err := span(&l.wlSetup, set.Setup); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	runner := core.NewRunner(dev, clock, eff)
	runner.StepBytes = spec.StepBytes
	runner.Pattern = p.Class.String()
	step := timedStep(set.Step, l, &l.extSelf)
	if p.DailyBytes > 0 {
		step = (&pacer{clock: clock, step: step, perSimSecond: float64(p.DailyBytes) / (24 * 60 * 60)}).Step
	}
	horizonEnd := clock.Now() + time.Duration(spec.Days/float64(eff)*24*float64(time.Hour))
	diedBooting := false
	if err := runner.RunPhase(step, 0, func() bool { return clock.Now() >= horizonEnd }); err != nil {
		if !errors.Is(err, extfs.ErrCorrupt) && !errors.Is(err, extfs.ErrNotExtfs) {
			return err
		}
		diedBooting = true
	}
	rep := runner.Report()
	days := rep.TotalHours / 24
	g.Devices++
	g.HostMiB += (dev.BytesWritten() * eff) >> 20
	if rep.Bricked || diedBooting {
		g.Bricked++
		g.BrickDayMilli += int64(days * 1000)
	}
	l.countDevice(dev, mounted)
	return nil
}

// redriveWearout re-drives fleet-wearout's cells device by device, shared
// between workers as the untraced run shares them, tracing into l.
func redriveWearout(seed int64, l *layers) (outcome, error) {
	cells := stratify(wearoutDevices, seed)
	totals := make([]fleet.Group, len(cells))
	per := make([]layers, benchWorkers)
	err := share(len(cells), func(w, i int) error {
		cell := cells[i].Defaults()
		for d := 0; d < cell.Devices; d++ {
			if err := redriveDevice(cell, cell.Sample(d), &per[w], &totals[i]); err != nil {
				return fmt.Errorf("cell %d device %d: %w", i, d, err)
			}
		}
		return nil
	})
	if err != nil {
		return outcome{}, err
	}
	for w := range per {
		l.merge(&per[w])
	}
	return wearoutOutcome(totals, 0, totals)
}

// ---- exhibit-fig4 re-drive ----

// redriveFig4 re-drives the side-by-side Figure 4 exhibits, tracing into l.
func redriveFig4(l *layers) (outcome, error) {
	copies := make([][]experiments.WearRun, benchWorkers)
	per := make([]layers, benchWorkers)
	err := share(benchWorkers, func(_, i int) (err error) {
		copies[i], err = redriveFig4Copy(&per[i])
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	for w := range per {
		l.merge(&per[w])
	}
	return fig4Outcome(copies)
}

// redriveFig4Copy re-drives experiments.Figure4 through public calls: the
// same profile, scale, file set and stop level, one phone per file system.
func redriveFig4Copy(l *layers) ([]experiments.WearRun, error) {
	var runs []experiments.WearRun
	for _, kind := range []string{"Ext4", "F2FS"} {
		prof := device.ProfileMotoE8()
		clock := simclock.New()
		var dev *device.Device
		if err := span(&l.devNew, func() (err error) {
			dev, err = device.New(prof.Scaled(fig4Scale), clock)
			return err
		}); err != nil {
			return nil, err
		}
		eff := prof.EffectiveScale(fig4Scale)
		bd := newDevShim(dev, l)
		opts := fs.Options{DataAccounting: true}
		var fsys fs.FileSystem
		var ext *extfs.FS
		mkfsS, mountS, self := &l.extMkfs, &l.extMount, &l.extSelf
		mkfs := func() error { return extfs.Mkfs(bd) }
		mount := func() (err error) {
			ext, err = extfs.Mount(bd, opts)
			fsys = ext
			return err
		}
		if kind == "F2FS" {
			mkfsS, mountS, self = &l.f2fsMkfs, &l.f2fsMount, &l.f2fsSelf
			mkfs = func() error { return f2fs.Mkfs(bd) }
			mount = func() (err error) {
				fsys, err = f2fs.Mount(bd, opts)
				return err
			}
		}
		if err := span(mkfsS, mkfs); err != nil {
			return nil, err
		}
		if err := span(mountS, mount); err != nil {
			return nil, err
		}
		fileSize := int64(100<<20) / eff
		if fileSize < 64<<10 {
			fileSize = 64 << 10
		}
		set := workload.NewFileSet(fsys, "/wear", fileSize, 1234)
		set.NumFiles = 4
		set.ReqBytes = 4096
		set.SyncEvery = 1
		if set.TotalBytes() > dev.Size()/10 {
			size := dev.Size() / 40
			if size < set.ReqBytes {
				size = set.ReqBytes * 16
			}
			set.FileSize = size
		}
		if err := span(&l.wlSetup, set.Setup); err != nil {
			return nil, err
		}
		runner := core.NewRunner(dev, clock, eff)
		runner.Pattern = "4 KiB rand rewrite"
		runner.SpaceUtil = dev.FTL().Utilisation()
		step := timedStep(set.Step, l, self)
		if err := runner.RunPhase(step, 0, runner.UntilLevel(ftl.PoolB, fig4MaxLevel)); err != nil {
			return nil, err
		}
		runs = append(runs, experiments.WearRun{Label: "Moto E 8GB " + kind, Report: runner.Report()})
		l.countDevice(dev, ext)
	}
	return runs, nil
}

// ---- campaigns ----

// tracedCampaign runs the campaign with the hostio shim installed and
// reads fleetd's own phase totals.
func tracedCampaign(spec fleetd.CampaignSpec, tmp string, l *layers) (outcome, error) {
	inst, err := newCampaign(spec, tmp, fleetd.Options{FS: ioShim{FS: hostio.OS{}, c: &l.io}})
	if err != nil {
		return outcome{}, err
	}
	defer inst.close()
	o, err := inst.run()
	if err != nil {
		return outcome{}, err
	}
	totals := inst.m.Trace().Totals()
	for p := range totals {
		l.fleetd[p] = time.Duration(totals[p].Nanos)
	}
	return o, nil
}

// ---- the traced run ----

// layerMetrics lists every per-layer metric with the layer that must be
// observed for its value to mean anything.
func layerMetrics(l *layers) map[string]struct {
	layer string
	v     float64
} {
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	wa := 0.0
	if l.ftlHostPages > 0 {
		wa = float64(l.nandPrograms) / float64(l.ftlHostPages)
	}
	type lv = struct {
		layer string
		v     float64
	}
	return map[string]lv{
		"nand.programs":              {"nand", float64(l.nandPrograms)},
		"nand.erases":                {"nand", float64(l.nandErases)},
		"nand.reads":                 {"nand", float64(l.nandReads)},
		"ftl.host_pages":             {"ftl", float64(l.ftlHostPages)},
		"ftl.gc_copies":              {"ftl", float64(l.ftlGCCopies)},
		"ftl.wa":                     {"ftl", wa},
		"device.new_s":               {"device", l.devNew.Seconds()},
		"device.write_n":             {"device", float64(l.devWriteN)},
		"device.write_mib":           {"device", mib(l.devWriteBytes)},
		"device.write_s":             {"device", l.devWrite.Seconds()},
		"device.read_n":              {"device", float64(l.devReadN)},
		"device.read_s":              {"device", l.devRead.Seconds()},
		"device.flush_n":             {"device", float64(l.devFlushN)},
		"device.flush_s":             {"device", l.devFlush.Seconds()},
		"extfs.mkfs_s":               {"extfs", l.extMkfs.Seconds()},
		"extfs.mount_s":              {"extfs", l.extMount.Seconds()},
		"extfs.self_s":               {"extfs", l.extSelf.Seconds()},
		"extfs.journal_blocks":       {"extfs", float64(l.extJournalBlocks)},
		"extfs.data_blocks":          {"extfs", float64(l.extDataBlocks)},
		"f2fs.mkfs_s":                {"f2fs", l.f2fsMkfs.Seconds()},
		"f2fs.mount_s":               {"f2fs", l.f2fsMount.Seconds()},
		"f2fs.self_s":                {"f2fs", l.f2fsSelf.Seconds()},
		"workload.setup_s":           {"workload", l.wlSetup.Seconds()},
		"workload.step_s":            {"workload", l.wlStep.Seconds()},
		"fleetd.simulate_s":          {"fleetd", l.fleetd[runtrace.PhaseSimulate].Seconds()},
		"fleetd.checkpoint_encode_s": {"fleetd", l.fleetd[runtrace.PhaseCheckpointEncode].Seconds()},
		"fleetd.checkpoint_fsync_s":  {"fleetd", l.fleetd[runtrace.PhaseCheckpointFsync].Seconds()},
		"fleetd.journal_s":           {"fleetd", l.fleetd[runtrace.PhaseJournal].Seconds()},
		"fleetd.aggregate_s":         {"fleetd", l.fleetd[runtrace.PhaseAggregate].Seconds()},
		"hostio.write_mib":           {"hostio", mib(l.io.writeBytes.Load())},
		"hostio.write_s":             {"hostio", time.Duration(l.io.writeNs.Load()).Seconds()},
		"hostio.sync_n":              {"hostio", float64(l.io.syncN.Load())},
		"hostio.sync_s":              {"hostio", time.Duration(l.io.syncNs.Load()).Seconds()},
		"hostio.read_mib":            {"hostio", mib(l.io.readBytes.Load())},
		"hostio.read_s":              {"hostio", time.Duration(l.io.readNs.Load()).Seconds()},
		"hostio.rename_n":            {"hostio", float64(l.io.renameN.Load())},
	}
}

// gcClock reads the runtime's cumulative GC and non-idle CPU seconds and
// its GC cycle count.
func gcClock() (gc, used, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return f(0), f(1) - f(2), f(3)
}

// shimOverheadLimitPct is the most a shim may add to an iteration, in
// percent: half of device_days_per_s's 25% bound, so that a shim's cost
// can never pass for a regression the traced numbers should explain.
const shimOverheadLimitPct = 12.5

// measureLayers makes the --trace 1 run: an untraced iteration (the base
// for the overheads, and the runtime GC figures), a traced one, and a
// CPU-profiled untraced one.
func measureLayers(w *scenario, rep *report) (map[string][]float64, error) {
	runtime.GC()
	gc0, used0, n0 := gcClock()
	base, baseOut, err := timedIteration(w)
	if err != nil {
		return nil, err
	}
	gc1, used1, n1 := gcClock()

	l := &layers{}
	runtime.GC()
	t0 := time.Now()
	tracedOut, err := w.traced(l)
	tracedS := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("traced iteration: %w", err)
	}

	var profOut outcome
	shares, samples, err := profileShares(func() error {
		_, o, err := timedIteration(w)
		profOut = o
		return err
	})
	if err != nil {
		return nil, err
	}

	rep.check(w, []outcome{baseOut, profOut})
	// The traced iteration must have simulated exactly what the program
	// did; for fleet-wearout that is fleet.Run's Total in every cell.
	want := baseOut.match
	rep.Checks = append(rep.Checks, "traced iteration reproduces the untraced output")
	if tracedOut.match != want {
		rep.fail("traced iteration output %s differs from the program's %s", tracedOut.match, want)
	}
	rep.Iterations = 1

	pct := func(a, b float64) float64 { return (a - b) / a * 100 }
	baseRate := baseOut.deviceDays / base.seconds
	tracedRate := tracedOut.deviceDays / tracedS
	// Each shim's overhead is its calls in the traced iteration times its
	// measured cost per call, over the untraced iteration's CPU time: a
	// difference of two iterations would drown in run-to-run noise. The
	// calls are counted over all workers, so they are set against the CPU
	// time of all workers, not against the wall time of the iteration, in
	// which the workers' calls overlap.
	devCalls := l.devWriteN + l.devReadN + l.devFlushN + l.devDiscardN
	baseCPU := base.cpuSeconds
	if baseCPU <= 0 {
		return nil, errors.New("untraced iteration used no measurable CPU time")
	}
	values := map[string][]float64{
		"trace.overhead_pct":         {pct(baseRate, tracedRate)},
		"shim.blockdev_overhead_pct": {0},
		"shim.hostio_overhead_pct":   {0},
		"runtime.num_gc":             {n1 - n0},
		"runtime.gc_cpu_frac":        {0},
	}
	if devCalls > 0 {
		values["shim.blockdev_overhead_pct"] = []float64{float64(devCalls) * blockdevShimCost() / baseCPU * 100}
	}
	if n := l.io.calls.Load(); n > 0 {
		values["shim.hostio_overhead_pct"] = []float64{float64(n) * hostioShimCost() / baseCPU * 100}
	}
	for _, name := range []string{"shim.blockdev_overhead_pct", "shim.hostio_overhead_pct"} {
		rep.Checks = append(rep.Checks, fmt.Sprintf("%s below %g%%", name, shimOverheadLimitPct))
		if v := values[name][0]; v >= shimOverheadLimitPct {
			rep.fail("%s is %.1f%%, at or above %g%%", name, v, shimOverheadLimitPct)
		}
	}
	if used1 > used0 {
		values["runtime.gc_cpu_frac"] = []float64{(gc1 - gc0) / (used1 - used0)}
	}
	for k, v := range shares {
		values["cpu."+k] = []float64{v}
	}
	rep.addExtra("profile_samples", float64(samples))
	for name, m := range layerMetrics(l) {
		values[name] = []float64{m.v}
		for _, u := range w.unobserved {
			if m.layer == u {
				rep.Unobserved = append(rep.Unobserved, name)
			}
		}
	}
	sort.Strings(rep.Unobserved)
	return values, nil
}
