package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"flashwear/internal/device"
	"flashwear/internal/experiments"
	"flashwear/internal/fleet"
	"flashwear/internal/fleetd"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
)

// Workload sizes, each a few seconds per iteration on a 2-core host.
const (
	// benchWorkers is how many simulations the benchmark runs side by side,
	// one per core. exhibit-fig4 runs that many identical copies and
	// requires them to agree: with one simulation and the other core left
	// to the collector, a run's median moved with host load about twice as
	// much (Figure 4 in one noisy hour: 14% against 6.5% spread over ten
	// interleaved iterations each). fleet-wearout shares its cells between
	// that many workers (see share).
	benchWorkers = 2

	// fleet-wearout simulates wearoutDevices phones for wearoutDays days.
	wearoutDevices = 16
	wearoutDays    = 30

	// campaignWorkers is the fleetd worker pool size; campaigns have many
	// small devices, so two workers stay balanced.
	campaignWorkers = 2

	// campaign-mem and campaign-ckpt share one population of benign
	// phones. With 5% buggy phones (two of 32, the count pinned), one seed
	// in five ran 5× slower than the rest on a 2-core host, as a buggy
	// phone's sampled write rate wore its device out; buggy phones run in
	// fleet-wearout instead.
	campaignDevices = 32
	campaignDays    = 30
	// campaignSlack is how far, in devices, each profile's count in a
	// campaign population may stray from devices × weight.
	campaignSlack = 1

	// exhibit-fig4: the Figure 4 exhibit at the scale and wear level the
	// experiments tests use.
	fig4Scale    = 2048
	fig4MaxLevel = 3
	// fig4PaperRatio is the paper's F2FS/ext4 host-GiB-per-increment
	// ratio: "roughly half".
	fig4PaperRatio = 0.5
)

// wearoutClasses is fleet-wearout's class mix: enough attack phones that
// flash wear dominates, a buggy tail, the rest benign.
var wearoutClasses = []fleet.ClassWeight{
	{Class: fleet.ClassAttack, Weight: 0.25},
	{Class: fleet.ClassBuggy, Weight: 0.05},
	{Class: fleet.ClassBenign, Weight: 0.70},
}

// outcome is what one iteration produced.
type outcome struct {
	digest     string
	requested  int
	devices    int
	failed     int
	deviceDays float64 // simulated device-days
	hostGiB    float64 // full-scale host GiB simulated
	ckptMiB    float64
	// paperErrPct is the error against the paper's reference, or -1 where
	// the workload has no reference to compare with.
	paperErrPct float64
	// match is what a traced re-drive must reproduce: the full digest, or
	// for fleet-wearout every cell's fleet.Run Total.
	match string
	// byProfile is a campaign's simulated devices per profile.
	byProfile map[string]int64
	// problem, when set, is an output invariant the iteration broke.
	problem string
}

// instance is one set-up workload, ready for one iteration.
type instance interface {
	run() (outcome, error)
	close()
}

type scenario struct {
	// setup does the program's own set-up: everything before the first
	// simulated work. It is what setup_s times.
	setup func() (instance, error)
	// checks run once per invocation on the first iteration's outcome;
	// each returns its description and an error if it failed.
	checks []func(outcome) (string, error)
	// traced runs one iteration with shims and spans recording into l.
	traced func(l *layers) (outcome, error)
	// unobserved names the layers the workload runs but no shim reaches;
	// their per-layer counts read 0.
	unobserved []string
}

func newWorkload(name string, seed int64, tmp string) (*scenario, error) {
	switch name {
	case "fleet-wearout":
		return wearoutWorkload(seed), nil
	case "campaign-mem":
		return campaignWorkload(seed, tmp, false), nil
	case "campaign-ckpt":
		return campaignWorkload(seed, tmp, true), nil
	case "exhibit-fig4":
		return fig4Workload(), nil
	}
	return nil, fmt.Errorf("no workload %q", name)
}

// subSeed derives the k-th seed from root with a splitmix64 finalizer.
func subSeed(root int64, k int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*uint64(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// buildDevices samples every device of spec and builds its simulated
// device, as the engines do before a device's first simulated write. The
// devices are dropped: this is the set-up half of setup_s, so that work
// moved from simulation into device construction shows there.
func buildDevices(spec fleet.Spec) error {
	for i := 0; i < spec.Devices; i++ {
		p := spec.Sample(i)
		prof := spec.Profiles[p.ProfileIndex()].Profile
		prof.Seed = p.Seed
		if _, err := device.New(prof.Scaled(spec.Scale), simclock.New()); err != nil {
			return err
		}
	}
	return nil
}

// share runs fn(w, i) for every index i in [0, n) on benchWorkers workers
// w, each taking the next index in order when it finishes one, and waits
// for all. For fleet-wearout the indexes are cells: stratify lists the
// attack cells, 1–2 s of work each that dominates an iteration, first;
// taken in that order they pair up into two nearly equal loads (on a
// 2-core host the busier worker finished within about 10% of the other),
// so an iteration takes half the time of one worker doing every cell.
// Which worker runs a cell never changes its output: every cell is its own
// fleet.Run.
func share(n int, fn func(w, i int) error) error {
	var next atomic.Int64
	errs := make([]error, benchWorkers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(w, i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ---- fleet-wearout ----

// apportion splits n into whole shares proportional to ws (weights that
// sum to 1) by the largest-remainder method, ties to the earlier weight.
func apportion(n int, ws []float64) []int {
	out := make([]int, len(ws))
	frac := make([]float64, len(ws))
	order := make([]int, len(ws))
	left := n
	for i, w := range ws {
		x := float64(n) * w
		out[i] = int(x)
		frac[i] = x - math.Floor(x)
		left -= out[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for _, i := range order[:left] {
		out[i]++
	}
	return out
}

// stratify splits an n-device population over the classes, and each
// class over the profiles, in exact proportion to the weights, giving one
// single-profile, single-class fleet.Spec per non-empty pair. A sampled
// mix would let the seed change how many 1–4 s attack phones a run holds;
// the strata fix the composition, and the seed still sets every device's
// NAND variation, write rates and offsets.
func stratify(n int, seed int64) []fleet.Spec {
	profiles := fleet.DefaultProfileMix()
	pw := make([]float64, len(profiles))
	for i, p := range profiles {
		pw[i] = p.Weight
	}
	cw := make([]float64, len(wearoutClasses))
	for i, c := range wearoutClasses {
		cw[i] = c.Weight
	}
	var cells []fleet.Spec
	for c, nc := range apportion(n, cw) {
		for p, np := range apportion(nc, pw) {
			if np == 0 {
				continue
			}
			cells = append(cells, fleet.Spec{
				Devices:  np,
				Workers:  1,
				Seed:     subSeed(seed, c*len(profiles)+p),
				Days:     wearoutDays,
				Profiles: []fleet.ProfileWeight{{Profile: profiles[p].Profile, Weight: 1}},
				Classes:  []fleet.ClassWeight{wearoutClasses[c]},
			})
		}
	}
	return cells
}

// cellOutput is the part of a fleet.Result that fleet-wearout fingerprints.
type cellOutput struct {
	Total  fleet.Group
	Failed int64
	Acc    *fleet.Accumulator
}

// wearoutOutcome sums the cells' totals. The digest fingerprints every
// cell's output; match fingerprints the cell totals alone, which the traced
// re-drive must reproduce.
func wearoutOutcome(totals []fleet.Group, failed int64, fingerprint any) (outcome, error) {
	var sum fleet.Group
	for _, g := range totals {
		sum.Devices += g.Devices
		sum.Bricked += g.Bricked
		sum.HostMiB += g.HostMiB
		sum.BrickDayMilli += g.BrickDayMilli
	}
	d, err := digestJSON(fingerprint)
	if err != nil {
		return outcome{}, err
	}
	m, err := digestJSON(totals)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		digest:      d,
		match:       m,
		requested:   wearoutDevices,
		devices:     int(sum.Devices + failed),
		failed:      int(failed),
		deviceDays:  float64(wearoutDevices * wearoutDays),
		hostGiB:     float64(sum.HostMiB) / 1024,
		paperErrPct: -1,
	}, nil
}

type wearoutInstance struct{ cells []fleet.Spec }

func (w *wearoutInstance) close() {}

func (w *wearoutInstance) run() (outcome, error) {
	totals := make([]fleet.Group, len(w.cells))
	outs := make([]cellOutput, len(w.cells))
	var failed atomic.Int64
	err := share(len(w.cells), func(_, i int) error {
		r, err := fleet.Run(context.Background(), w.cells[i])
		if err != nil {
			return err
		}
		totals[i] = r.Total
		failed.Add(r.Failed)
		outs[i] = cellOutput{Total: r.Total, Failed: r.Failed, Acc: r.Accumulator}
		return nil
	})
	if err != nil {
		return outcome{requested: wearoutDevices, failed: wearoutDevices, paperErrPct: -1}, nil
	}
	return wearoutOutcome(totals, failed.Load(), outs)
}

func wearoutWorkload(seed int64) *scenario {
	w := &scenario{}
	w.setup = func() (instance, error) {
		cells := stratify(wearoutDevices, seed)
		for i := range cells {
			cells[i] = cells[i].Defaults()
			if err := cells[i].Validate(); err != nil {
				return nil, err
			}
			if err := buildDevices(cells[i]); err != nil {
				return nil, err
			}
		}
		return &wearoutInstance{cells: cells}, nil
	}
	w.traced = func(l *layers) (outcome, error) { return redriveWearout(seed, l) }
	return w
}

// ---- campaign-mem / campaign-ckpt ----

// campaignPopulation returns the campaign's root seed and the per-profile
// device counts it samples. fleetd samples profiles from the default mix
// by seed, so the benchmark takes the first seed derived from root whose
// population sits within campaignSlack devices of the declared mix in
// every profile; a reboot costs in proportion to capacity, and an
// unmatched draw moves the cost of a run by ±10% from seed to seed.
func campaignPopulation(root int64) (int64, map[string]int64) {
	mix := fleet.DefaultProfileMix()
	for k := 0; ; k++ {
		cand := subSeed(root, k)
		fs := campaignFleetSpec(cand)
		counts := make([]int, len(mix))
		for i := 0; i < campaignDevices; i++ {
			counts[fs.Sample(i).ProfileIndex()]++
		}
		ok := true
		for p, pw := range mix {
			if math.Abs(float64(counts[p])-campaignDevices*pw.Weight) > campaignSlack {
				ok = false
				break
			}
		}
		if ok {
			byName := map[string]int64{}
			for p, pw := range mix {
				if counts[p] > 0 {
					byName[pw.Profile.Name] = int64(counts[p])
				}
			}
			return cand, byName
		}
	}
}

// campaignFleetSpec is the fleet.Spec a benign-only campaign with this
// seed samples its devices from.
func campaignFleetSpec(seed int64) fleet.Spec {
	return fleet.Spec{Devices: campaignDevices, Seed: seed, Classes: []fleet.ClassWeight{
		{Class: fleet.ClassBenign, Weight: 1}, {Class: fleet.ClassBuggy}, {Class: fleet.ClassAttack},
	}}.Defaults()
}

func campaignSpec(seed int64, ckpt bool) fleetd.CampaignSpec {
	s := fleetd.CampaignSpec{
		Name:    "perfbench",
		Devices: campaignDevices,
		Days:    campaignDays,
		Seed:    seed,
		Workers: campaignWorkers,
	}
	if ckpt {
		s.CheckpointEvery = 1
	}
	return s
}

type campaignInstance struct {
	m    *fleetd.Manager
	spec fleetd.CampaignSpec
	dir  string
}

// newCampaign is the campaign workloads' set-up: the data directory (for
// checkpointed campaigns), Manager construction with adoption of that
// directory, spec validation and the population's devices.
func newCampaign(spec fleetd.CampaignSpec, tmp string, opts fleetd.Options) (*campaignInstance, error) {
	inst := &campaignInstance{spec: spec}
	if spec.CheckpointEvery > 0 {
		dir, err := os.MkdirTemp(tmp, "ckpt-")
		if err != nil {
			return nil, err
		}
		inst.dir = dir
		opts.DataDir = dir
	}
	m, err := fleetd.NewManagerOpts(opts)
	if err != nil {
		inst.close()
		return nil, err
	}
	inst.m = m
	if err := spec.Validate(); err != nil {
		inst.close()
		return nil, err
	}
	if err := buildDevices(campaignFleetSpec(spec.Seed)); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func (c *campaignInstance) close() {
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// campaignOutput is what a campaign workload fingerprints: the final
// Aggregate and the day series CSV, the outputs DESIGN §11 makes
// independent of CheckpointEvery.
type campaignOutput struct {
	Aggregate *fleetd.Aggregate
	SeriesCSV string
}

func (c *campaignInstance) run() (outcome, error) {
	o := outcome{requested: c.spec.Devices, paperErrPct: -1}
	camp, err := c.m.Submit(c.spec)
	if err != nil {
		return outcome{}, err
	}
	if err := camp.Wait(); err != nil {
		o.failed = c.spec.Devices
		return o, nil
	}
	agg, final := camp.Aggregate()
	if !final {
		return outcome{}, errors.New("campaign finished without a final aggregate")
	}
	var csv bytes.Buffer
	if err := camp.Series().WriteCSV(&csv); err != nil {
		return outcome{}, err
	}
	o.digest, err = digestJSON(campaignOutput{Aggregate: agg, SeriesCSV: csv.String()})
	if err != nil {
		return outcome{}, err
	}
	o.match = o.digest
	o.devices = int(agg.Total.Devices)
	o.deviceDays = float64(agg.Total.Devices * int64(c.spec.Days))
	o.hostGiB = float64(agg.Total.HostMiB) / 1024
	o.ckptMiB = float64(c.m.Metrics().CheckpointBytes.Value()) / (1 << 20)
	o.byProfile = map[string]int64{}
	for _, g := range agg.ByProfile {
		o.byProfile[g.Name] = g.Devices
	}
	return o, nil
}

func campaignWorkload(root int64, tmp string, ckpt bool) *scenario {
	seed, counts := campaignPopulation(root)
	spec := campaignSpec(seed, ckpt)
	w := &scenario{}
	w.setup = func() (instance, error) { return newCampaign(spec, tmp, fleetd.Options{}) }
	w.checks = []func(outcome) (string, error){
		func(o outcome) (string, error) {
			desc := "campaign simulated the profile composition the benchmark sampled"
			for p, n := range counts {
				if o.byProfile[p] != n {
					return desc, fmt.Errorf("profile %s: %d devices, want %d", p, o.byProfile[p], n)
				}
			}
			return desc, nil
		},
		func(o outcome) (string, error) {
			other := campaignSpec(seed, !ckpt)
			desc := fmt.Sprintf("Aggregate JSON and series CSV identical with checkpoint_every=%d", other.CheckpointEvery)
			inst, err := newCampaign(other, tmp, fleetd.Options{})
			if err != nil {
				return desc, err
			}
			defer inst.close()
			ref, err := inst.run()
			if err != nil {
				return desc, err
			}
			if ref.failed != 0 || ref.digest != o.digest {
				return desc, fmt.Errorf("digest %s, want %s", ref.digest, o.digest)
			}
			return desc, nil
		},
	}
	w.traced = func(l *layers) (outcome, error) { return tracedCampaign(spec, tmp, l) }
	w.unobserved = []string{"nand", "ftl", "device", "extfs", "workload"}
	return w
}

// ---- exhibit-fig4 ----

type fig4Instance struct{ cfg experiments.Config }

func (f *fig4Instance) close() {}

// fig4Phones is how many phones one iteration simulates: ext4 and F2FS in
// each of the side-by-side exhibits.
const fig4Phones = 2 * benchWorkers

func (f *fig4Instance) run() (outcome, error) {
	copies := make([][]experiments.WearRun, benchWorkers)
	err := share(benchWorkers, func(_, i int) (err error) {
		copies[i], err = experiments.Figure4(f.cfg)
		return err
	})
	if err != nil {
		return outcome{requested: fig4Phones, failed: fig4Phones, paperErrPct: -1}, nil
	}
	return fig4Outcome(copies)
}

// fig4Outcome summarises the side-by-side exhibits, which must agree: all
// phones' simulated time and host volume, and the F2FS/ext4
// volume-per-increment ratio against the paper.
func fig4Outcome(copies [][]experiments.WearRun) (outcome, error) {
	d, err := digestJSON(copies[0])
	if err != nil {
		return outcome{}, err
	}
	o := outcome{digest: d, match: d, requested: fig4Phones, paperErrPct: -1}
	for _, runs := range copies {
		if dc, err := digestJSON(runs); err != nil || dc != d {
			o.problem = "the side-by-side Figure 4 exhibits differ"
		}
		o.devices += len(runs)
		for _, r := range runs {
			o.deviceDays += r.Report.TotalHours / 24
			o.hostGiB += r.Report.TotalHostGiB
			incs := r.Report.IncrementsFor(ftl.PoolB)
			if r.Report.Bricked || len(incs) == 0 || incs[len(incs)-1].ToLevel < fig4MaxLevel {
				o.problem = fmt.Sprintf("%s bricked or stopped short of wear level %d", r.Label, fig4MaxLevel)
			}
		}
	}
	if runs := copies[0]; len(runs) == 2 {
		ext4 := runs[0].Report.MeanHostGiBPerIncrement(ftl.PoolB)
		f2 := runs[1].Report.MeanHostGiBPerIncrement(ftl.PoolB)
		if ext4 > 0 {
			o.paperErrPct = math.Abs(f2/ext4-fig4PaperRatio) / fig4PaperRatio * 100
		}
	}
	return o, nil
}

func fig4Workload() *scenario {
	w := &scenario{}
	w.setup = func() (instance, error) {
		cfg := experiments.Config{Scale: fig4Scale, MaxLevel: fig4MaxLevel}.Defaults()
		for i := 0; i < fig4Phones; i++ {
			if _, err := device.New(device.ProfileMotoE8().Scaled(cfg.Scale), simclock.New()); err != nil {
				return nil, err
			}
		}
		return &fig4Instance{cfg: cfg}, nil
	}
	w.checks = []func(outcome) (string, error){
		func(o outcome) (string, error) {
			desc := "F2FS/ext4 host-GiB-per-increment ratio within (0, 1)"
			if o.paperErrPct < 0 || o.paperErrPct >= 100 {
				return desc, fmt.Errorf("paper error %.1f%%", o.paperErrPct)
			}
			return desc, nil
		},
	}
	w.traced = func(l *layers) (outcome, error) { return redriveFig4(l) }
	return w
}
