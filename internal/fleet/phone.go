package fleet

import (
	"errors"
	"fmt"
	"math"
	"time"

	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/faultinject"
	"flashwear/internal/fs"
	"flashwear/internal/fs/extfs"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
	"flashwear/internal/wtrace"
)

// Column layout of one phone's row (Phone.Row). Every column is an integer
// — full-scale (capacity scaling multiplied back) and, for the wear/error
// gauges, fixed-point — so that summing rows over devices, workers, shards
// and epochs is exactly associative and commutative. Derived floats (write
// amplification, population means) are computed only at render time, from
// identical integer sums. The layout is also the fleetd checkpoint's day
// row layout: reordering it breaks stored cells.
const (
	// ColDevices is 1 per phone; summed, the contributing population
	// (bricked phones freeze at their final row, they do not drop out).
	ColDevices = iota
	// ColBricked is 1 for a dead phone: hard brick, read-only retirement,
	// or a failed boot.
	ColBricked
	// ColReadOnly is 1 for a phone retired into JEDEC read-only mode.
	ColReadOnly
	// ColHostBytes is full-scale host data absorbed.
	ColHostBytes
	// ColFlashBytes is full-scale data physically programmed into NAND
	// (main + cache chips); ColFlashBytes/ColHostBytes is the WA.
	ColFlashBytes
	// ColFlashErases is full-scale block erases (main + cache).
	ColFlashErases
	// ColBadBlocks is full-scale blocks retired (main + cache).
	ColBadBlocks
	// ColWearAvgMicro is the main chip's average wear in micro-units.
	ColWearAvgMicro
	// ColWearMaxMicro is the main chip's hottest-block wear in micro-units.
	ColWearMaxMicro
	// ColRawBERFemto is the main chip's expected raw bit error rate in
	// femto-units (x1e15).
	ColRawBERFemto
	// ColWearLevel is the JEDEC Type B wear-indicator level.
	ColWearLevel

	// Cols is the row width.
	Cols
)

// bootAttempts bounds how many consecutive power cuts a boot absorbs: a
// schedule so hot the phone can never come back up counts as dead.
const bootAttempts = 8

// Phone is one simulated phone — its device stack on its own clock — and
// the lifecycle both engines drive it through: first boot, remount after a
// power loss, the paced workload run, and the integer row sample. Batch
// Run boots a phone once and runs it to the horizon; a fleetd campaign
// rebuilds one from captured chip state at every simulated day boundary
// and remounts it (DESIGN.md §11). That reboot cadence is the only
// difference between the engines.
//
// A Phone is not safe for concurrent use.
type Phone struct {
	Params Params
	// Name is the sampled profile's name.
	Name string
	// Eff is the effective capacity scale: scaled volumes and times
	// multiply by it to full scale.
	Eff   int64
	Clock *simclock.Clock
	Dev   *device.Device
	// Tracer is the wear-attribution tracer (nil unless Spec.WearTrace).
	Tracer *wtrace.Tracer
	// Set is the workload file set (nil until FirstBoot or RestoreSet).
	Set *workload.FileSet
	// WorkStart is the clock when first-boot setup ended: the zero point
	// of the workload's time.
	WorkStart time.Duration

	reqBytes int64
	clsOrg   wtrace.Origin
	runner   *core.Runner
	step     core.StepFunc
}

// NewPhone builds device p of spec on clock, injecting faults from plan
// (nil for none). The stack is unformatted: FirstBoot formats and fills
// it, or the caller restores captured state and calls RestoreSet and
// Remount.
func NewPhone(spec Spec, p Params, plan *faultinject.Plan, clock *simclock.Clock) (*Phone, error) {
	prof := spec.Profiles[p.profile.idx].Profile
	prof.Seed = p.Seed
	if plan != nil {
		prof.Faults = plan
	}
	dev, err := device.New(prof.Scaled(spec.Scale), clock)
	if err != nil {
		return nil, fmt.Errorf("fleet: device %d (%s): %w", p.Index, prof.Name, err)
	}
	ph := &Phone{
		Params:   p,
		Name:     prof.Name,
		Eff:      prof.EffectiveScale(spec.Scale),
		Clock:    clock,
		Dev:      dev,
		reqBytes: spec.ReqBytes,
	}
	// Wear attribution attaches at device birth: the mkfs/mount/fill phase
	// runs untagged (origin "os"), and the workload file system is wrapped
	// so every operation it issues — and all the GC, wear-leveling, and
	// cache work those writes cause — is charged to the workload class.
	if spec.WearTrace {
		ph.Tracer = wtrace.New()
		dev.EnableWearTrace(ph.Tracer)
		ph.clsOrg = ph.Tracer.Origin(p.Class.String())
	}
	ph.runner = core.NewRunner(dev, clock, ph.Eff)
	ph.runner.StepBytes = spec.StepBytes
	ph.runner.Pattern = p.Class.String()
	return ph, nil
}

func (ph *Phone) errorf(format string, args ...any) error {
	return fmt.Errorf("fleet: device %d (%s): "+format, append([]any{ph.Params.Index, ph.Name}, args...)...)
}

// newSet builds the paper's file-set shape on fsys: a few files in a
// private directory, rewritten at random offsets — under a few percent of
// capacity at full scale, clamped up so tiny scaled devices still have
// room for random addressing.
func (ph *Phone) newSet(fsys fs.FileSystem) *workload.FileSet {
	size := ph.Dev.Size() / 40
	if min := 4 * ph.reqBytes; size < min {
		size = min
	}
	set := workload.NewFileSet(fsys, "/app", size, ph.Params.Seed+1)
	set.ReqBytes = ph.reqBytes
	return set
}

// RestoreSet gives a phone rebuilt from captured state its workload file
// set, detached until Remount attaches it: the lifetime rewrite count
// restored and the offset stream re-keyed by seed.
func (ph *Phone) RestoreSet(writes int, seed int64) {
	ph.Set = ph.newSet(nil)
	ph.Set.Restore(writes)
	ph.Set.Reseed(seed)
}

// mount mounts the file system, tagged with the workload class when wear
// tracing is on.
func (ph *Phone) mount() (fs.FileSystem, error) {
	mounted, err := extfs.Mount(ph.Dev, fs.Options{DataAccounting: true})
	if err != nil {
		return nil, err
	}
	if ph.Tracer != nil {
		return wtrace.TagFS(mounted, ph.Tracer, ph.clsOrg), nil
	}
	return mounted, nil
}

func powerLoss(err error) bool {
	return errors.Is(err, device.ErrPowerLoss) || errors.Is(err, ftl.ErrPowerLoss)
}

// bootDeath reports whether a boot error means the phone is dead rather
// than the simulation broken: the device came up bricked or read-only, a
// page the journal needs rotted past ECC (ErrUnreadable), or extreme wear
// destroyed metadata GC could no longer relocate (ftl.Stats.LostPages) —
// the superblock itself can rot (ErrCorrupt/ErrNotExtfs). Either way the
// phone does not boot, which is the paper's brick.
func bootDeath(err error) bool {
	return errors.Is(err, device.ErrBricked) || errors.Is(err, ftl.ErrBricked) ||
		errors.Is(err, device.ErrReadOnly) || errors.Is(err, ftl.ErrReadOnly) ||
		errors.Is(err, ftl.ErrUnreadable) ||
		errors.Is(err, extfs.ErrCorrupt) || errors.Is(err, extfs.ErrNotExtfs)
}

// FirstBoot runs mkfs, mount and the initial file fill. Like a phone that
// loses power during first boot, an injected power cut power-cycles the
// device and setup starts over, up to bootAttempts more times; the retry
// count is deterministic, so so is the rebuilt file set. died reports a
// phone that never finished setup — a boot death, or one cut too many —
// which is a dead phone, not a failed simulation. WorkStart is set either
// way.
func (ph *Phone) FirstBoot() (died bool, err error) {
	defer func() { ph.WorkStart = ph.Clock.Now() }()
	for attempt := 0; ; attempt++ {
		err := ph.setup()
		switch {
		case err == nil:
			return false, nil
		case powerLoss(err) && attempt < bootAttempts:
			if err := ph.Dev.PowerCycle(); err != nil {
				return false, ph.errorf("power cycle: %w", err)
			}
		case powerLoss(err) || bootDeath(err):
			return true, nil
		default:
			return false, ph.errorf("%w", err)
		}
	}
}

func (ph *Phone) setup() error {
	if err := extfs.Mkfs(ph.Dev); err != nil {
		return fmt.Errorf("mkfs: %w", err)
	}
	fsys, err := ph.mount()
	if err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	ph.Set = ph.newSet(fsys)
	if err := ph.Set.Setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return nil
}

// Remount boots the phone after a power loss: power-cycle (the FTL
// rebuilds its mapping from on-flash OOB metadata), mount, and reattach
// the working files. A cut inside the boot cycles and tries again, up to
// bootAttempts in all. died reports a phone that does not come back up.
func (ph *Phone) Remount() (died bool, err error) {
	for attempt := 0; attempt < bootAttempts; attempt++ {
		if err := ph.Dev.PowerCycle(); err != nil {
			return false, ph.errorf("power cycle: %w", err)
		}
		fsys, err := ph.mount()
		if err == nil {
			err = ph.Set.Reattach(fsys)
		}
		switch {
		case err == nil:
			return false, nil
		case powerLoss(err):
		case bootDeath(err):
			return true, nil
		default:
			return false, ph.errorf("remount: %w", err)
		}
	}
	return true, nil
}

// Run drives the workload until stop reports true or the phone dies. A
// power cut surfaces as a power-loss error from the step function; like a
// real phone the device remounts and the workload resumes. A device that
// recovers into read-only EOL mode fails its next write, and the runner
// reports it failed. dead reports the phone dead at return: bricked or
// retired per the runner, unable to boot, or with file-system structure
// corrupted by wear out from under the workload.
func (ph *Phone) Run(stop func() bool) (dead bool, err error) {
	if ph.step == nil {
		ph.step = ph.Set.Step
		if ph.Params.DailyBytes > 0 {
			ph.step = (&pacer{
				clock:        ph.Clock,
				step:         ph.Set.Step,
				perSimSecond: float64(ph.Params.DailyBytes) / (24 * 60 * 60),
			}).Step
		}
	}
	for {
		err := ph.runner.RunPhase(ph.step, 0, stop)
		switch {
		case err == nil:
			return ph.runner.Report().Bricked, nil
		case errors.Is(err, extfs.ErrCorrupt) || errors.Is(err, extfs.ErrNotExtfs):
			// RunPhase classifies the device-level death errors itself.
			return true, nil
		case !powerLoss(err):
			return false, ph.errorf("%w", err)
		}
		if died, err := ph.Remount(); died || err != nil {
			return died, err
		}
		remounts.Add(1)
	}
}

// pacer wraps a StepFunc to hold its long-run average to a target rate:
// after each burst it idles the device's clock until the bytes written so
// far are "due" at that rate. Benign phones therefore spend almost all
// simulated time idle, exactly like real ones, and simulated wear stays a
// function of volume, not of polling granularity.
type pacer struct {
	clock *simclock.Clock
	step  core.StepFunc
	// perSimSecond is the target rate in bytes per simulated second.
	// Capacity scaling preserves rates (volume and time divide by the
	// same factor), so the full-scale daily rate applies unchanged on the
	// scaled device.
	perSimSecond float64

	start   time.Duration
	started bool
	written int64
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

// Row samples the phone into one Cols-wide row, and returns its Type B
// wear level. It is pure reads of device, FTL and chip state, valid on
// dead stacks too (a bricked chip still reports wear); died marks a phone
// whose death the device does not show itself, such as a failed boot.
func (ph *Phone) Row(died bool) (row []int64, wearLevel int) {
	f := ph.Dev.FTL()
	main := f.MainChip()
	row = make([]int64, Cols)
	row[ColDevices] = 1
	if died || ph.Dev.Failed() {
		row[ColBricked] = 1
	}
	if ph.Dev.ReadOnly() {
		row[ColReadOnly] = 1
	}
	row[ColHostBytes] = ph.Dev.BytesWritten() * ph.Eff
	ms := main.Stats()
	flashBytes, erases, bad := ms.BytesProgrammed, ms.Erases, int64(ms.BadBlocks)
	if cc := f.CacheChip(); cc != nil {
		cs := cc.Stats()
		flashBytes += cs.BytesProgrammed
		erases += cs.Erases
		bad += int64(cs.BadBlocks)
	}
	row[ColFlashBytes] = flashBytes * ph.Eff
	row[ColFlashErases] = erases * ph.Eff
	row[ColBadBlocks] = bad * ph.Eff
	row[ColWearAvgMicro] = fixedPoint(main.AvgWear(), 1e6)
	row[ColWearMaxMicro] = fixedPoint(main.MaxWear(), 1e6)
	row[ColRawBERFemto] = fixedPoint(main.ExpectedRBER(), 1e15)
	wearLevel = f.WearIndicator(ftl.PoolB)
	row[ColWearLevel] = int64(wearLevel)
	return row, wearLevel
}

// fixedPoint converts a gauge to integer fixed point, mapping the
// non-finite values a fully-dead chip can report to zero.
func fixedPoint(v float64, scale float64) int64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return int64(math.Round(v * scale))
}
