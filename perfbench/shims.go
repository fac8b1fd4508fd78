package main

import (
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"flashwear/internal/blockdev"
	"flashwear/internal/hostio"
)

// shimSampleEvery is the blockdev shim's mean timing interval: it counts
// every call but reads the clock around one call in about this many and
// scales the sampled time up. A fleet-wearout iteration makes millions of
// 4 KiB device calls; two clock reads on each would slow it by a third.
const shimSampleEvery = 64

// devShim is the blockdev.Device shim between a file system and its
// device: it forwards every call unchanged, counts it, and times a sample.
type devShim struct {
	dev  blockdev.Device
	l    *layers
	left uint32 // calls until the next timed one
	rng  uint32
}

var _ blockdev.Device = (*devShim)(nil)

func newDevShim(dev blockdev.Device, l *layers) *devShim {
	return &devShim{dev: dev, l: l, left: 1, rng: 2463534242}
}

// sampled reports whether this call is the one to time, drawing the gap
// to the next timed call from [1, 2*shimSampleEvery) with a xorshift so
// the sample cannot line up with a periodic pattern such as a journal
// commit. It is small enough to inline, so an untimed call pays a
// decrement and a branch; timed runs the timed call out of line.
func (s *devShim) sampled() bool {
	s.left--
	return s.left == 0
}

// timed runs fn, the sampled call, and adds its scaled-up duration to d.
func (s *devShim) timed(d *time.Duration, fn func() error) error {
	x := s.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	s.rng = x
	s.left = 1 + x%(2*shimSampleEvery-1)
	t0 := time.Now()
	err := fn()
	if el := time.Since(t0) - clockCost; el > 0 {
		*d += shimSampleEvery * el
	}
	return err
}

// clockCost is what a time.Now/time.Since pair adds to the interval it
// measures; sampled device calls take it off, or the scaled-up samples
// would overstate device time by shimSampleEvery clock reads per sample.
var clockCost = func() time.Duration {
	const n, rounds = 1 << 14, 9
	ds := make([]time.Duration, rounds)
	for r := range ds {
		var sum time.Duration
		for i := 0; i < n; i++ {
			sum += time.Since(time.Now())
		}
		ds[r] = sum / n
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[rounds/2]
}()

func (s *devShim) ReadAt(p []byte, off int64) error {
	s.l.devReadN++
	if s.sampled() {
		return s.timed(&s.l.devRead, func() error { return s.dev.ReadAt(p, off) })
	}
	return s.dev.ReadAt(p, off)
}

func (s *devShim) WriteAt(p []byte, off int64) error {
	s.l.devWriteN++
	s.l.devWriteBytes += int64(len(p))
	if s.sampled() {
		return s.timed(&s.l.devWrite, func() error { return s.dev.WriteAt(p, off) })
	}
	return s.dev.WriteAt(p, off)
}

func (s *devShim) WriteAccounted(off, length int64) error {
	s.l.devWriteN++
	s.l.devWriteBytes += length
	if s.sampled() {
		return s.timed(&s.l.devWrite, func() error { return s.dev.WriteAccounted(off, length) })
	}
	return s.dev.WriteAccounted(off, length)
}

func (s *devShim) Discard(off, length int64) error {
	s.l.devDiscardN++
	if s.sampled() {
		return s.timed(&s.l.devDiscard, func() error { return s.dev.Discard(off, length) })
	}
	return s.dev.Discard(off, length)
}

func (s *devShim) Flush() error {
	s.l.devFlushN++
	if s.sampled() {
		return s.timed(&s.l.devFlush, func() error { return s.dev.Flush() })
	}
	return s.dev.Flush()
}

func (s *devShim) Size() int64     { return s.dev.Size() }
func (s *devShim) SectorSize() int { return s.dev.SectorSize() }

// ioCounters are the hostio shim's totals; fleetd may call the shim from
// several goroutines.
type ioCounters struct {
	calls                                                          atomic.Int64
	writeBytes, writeNs, syncN, syncNs, readBytes, readNs, renameN atomic.Int64
}

// ioShim is the hostio.FS shim installed through fleetd.Options.FS. Host
// calls are few and slow (buffered writes, fsyncs), so it times each one.
type ioShim struct {
	hostio.FS
	c *ioCounters
}

type ioFile struct {
	hostio.File
	c *ioCounters
}

func (s ioShim) wrap(f hostio.File, err error) (hostio.File, error) {
	if err != nil {
		return nil, err
	}
	return ioFile{File: f, c: s.c}, nil
}

func (s ioShim) Create(name string) (hostio.File, error) { return s.wrap(s.FS.Create(name)) }
func (s ioShim) Open(name string) (hostio.File, error)   { return s.wrap(s.FS.Open(name)) }
func (s ioShim) OpenFile(name string, flag int, perm os.FileMode) (hostio.File, error) {
	return s.wrap(s.FS.OpenFile(name, flag, perm))
}

func (s ioShim) Rename(oldpath, newpath string) error {
	s.c.calls.Add(1)
	s.c.renameN.Add(1)
	return s.FS.Rename(oldpath, newpath)
}

func (s ioShim) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.FS.ReadFile(name)
	s.c.readNs.Add(int64(time.Since(t0)))
	s.c.readBytes.Add(int64(len(b)))
	s.c.calls.Add(1)
	return b, err
}

func (s ioShim) WriteFile(name string, data []byte, perm os.FileMode) error {
	t0 := time.Now()
	err := s.FS.WriteFile(name, data, perm)
	s.c.writeNs.Add(int64(time.Since(t0)))
	s.c.writeBytes.Add(int64(len(data)))
	s.c.calls.Add(1)
	return err
}

func (f ioFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.c.writeNs.Add(int64(time.Since(t0)))
	f.c.writeBytes.Add(int64(n))
	f.c.calls.Add(1)
	return n, err
}

func (f ioFile) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Read(p)
	f.c.readNs.Add(int64(time.Since(t0)))
	f.c.readBytes.Add(int64(n))
	f.c.calls.Add(1)
	return n, err
}

func (f ioFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.c.syncNs.Add(int64(time.Since(t0)))
	f.c.syncN.Add(1)
	f.c.calls.Add(1)
	return err
}

// ---- shim cost ----

// nopDev and nopFile are do-nothing targets for measuring what a shim adds
// to each call it forwards.
type nopDev struct{}

func (nopDev) ReadAt([]byte, int64) error        { return nil }
func (nopDev) WriteAt([]byte, int64) error       { return nil }
func (nopDev) WriteAccounted(int64, int64) error { return nil }
func (nopDev) Discard(int64, int64) error        { return nil }
func (nopDev) Flush() error                      { return nil }
func (nopDev) Size() int64                       { return 1 << 30 }
func (nopDev) SectorSize() int                   { return 512 }

type nopFile struct{}

func (nopFile) Read(p []byte) (int, error)     { return len(p), nil }
func (nopFile) Write(p []byte) (int, error)    { return len(p), nil }
func (nopFile) Close() error                   { return nil }
func (nopFile) Name() string                   { return "nop" }
func (nopFile) Sync() error                    { return nil }
func (nopFile) Truncate(int64) error           { return nil }
func (nopFile) Seek(int64, int) (int64, error) { return 0, io.EOF }

// perCallCost is the median over rounds of the extra seconds per call that
// going through the shim (via) costs over calling the target (direct).
func perCallCost(direct, via func()) float64 {
	const calls, rounds = 1 << 18, 9
	run := func(fn func()) float64 {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		return time.Since(t0).Seconds() / calls
	}
	diffs := make([]float64, rounds)
	for r := range diffs {
		diffs[r] = run(via) - run(direct)
	}
	sort.Float64s(diffs)
	if diffs[rounds/2] < 0 {
		return 0
	}
	return diffs[rounds/2]
}

// writeDev and writeFile make one call through an interface the compiler
// cannot see the dynamic type of, as the file systems and fleetd make
// them; a call on a local interface variable would be devirtualized and
// inlined, and the direct call would cost nothing.
//
//go:noinline
func writeDev(d blockdev.Device) { _ = d.WriteAccounted(0, 4096) }

//go:noinline
func writeFile(f hostio.File, buf []byte) { _, _ = f.Write(buf) }

// blockdevShimCost is the blockdev shim's added seconds per forwarded call.
func blockdevShimCost() float64 {
	target := nopDev{}
	shim := newDevShim(target, &layers{})
	return perCallCost(func() { writeDev(target) }, func() { writeDev(shim) })
}

// hostioShimCost is the hostio shim's added seconds per forwarded call.
func hostioShimCost() float64 {
	target := nopFile{}
	shim := ioFile{File: target, c: &ioCounters{}}
	buf := make([]byte, 4096)
	return perCallCost(func() { writeFile(target, buf) }, func() { writeFile(shim, buf) })
}
