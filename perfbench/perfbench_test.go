package main

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// The quartiles must be the ones statistics.quantiles(values, n=4) gives,
// since that is how the spreads of these numbers are judged.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		in             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9}, 1.25, 3.5, 9},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		s := summarize(tc.in)
		if s.Q1 != tc.q1 || s.Median != tc.median || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = q1 %g median %g q3 %g, want %g %g %g",
				tc.in, s.Q1, s.Median, s.Q3, tc.q1, tc.median, tc.q3)
		}
	}
}

func TestApportionIsExactAndProportional(t *testing.T) {
	ws := []float64{0.30, 0.20, 0.20, 0.15, 0.08, 0.04, 0.03}
	for n := 0; n <= 100; n++ {
		got := apportion(n, ws)
		sum := 0
		for i, k := range got {
			sum += k
			if math.Abs(float64(k)-float64(n)*ws[i]) >= 1 {
				t.Errorf("apportion(%d)[%d] = %d, want within 1 of %g", n, i, k, float64(n)*ws[i])
			}
		}
		if sum != n {
			t.Errorf("apportion(%d) sums to %d", n, sum)
		}
	}
}

// share hands every index to exactly one worker and reports a failure.
func TestShare(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	err := share(n, func(w, i int) error {
		if w < 0 || w >= benchWorkers {
			return errors.New("worker out of range")
		}
		hits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if k := hits[i].Load(); k != 1 {
			t.Errorf("index %d ran %d times", i, k)
		}
	}
	boom := errors.New("boom")
	if err := share(n, func(_, i int) error {
		if i == 7 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("share returned %v, want %v", err, boom)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"math.Exp", "flashwear/internal/nand.ErrorModel.FailProb", "flashwear/internal/ftl.(*FTL).WritePage"}, "nand"},
		{[]string{"runtime.memmove", "flashwear/internal/nand.(*Chip).ExportState"}, "runtime_mem"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "syscall.Fsync", "os.(*File).Sync"}, "syscall"},
		{[]string{"flashwear/internal/fs/f2fs.(*FS).writeNode"}, "f2fs"},
		{[]string{"sort.Search", "flashwear/internal/android.(*Phone).Install"}, "android"},
		{[]string{"flashwear/internal/telemetry.(*Counter).Add"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "runtime_other"},
	} {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

var sink float64

// A CPU profile of this process decodes, and its exclusive buckets add up
// to all the samples.
func TestProfileSharesDecode(t *testing.T) {
	shares, samples, err := profileShares(func() error {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				sink += math.Sqrt(float64(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no samples")
	}
	total := 0.0
	for _, b := range cpuBuckets {
		total += shares[b]
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("exclusive buckets sum to %g%%, want 100%%", total)
	}
}

// countDev counts the calls that reach it.
type countDev struct {
	nopDev
	writes, flushes int
}

func (d *countDev) WriteAccounted(int64, int64) error { d.writes++; return nil }
func (d *countDev) Flush() error                      { d.flushes++; return nil }

// The blockdev shim forwards and counts every call, timed or not, and keeps
// its gap to the next timed call within [1, 2*shimSampleEvery).
func TestDevShimForwardsAndCountsEveryCall(t *testing.T) {
	dev := &countDev{}
	l := &layers{}
	s := newDevShim(dev, l)
	const n = 100 * shimSampleEvery
	for i := 0; i < n; i++ {
		if err := s.WriteAccounted(int64(i)*4096, 4096); err != nil {
			t.Fatal(err)
		}
		if s.left < 1 || s.left >= 2*shimSampleEvery {
			t.Fatalf("call %d: gap to the next timed call %d, want [1, %d)", i, s.left, 2*shimSampleEvery)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if dev.writes != n || dev.flushes != 1 {
		t.Errorf("device saw %d writes, %d flushes; want %d, 1", dev.writes, dev.flushes, n)
	}
	if l.devWriteN != n || l.devWriteBytes != n*4096 || l.devFlushN != 1 {
		t.Errorf("shim counted %d writes of %d bytes, %d flushes; want %d, %d, 1",
			l.devWriteN, l.devWriteBytes, l.devFlushN, n, n*4096)
	}
}
