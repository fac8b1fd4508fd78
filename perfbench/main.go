package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// gcPercent is the GOGC the benchmark runs at. At the default 100 the
// campaigns' live heap of a few MiB starts a GC cycle every ~4 MiB
// allocated, some 1300 cycles per campaign-mem iteration, and where those
// cycles land moved campaign-mem's device_days_per_s by 12% from run to
// run (3% at 400; exhibit-fig4 12% against 8%). Allocation volume is gated
// by alloc_mib regardless, and runtime.num_gc and runtime.gc_cpu_frac
// report the collector's share in the traced run.
const gcPercent = 400

// iterStats is what one timed iteration measured.
type iterStats struct {
	seconds    float64
	cpuSeconds float64 // process CPU time, summed over every thread
	allocMiB   float64
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	debug.SetGCPercent(gcPercent)
	name := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "root seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "how long to repeat timed iterations")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced and profiled iterations")
	commit := flag.String("commit", "unknown", "commit of the measured tree, recorded in the report")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d, want 0 or 1", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d, want >= 1", *seconds)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	why, ok := spec.why(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	w, err := newWorkload(*name, *seed, tmp)
	if err != nil {
		return err
	}
	rep := &report{
		Workload: *name,
		Why:      why,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace,
		Host:     hostRecord(*commit),
		Metrics:  map[string]summary{},
		Extra:    map[string]summary{},
	}
	var values map[string][]float64
	if *trace == 0 {
		values, err = measure(w, time.Duration(*seconds)*time.Second, rep)
	} else {
		values, err = measureLayers(w, rep)
	}
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	res := result{Correct: len(rep.Failures) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range want {
		vs, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", *name, m.Name)
		}
		s := summarize(vs)
		s.Unit = m.Unit
		rep.Metrics[m.Name] = s
		res.Metrics[m.Name] = metricValue{Value: s.Median, Unit: m.Unit}
		delete(values, m.Name)
	}
	for k := range values {
		return fmt.Errorf("workload %s produced metric %s that BENCHMARK.json does not list", *name, k)
	}
	if res.Attempted < 1 {
		return errors.New("no device simulation attempted")
	}
	if err := printJSON(map[string]any{"report": rep}); err != nil {
		return err
	}
	return printJSON(res)
}

// measure runs set-ups and timed iterations for d and returns each
// end-to-end metric's samples.
func measure(w *scenario, d time.Duration, rep *report) (map[string][]float64, error) {
	setups, err := timeSetups(w)
	if err != nil {
		return nil, err
	}
	var iters []iterStats
	var outs []outcome
	start := time.Now()
	for len(iters) == 0 || time.Since(start) < d {
		st, o, err := timedIteration(w)
		if err != nil {
			return nil, err
		}
		iters = append(iters, st)
		outs = append(outs, o)
	}
	rep.check(w, outs)
	o := outs[0]
	values := map[string][]float64{"setup_s": setups}
	for _, st := range iters {
		values["device_days_per_s"] = append(values["device_days_per_s"], o.deviceDays/st.seconds)
		values["alloc_mib"] = append(values["alloc_mib"], st.allocMiB)
		rep.addExtra("sim_gib_per_s", o.hostGiB/st.seconds)
	}
	rep.Iterations = len(iters)
	return values, nil
}

// setupRounds is how many set-ups setup_s takes its median over. A set-up
// takes a few milliseconds, and one run's set-ups spread by 10–50% between
// their quartiles on a shared 2-core host, so the median needs many.
const setupRounds = 101

// timeSetups times the workload's set-up setupRounds times after one
// untimed warm-up, tearing each instance down outside the timed region.
func timeSetups(w *scenario) ([]float64, error) {
	var out []float64
	for i := 0; i <= setupRounds; i++ {
		t0 := time.Now()
		inst, err := w.setup()
		el := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		inst.close()
		if i > 0 {
			out = append(out, el)
		}
	}
	return out, nil
}

// timedIteration sets up one instance (untimed here; timeSetups owns
// setup_s), collects garbage so every iteration starts from the same heap,
// and times one iteration with its heap allocation.
func timedIteration(w *scenario) (iterStats, outcome, error) {
	inst, err := w.setup()
	if err != nil {
		return iterStats{}, outcome{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	o, err := inst.run()
	el := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return iterStats{}, outcome{}, err
	}
	return iterStats{seconds: el, cpuSeconds: cpu, allocMiB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}, o, nil
}

// cpuSeconds is the user and system CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
