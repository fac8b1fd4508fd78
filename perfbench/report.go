package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the program reads: which metrics
// to report for which --trace, with their units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// why returns the workload's reason for being, and whether it is listed.
func (s *benchSpec) why(name string) (string, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w.Why, true
		}
	}
	return "", false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is one metric's distribution over the samples of a run, with the
// quartiles computed as Python's statistics.quantiles(n=4) computes them.
type summary struct {
	Unit   string  `json:"unit,omitempty"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(vs []float64) summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	out := summary{N: n, Min: s[0], Max: s[n-1]}
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		out.Q1, out.Q3 = s[0], s[0]
		return out
	}
	// The "exclusive" method of statistics.quantiles.
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

// host records what the numbers were measured on.
type host struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GOGC         int    `json:"gogc"`
	GoVersion    string `json:"go_version"`
	Platform     string `json:"platform"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func hostRecord(commit string) host {
	return host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         gcPercent,
		GoVersion:    runtime.Version(),
		Platform:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:       commit,
		SourceSHA256: sourceDigest("."),
	}
}

// sourceDigest hashes every Go source and module file under root, so a
// result can be tied to the code that produced it even in a checkout that
// is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report is the line printed before the result: everything needed to read
// the numbers later.
type report struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      int                `json:"trace"`
	Host       host               `json:"host"`
	Iterations int                `json:"iterations"`
	Digest     string             `json:"digest"`
	Checks     []string           `json:"checks"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]summary `json:"metrics"`
	// Extra holds metrics that do not apply to every workload or are
	// constant by construction, so they are reported here rather than
	// gated: sim_gib_per_s, ckpt_mib_written, failed_frac, paper_err_pct.
	Extra map[string]summary `json:"extra"`
	// Unobserved lists per-layer metrics reported as 0 because no shim
	// reaches that layer on this workload.
	Unobserved []string `json:"unobserved,omitempty"`

	extra     map[string][]float64
	attempted int
	failed    int
}

var extraUnits = map[string]string{
	"sim_gib_per_s":    "GiB/s",
	"ckpt_mib_written": "MiB",
	"failed_frac":      "ratio",
	"paper_err_pct":    "%",
	"profile_samples":  "count",
}

func (r *report) addExtra(name string, v float64) {
	if r.extra == nil {
		r.extra = map[string][]float64{}
	}
	r.extra[name] = append(r.extra[name], v)
	s := summarize(r.extra[name])
	s.Unit = extraUnits[name]
	r.Extra[name] = s
}

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// check applies the output checks every run makes: each iteration
// simulated every requested device without failure, all iterations of the
// invocation produced the same output, and the workload's own cross-checks
// hold.
func (r *report) check(w *scenario, outs []outcome) {
	r.Digest = outs[0].digest
	for i, o := range outs {
		r.attempted += o.requested
		r.failed += o.failed
		if o.devices != o.requested {
			r.fail("iteration %d simulated %d of %d devices", i, o.devices, o.requested)
		}
		if o.failed != 0 {
			r.fail("iteration %d: %d device simulations failed", i, o.failed)
		}
		if o.problem != "" {
			r.fail("iteration %d: %s", i, o.problem)
		}
		if o.digest != r.Digest {
			r.fail("iteration %d digest %s differs from iteration 0 digest %s", i, o.digest, r.Digest)
		}
		r.addExtra("failed_frac", float64(o.failed)/float64(o.requested))
		if o.ckptMiB > 0 {
			r.addExtra("ckpt_mib_written", o.ckptMiB)
		}
		if o.paperErrPct >= 0 {
			r.addExtra("paper_err_pct", o.paperErrPct)
		}
	}
	r.Checks = append(r.Checks,
		fmt.Sprintf("devices simulated == requested (%d) in all %d iterations", outs[0].requested, len(outs)),
		"no failed device simulations",
		"output digest identical across iterations")
	for _, c := range w.checks {
		desc, err := c(outs[0])
		if err != nil {
			r.fail("%s: %v", desc, err)
		}
		r.Checks = append(r.Checks, desc)
	}
}

// digestJSON is the sha256 of v's JSON encoding, the output fingerprint.
func digestJSON(vs ...any) (string, error) {
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
