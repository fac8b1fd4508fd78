package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// MetricsSeries is the population wear trajectory: row k holds the
// integer sums of every device's row (Phone.Row) at age (k+1)*Every.
type MetricsSeries struct {
	// Every is the full-scale sampling cadence.
	Every time.Duration
	// Rows is the series; each row has Cols entries.
	Rows [][]int64
}

// metricRowCount is the fixed series length: one row per whole sampling
// interval within the horizon. Every device contributes exactly this many
// rows (early deaths pad with their frozen final snapshot), so merging
// never mixes rows from different ages.
func metricRowCount(spec Spec) int {
	horizon := time.Duration(spec.Days * 24 * float64(time.Hour))
	return int(horizon / spec.MetricsEvery)
}

func newMetricsSeries(spec Spec) *MetricsSeries {
	n := metricRowCount(spec)
	m := &MetricsSeries{Every: spec.MetricsEvery, Rows: make([][]int64, n)}
	for i := range m.Rows {
		m.Rows[i] = make([]int64, Cols)
	}
	return m
}

// addDevice folds one device's padded row set into the series.
func (m *MetricsSeries) addDevice(rows [][]int64) {
	if len(rows) != len(m.Rows) {
		panic(fmt.Sprintf("fleet: device contributed %d metric rows, series has %d", len(rows), len(m.Rows)))
	}
	for i, r := range rows {
		for j, v := range r {
			m.Rows[i][j] += v
		}
	}
}

//flashvet:sim-sink fleet metrics series
func (m *MetricsSeries) merge(o *MetricsSeries) error {
	if o == nil {
		return nil
	}
	if m.Every != o.Every || len(m.Rows) != len(o.Rows) {
		return fmt.Errorf("fleet: merging mismatched metric series (%v/%d vs %v/%d)",
			m.Every, len(m.Rows), o.Every, len(o.Rows))
	}
	for i, r := range o.Rows {
		for j, v := range r {
			m.Rows[i][j] += v
		}
	}
	return nil
}

// WriteCSV renders the series with derived per-day population columns:
//
//	day, devices, bricked, host_gib, write_amp, wear_avg, wear_max,
//	raw_ber, wear_level, bad_blocks, flash_erases
//
// wear_avg/wear_max/raw_ber/wear_level are means over the population
// (wear_max is the mean of per-device hottest-block wear — a true
// population max would not merge additively). All floats derive from the
// series' integer sums, so output is byte-identical across worker counts.
func (m *MetricsSeries) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("day,devices,bricked,host_gib,write_amp,wear_avg,wear_max,raw_ber,wear_level,bad_blocks,flash_erases\n"); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for k, r := range m.Rows {
		devices := r[ColDevices]
		ratio := func(numer int64, scale float64) float64 {
			if devices == 0 {
				return 0
			}
			return float64(numer) / scale / float64(devices)
		}
		wa := 0.0
		if r[ColHostBytes] > 0 {
			wa = float64(r[ColFlashBytes]) / float64(r[ColHostBytes])
		}
		day := time.Duration(k+1) * m.Every
		cols := []string{
			f(day.Hours() / 24),
			strconv.FormatInt(devices, 10),
			strconv.FormatInt(r[ColBricked], 10),
			f(float64(r[ColHostBytes]) / (1 << 30)),
			f(wa),
			f(ratio(r[ColWearAvgMicro], 1e6)),
			f(ratio(r[ColWearMaxMicro], 1e6)),
			f(ratio(r[ColRawBERFemto], 1e15)),
			f(ratio(r[ColWearLevel], 1)),
			strconv.FormatInt(r[ColBadBlocks], 10),
			strconv.FormatInt(r[ColFlashErases], 10),
		}
		for i, c := range cols {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(c); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMetricsCSV renders the run's population time series, or fails if the
// Spec did not enable metrics (MetricsEvery == 0).
func (r *Result) WriteMetricsCSV(w io.Writer) error {
	if r.Metrics == nil {
		return errors.New("fleet: run had no metrics (set Spec.MetricsEvery)")
	}
	return r.Metrics.WriteCSV(w)
}
