// Command compare summarizes one or two sets of wsbench results: for each
// (workload, metric) it prints the median, the first and third quartiles
// and their spread as a share of the median, and with two sets the change
// of the median from the first set to the second.
//
//	go run ./compare before/ after/
//
// A result set is a directory of files named <workload>__<label>.json whose
// last line is the benchmark's result object, one file per run. Quartiles
// follow Python's statistics.quantiles(values, n=4) (the exclusive
// method), so the spreads match those the benchmark is judged by.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// series is one (workload, metric)'s values across a set's runs.
type series struct {
	unit   string
	values []float64
}

type set map[string]map[string]*series // workload -> metric -> values

func main() {
	if len(os.Args) < 2 || len(os.Args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: compare RESULT_DIR [RESULT_DIR]")
		os.Exit(2)
	}
	var sets []set
	for _, dir := range os.Args[1:] {
		s, err := load(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		sets = append(sets, s)
	}
	report(os.Stdout, sets)
}

// load reads every <workload>__<label>.json in dir.
func load(dir string) (set, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*__*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>__<label>.json files", dir)
	}
	s := set{}
	for _, f := range files {
		workload, _, _ := strings.Cut(filepath.Base(f), "__")
		res, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		if s[workload] == nil {
			s[workload] = map[string]*series{}
		}
		add := func(name, unit string, v float64) {
			sr := s[workload][name]
			if sr == nil {
				sr = &series{unit: unit}
				s[workload][name] = sr
			}
			sr.values = append(sr.values, v)
		}
		for name, m := range res.Metrics {
			add(name, m.Unit, m.Value)
		}
		add("failed_share", "1", float64(res.Failed)/float64(max(res.Attempted, 1)))
	}
	return s, nil
}

func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	//lint:ignore errdrop read-only result file, no durability at stake
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	if r.Metrics == nil {
		return result{}, errors.New(path + ": result has no metrics")
	}
	return r, nil
}

// quartiles returns the median and the first and third quartiles as
// Python's statistics.quantiles(values, n=4) computes them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func report(w io.Writer, sets []set) {
	workloads := map[string]bool{}
	for _, s := range sets {
		for wl := range s {
			workloads[wl] = true
		}
	}
	for _, wl := range sortedKeys(workloads) {
		names := map[string]bool{}
		for _, s := range sets {
			for name := range s[wl] {
				names[name] = true
			}
		}
		fmt.Fprintf(w, "%s\n", wl)
		for _, name := range sortedKeys(names) {
			line := fmt.Sprintf("  %-32s", name)
			var meds []float64
			for _, s := range sets {
				sr := s[wl][name]
				if sr == nil {
					line += fmt.Sprintf(" | %-44s", "-")
					continue
				}
				q1, med, q3 := quartiles(sr.values)
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				meds = append(meds, med)
				line += fmt.Sprintf(" | n=%-2d med %12.6g %-9s [%.6g, %.6g] spread %5.1f%%", len(sr.values), med, sr.unit, q1, q3, 100*spread)
			}
			if len(meds) == 2 && meds[0] != 0 {
				line += fmt.Sprintf(" | median %+6.1f%%", 100*(meds[1]-meds[0])/meds[0])
			}
			fmt.Fprintln(w, line)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
