package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range b.Workloads {
		check(w.Name)
		wl = append(wl, w.Name)
		if _, err := findSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(wl), len(workloads))
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower better")
	}
	for _, m := range b.PerLayer {
		check(m.Name)
	}
}

// names returns a result's metric names with their units, sorted.
func names(m map[string]metric) []string {
	var out []string
	for n, v := range m {
		out = append(out, n+" "+v.Unit)
	}
	sort.Strings(out)
	return out
}

func TestShortRunEmitsEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, s := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{spec: s.scaled(20), seed: 7, trace: traced, workdir: t.TempDir(), rounds: 1}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
			}
			if got := names(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", s.name, traced, got, want)
			}
			for n, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", s.name, traced, n, v.Value)
				}
			}
		}
	}
}

// scaled shrinks a spec for the package's own tests: every count is cut by
// div (at least 1 remains), so a round takes milliseconds.
func (s spec) scaled(div int) spec {
	cut := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, n/div)
	}
	s.ckptSamples, s.tailSamples = cut(s.ckptSamples), cut(s.tailSamples)
	s.bulkReports, s.agents = cut(s.bulkReports), cut(s.agents)
	s.queries, s.writerReports = cut(s.queries), cut(s.writerReports)
	s.zoneSide = max(2, s.zoneSide/2)
	return s
}

// oneRound builds a scaled workload's history and runs one round against
// the given tally.
func oneRound(t *testing.T, s spec, mutate func(*tally)) error {
	t.Helper()
	dir := t.TempDir()
	in := generate(s.scaled(20), 3)
	hist, err := buildHistory(filepath.Join(dir, "history"), in)
	if err != nil {
		t.Fatal(err)
	}
	want := expectTally(in)
	mutate(want)
	_, err = runRound(in, hist, filepath.Join(dir, "round"), want)
	return err
}

func TestWrongTallyFailsTheCheck(t *testing.T) {
	for _, s := range workloads {
		if err := oneRound(t, s, func(*tally) {}); err != nil {
			t.Fatalf("%s: right tally: %v", s.name, err)
		}
		err := oneRound(t, s, func(w *tally) { w.perShard[0]++ })
		if err == nil || !strings.Contains(err.Error(), "holds") {
			t.Errorf("%s: one sample too many in the tally: got %v, want a sample-count failure", s.name, err)
		}
	}
	q, err := findSpec("query-under-ingest")
	if err != nil {
		t.Fatal(err)
	}
	err = oneRound(t, q, func(w *tally) {
		for k := range w.hi {
			w.hi[k] = w.lo[k] - 1
		}
	})
	if err == nil || !strings.Contains(err.Error(), "outside the sent range") {
		t.Errorf("query-under-ingest: empty value ranges: got %v, want a range failure", err)
	}
}
