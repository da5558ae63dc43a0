// Command wsbench is the serving-path benchmark: it restarts a WiScape
// cluster (shard coordinators, an optional semi-synchronous replica, the
// routing gateway) on a pre-built history, drives it over loopback TCP
// with the wire protocol from two closed-loop connections, checks the
// outcome against its own tally, and prints one JSON result line.
//
//	wsbench -workload bulk-split -seed 1 -seconds 20 -trace 0
//
// With -trace 1 it instead replays the workload's inputs through each
// layer's public calls and reports per-layer costs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	spec    spec
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
	// rounds is the least number of rounds (or traced pass pairs) a run
	// makes, however short cfg.seconds is.
	rounds int
}

// logw receives diagnostics; the result line alone goes to stdout.
var logw io.Writer = os.Stderr

func main() {
	var (
		workload = flag.String("workload", "", "workload name: bulk-split, agent-rounds-semisync or query-under-ingest")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measure whole rounds until this many seconds have passed")
		traced   = flag.Int("trace", 0, "1 runs the per-layer traced replay instead of the end-to-end run")
		workdir  = flag.String("workdir", ".bench_build", "directory for per-run data and span dumps")
	)
	flag.Parse()
	s, err := findSpec(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		os.Exit(2)
	}
	cfg := config{spec: s, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, workdir: *workdir, rounds: minRounds}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		if res.Attempted == 0 {
			os.Exit(1)
		}
	}
	out, err2 := json.Marshal(res)
	if err2 != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err2)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run generates the inputs and history, then measures whole rounds until
// cfg.seconds have passed (at least cfg.rounds).
func run(cfg config) (result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, fmt.Sprintf("%s-%d-", cfg.spec.name, cfg.seed))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	in := generate(cfg.spec, cfg.seed)
	hist, err := buildHistory(filepath.Join(dir, "history"), in)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(cfg, in, hist, dir)
	}
	want := expectTally(in)
	var rounds []round
	t0 := time.Now()
	for i := 0; i < cfg.rounds || time.Since(t0) < cfg.seconds; i++ {
		r, err := runRound(in, hist, filepath.Join(dir, fmt.Sprintf("round-%d", i)), want)
		if err != nil {
			res := summarize(rounds)
			res.Correct = false
			return res, fmt.Errorf("round %d: %w", i, err)
		}
		fmt.Fprintf(logw, "wsbench: %s round %d: setup %.3fs, ingest %d samples in %.3fs, %d queries in %.3fs (wall); granted CPU share %.2f/%.2f/%.2f\n",
			cfg.spec.name, i, r.setup.Seconds(), r.samples, r.ingestWall.Seconds(), r.queries, r.queryWall.Seconds(), r.setupShare, r.ingestShare, r.queryShare)
		rounds = append(rounds, r)
	}
	return summarize(rounds), nil
}

// minRounds keeps a median meaningful on a run shorter than one round.
const minRounds = 3

// summarize turns the measured rounds into the result. The first round
// warms the page cache and the Go heap and is left out of every figure,
// though its operations count as attempted. Wall-clock figures (set-up,
// rates, latencies) are first scaled by their phase's granted CPU share
// (see meter). setup_s is then the median over rounds; every other figure
// is computed per round and reported as the interquartile mean over
// rounds (the mean of their middle half).
func summarize(rounds []round) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if len(rounds) > 1 {
		rounds = rounds[1:]
	}
	if len(rounds) == 0 {
		return res
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	col := func(f func(r round) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(col(func(r round) float64 { return r.setup.Seconds() * r.setupShare })))
	put("ingest_samples_per_s", "samples/s", iqMean(col(func(r round) float64 {
		return float64(r.samples) / (r.ingestWall.Seconds() * r.ingestShare)
	})))
	put("report_p50_ms", "ms", iqMean(col(func(r round) float64 { return ms(percentile(r.reportLat, 0.50)) * r.ingestShare })))
	put("report_p90_ms", "ms", iqMean(col(func(r round) float64 { return ms(percentile(r.reportLat, 0.90)) * r.ingestShare })))
	put("query_per_s", "queries/s", iqMean(col(func(r round) float64 {
		return float64(r.queries) / (r.queryWall.Seconds() * r.queryShare)
	})))
	put("query_p50_ms", "ms", iqMean(col(func(r round) float64 { return ms(percentile(r.queryLat, 0.50)) * r.queryShare })))
	put("query_p90_ms", "ms", iqMean(col(func(r round) float64 { return ms(percentile(r.queryLat, 0.90)) * r.queryShare })))
	put("cpu_s", "s", iqMean(col(func(r round) float64 { return r.cpu.Seconds() })))
	put("alloc_mb", "MiB", iqMean(col(func(r round) float64 { return float64(r.alloc) / (1 << 20) })))
	put("heap_live_mb", "MiB", iqMean(col(func(r round) float64 { return float64(r.heapLive) / (1 << 20) })))
	put("wal_bytes_per_sample", "B", iqMean(col(func(r round) float64 { return float64(r.walBytes) / float64(r.samples) })))
	var rep, qry []time.Duration
	for _, r := range rounds {
		rep = append(rep, r.reportLat...)
		qry = append(qry, r.queryLat...)
	}
	fmt.Fprintf(logw, "wsbench: %d measured rounds: raw report p99 %.3f ms over %d reports, raw query p99 %.3f ms over %d queries (pooled)\n",
		len(rounds), ms(percentile(rep, 0.99)), len(rep), ms(percentile(qry, 0.99)), len(qry))
	return res
}

// iqMean averages the middle half of xs (all of it below four values): as
// robust to one disturbed round as a median, and steadier.
func iqMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates linearly between the closest ranks.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + time.Duration(frac*float64(s[i+1]-s[i]))
}
