package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/wire"
)

// round is what one restart-plus-timed-phase measured.
type round struct {
	setup      time.Duration
	ingestWall time.Duration
	samples    int // acked
	queryWall  time.Duration
	queries    int
	reportLat  []time.Duration
	queryLat   []time.Duration
	cpu        time.Duration
	alloc      uint64
	heapLive   uint64
	walBytes   int64
	attempted  int
	failed     int

	// Granted CPU shares (see meter) of the set-up, ingest and query
	// phases.
	setupShare, ingestShare, queryShare float64
}

// client is one closed-loop connection: it sends the next request only
// after the previous reply arrived.
type client struct {
	c         *wire.Conn
	attempted int
	failed    int
}

// call performs one request and reports whether the reply has the wanted
// type; an error reply counts as a failed operation, a broken connection
// aborts the round.
func (cl *client) call(req wire.Envelope, want wire.MsgType) (wire.Envelope, time.Duration, bool, error) {
	cl.attempted++
	t0 := time.Now()
	rep, err := cl.c.Request(req)
	d := time.Since(t0)
	if err != nil {
		return rep, d, false, fmt.Errorf("%s: %w", req.Type, err)
	}
	if rep.Type != want {
		cl.failed++
		return rep, d, false, nil
	}
	return rep, d, true, nil
}

// meter reads the process's CPU time and the host's steal time together.
//
// Steal is CPU time the hypervisor withheld from this machine's runnable
// CPUs to run other guests. Over an interval in which the benchmark's
// process used C CPU-seconds while S were stolen, the process wanted
// C+S and was granted the share C/(C+S); had nothing been stolen, the
// same CPU-bound work would have taken that share of the wall time. The
// wall-clock figures are scaled by it: on a shared host steal comes and
// goes with the neighbours and otherwise dominates their run-to-run
// spread. Without /proc/stat the share is 1 and figures stay raw.
type meter struct{ cpu, steal time.Duration }

func readMeter() meter { return meter{cpu: cpuTime(), steal: stealTime()} }

// share is the granted share of CPU between m and end.
func (m meter) share(end meter) float64 {
	c, st := end.cpu-m.cpu, end.steal-m.steal
	if c <= 0 || st <= 0 {
		return 1
	}
	return float64(c) / float64(c+st)
}

// stealTime is the host's CPU steal time summed over all CPUs, from the
// first line of /proc/stat (0 where it cannot be read).
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var name string
	var v [8]int64
	if n, _ := fmt.Sscan(string(b), &name, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]); n < 9 || name != "cpu" {
		return 0
	}
	return time.Duration(v[7]) * time.Second / 100 // USER_HZ ticks
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound copies the history, restarts the cluster on the copies, runs
// the workload's fixed operations, checks the outcome against the
// benchmark's own tally, and stops everything it started.
func runRound(in *inputs, hist []string, dir string, want *tally) (r round, err error) {
	s := in.spec
	var dirs []string
	for i, h := range hist {
		d := filepath.Join(dir, s.shards[i].name)
		if err := copyDir(h, d); err != nil {
			return r, err
		}
		dirs = append(dirs, d)
	}
	replicaDir := ""
	if s.replica {
		replicaDir = filepath.Join(dir, "replica")
		if err := copyDir(hist[0], replicaDir); err != nil {
			return r, err
		}
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()

	runtime.GC()
	m0, t0 := readMeter(), time.Now()
	topo, err := start(s, dirs, replicaDir)
	if err != nil {
		return r, err
	}
	r.setup, r.setupShare = time.Since(t0), m0.share(readMeter())
	defer func() {
		if cerr := topo.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	switch {
	case s.bulkReports > 0:
		err = runBulk(in, topo, &r)
	case s.agents > 0:
		err = runAgents(in, topo, &r)
	default:
		err = runQueryUnderIngest(in, topo, &r)
	}
	if err != nil {
		return r, err
	}
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.heapLive = ms1.HeapAlloc
	if r.walBytes, err = topo.walBytes(); err != nil {
		return r, err
	}
	if err := check(in, topo, want, r.samples); err != nil {
		return r, err
	}
	return r, nil
}

// phase is what one closed-loop connection did.
type phase struct {
	wall      time.Duration
	lat       []time.Duration
	acked     int
	attempted int
	failed    int
}

func (cl *client) phase(t0 time.Time, lat []time.Duration, acked int) phase {
	return phase{wall: time.Since(t0), lat: lat, acked: acked, attempted: cl.attempted, failed: cl.failed}
}

// addIngest folds writer connections into the round; their wall is the
// slowest one's.
func (r *round) addIngest(ps []phase) {
	for _, p := range ps {
		r.ingestWall = max(r.ingestWall, p.wall)
		r.reportLat = append(r.reportLat, p.lat...)
		r.samples += p.acked
		r.attempted += p.attempted
		r.failed += p.failed
	}
}

func (r *round) addQueries(p phase) {
	r.queryWall, r.queries = p.wall, len(p.lat)
	r.queryLat = append(r.queryLat, p.lat...)
	r.attempted += p.attempted
	r.failed += p.failed
}

// runBulk sends every connection's large reports through the gateway at
// once, then runs the query phase.
func runBulk(in *inputs, t *topology, r *round) error {
	m0 := readMeter()
	ps := make([]phase, len(in.bulk))
	err := parallel(len(in.bulk), func(c int) error {
		t0 := time.Now()
		id := fmt.Sprintf("bulk-%d", c)
		cl, err := open(t.gw.Addr(), id)
		if err != nil {
			return err
		}
		defer cl.c.Close()
		lat, acked, err := sendReports(cl, id, in.bulk[c])
		ps[c] = cl.phase(t0, lat, acked)
		return err
	})
	r.addIngest(ps)
	r.ingestShare = m0.share(readMeter())
	if err != nil {
		return err
	}
	// The ingest phase's garbage is collected before the queries start, so
	// the query figures do not depend on where a GC cycle happens to fall.
	runtime.GC()
	m1 := readMeter()
	q, err := queryPhase(in, t, nil)
	r.addQueries(q)
	r.queryShare = m1.share(readMeter())
	return err
}

// open dials addr and says hello as an agent would.
func open(addr, id string) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	cl := &client{c: c}
	if _, _, _, err := cl.call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: id, DeviceClass: "reference"}}, wire.TypeHelloAck); err != nil {
		_ = c.Close()
		return nil, err
	}
	return cl, nil
}

func sendReports(cl *client, id string, reps [][]trace.Sample) (lat []time.Duration, acked int, err error) {
	for _, rep := range reps {
		ack, d, ok, err := cl.call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: id, Samples: rep}}, wire.TypeSampleAck)
		if err != nil {
			return lat, acked, err
		}
		if ok {
			lat = append(lat, d)
			acked += ack.SampleAck.Accepted
		}
	}
	return lat, acked, nil
}

// runAgents plays each connection's agents one after another: hello, then
// rounds of zone report, task list, sample report.
func runAgents(in *inputs, t *topology, r *round) error {
	m0 := readMeter()
	ps := make([]phase, len(in.agents))
	err := parallel(len(in.agents), func(c int) error {
		t0 := time.Now()
		conn, err := dial(t.gw.Addr())
		if err != nil {
			return err
		}
		cl := &client{c: conn}
		defer cl.c.Close()
		lat, acked, err := playAgents(cl, in.agents[c])
		ps[c] = cl.phase(t0, lat, acked)
		return err
	})
	r.addIngest(ps)
	r.ingestShare = m0.share(readMeter())
	if err != nil {
		return err
	}
	// The ingest phase's garbage is collected before the queries start, so
	// the query figures do not depend on where a GC cycle happens to fall.
	runtime.GC()
	m1 := readMeter()
	q, err := queryPhase(in, t, nil)
	r.addQueries(q)
	r.queryShare = m1.share(readMeter())
	return err
}

func playAgents(cl *client, agents []agentPlan) (lat []time.Duration, acked int, err error) {
	for _, ap := range agents {
		if _, _, _, err := cl.call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: ap.id, DeviceClass: "reference"}}, wire.TypeHelloAck); err != nil {
			return lat, acked, err
		}
		for _, rep := range ap.report {
			zr := &wire.ZoneReport{ClientID: ap.id, Zone: ap.zone, Loc: ap.loc, At: rep[0].Time, Networks: []radio.NetworkID{sampleNet}}
			if _, _, _, err := cl.call(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: zr}, wire.TypeTaskList); err != nil {
				return lat, acked, err
			}
			l, a, err := sendReports(cl, ap.id, [][]trace.Sample{rep})
			lat, acked = append(lat, l...), acked+a
			if err != nil {
				return lat, acked, err
			}
		}
	}
	return lat, acked, nil
}

// runQueryUnderIngest runs the query phase on one connection while the
// other streams small reports; at fixed query counts a third goroutine
// checkpoints every shard, as the coordinator's checkpoint timer would.
func runQueryUnderIngest(in *inputs, t *topology, r *round) error {
	m0 := readMeter()
	trigger := make(chan struct{}, in.spec.checkpoints) // one slot per checkpoint of the round
	ckptErr := make(chan error, 1)
	go func() {
		var err error
		for range trigger {
			for _, srv := range t.shards {
				if err == nil {
					err = srv.CheckpointNow()
				}
			}
		}
		ckptErr <- err
	}()
	var w, q phase
	err := parallel(2, func(c int) error {
		if c == 1 {
			defer close(trigger)
			var err error
			q, err = queryPhase(in, t, trigger)
			return err
		}
		t0 := time.Now()
		cl, err := open(t.gw.Addr(), "writer")
		if err != nil {
			return err
		}
		defer cl.c.Close()
		lat, acked, err := sendReports(cl, "writer", in.bulk[0])
		w = cl.phase(t0, lat, acked)
		return err
	})
	if cerr := <-ckptErr; err == nil {
		err = cerr
	}
	r.addIngest([]phase{w})
	r.addQueries(q)
	r.ingestShare = m0.share(readMeter())
	r.queryShare = r.ingestShare
	return err
}

// queryPhase sends the workload's estimate and zone-list requests through
// the gateway on one connection. With trigger set, it signals a checkpoint
// at spec.checkpoints evenly spaced query counts.
func queryPhase(in *inputs, t *topology, trigger chan<- struct{}) (phase, error) {
	s := in.spec
	c, err := dial(t.gw.Addr())
	if err != nil {
		return phase{}, err
	}
	cl := &client{c: c}
	defer cl.c.Close()
	var lat []time.Duration
	every := 0
	if trigger != nil {
		every = len(in.queries) / (s.checkpoints + 1)
	}
	t0 := time.Now()
	for i, k := range in.queries {
		if every > 0 && i > 0 && i%every == 0 && i/every <= s.checkpoints {
			trigger <- struct{}{}
		}
		var req wire.Envelope
		want := wire.TypeEstimateReply
		if isZoneList(i, s.zoneListEvery) {
			req = wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{Network: sampleNet, Metric: k.metric}}
			want = wire.TypeZoneListReply
		} else {
			req = wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{Zone: k.zone, Network: sampleNet, Metric: k.metric}}
		}
		_, d, ok, err := cl.call(req, want)
		if err != nil {
			return cl.phase(t0, lat, 0), err
		}
		if ok {
			lat = append(lat, d)
		}
	}
	return cl.phase(t0, lat, 0), nil
}

// parallel runs fn(0..n-1) on n goroutines and returns the first error
// once all have returned.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
