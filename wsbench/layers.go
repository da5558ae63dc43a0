package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/replication"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// span is one timed call into a layer, or a group of them. Times are
// nanoseconds since the tracer started; Parent indexes the enclosing span
// (-1 for none).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"`
}

// tracer keeps spans in memory. Off, begin and end do nothing, so the
// untraced pass runs the same calls without the clock reads and appends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
}

// end closes the innermost open span; items counts the samples, records
// or keys the call handled.
func (t *tracer) end(items int) {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].Items = items
}

// layerStat is one span name's totals: self time is each span's duration
// minus the part its child spans cover.
type layerStat struct {
	calls, items int
	self         time.Duration
}

func selfTimes(spans []span) map[string]*layerStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		st.items += s.Items
		st.self += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// layerMetric maps a span name to a per-layer metric: self time divided by
// calls or by items, in the metric's unit.
type layerMetric struct {
	name, span, unit string
	perItem          bool
}

var layerMetrics = []layerMetric{
	{"wire.encode_us_per_sample", "wire.Conn.Send", "us", true},
	{"wire.decode_us_per_sample", "wire.Conn.Recv", "us", true},
	{"cluster.route_us_per_sample", "cluster.Registry.ShardFor", "us", true},
	{"cluster.merge_us", "cluster.merge", "us", true},
	{"coordinator.report_rtt_us", "coordinator.sample_report", "us", false},
	{"coordinator.zone_report_rtt_us", "coordinator.zone_report", "us", false},
	{"store.append_us_per_sample", "store.Store.Append", "us", true},
	{"store.tail_read_us.fill10", "store.Store.ReadBatch.fill10", "us", false},
	{"store.tail_read_us.fill90", "store.Store.ReadBatch.fill90", "us", false},
	{"store.checkpoint_ms", "store.Store.Checkpoint", "ms", false},
	{"store.recover_ms", "store.Open", "ms", false},
	{"core.ingest_us_per_sample", "core.Controller.Ingest", "us", true},
	{"core.replay_ms", "core.replay", "ms", false},
	{"core.snapshot_ms", "core.Controller.Snapshot", "ms", false},
	{"core.estimate_us", "core.Controller.Estimate+SketchFor", "us", true},
	{"core.records_ms", "core.Controller.Records", "ms", false},
	{"core.required_samples_us", "core.Controller.RequiredSamplesFor", "us", true},
	{"replication.ship_us_per_record", "replication.ship", "us", true},
	{"replication.commit_wait_us", "replication.Source.WaitCommitted", "us", false},
}

// frameBytesMetric is exact: the bytes wire.Conn.Send wrote per sample.
const frameBytesMetric = "wire.frame_bytes_per_sample"

func (m layerMetric) value(stats map[string]*layerStat) (float64, bool) {
	st := stats[m.span]
	if st == nil || st.calls == 0 || (m.perItem && st.items == 0) {
		return 0, false
	}
	scale := float64(time.Microsecond)
	if m.unit == "ms" {
		scale = float64(time.Millisecond)
	}
	n := st.calls
	if m.perItem {
		n = st.items
	}
	return float64(st.self) / scale / float64(n), true
}

// runTraced alternates traced and untraced passes of the layer replay
// until cfg.seconds have passed, reports the median per-layer values of
// the traced passes, prints self times and the tracing overhead to
// stderr, and writes the spans of every traced pass to the work dir.
func runTraced(cfg config, in *inputs, hist []string, dir string) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	vals := map[string][]float64{}
	var all [][]span // one slice per traced pass; Parent indexes within it
	var overhead []float64
	frameBytes := 0.0
	total := map[string]*layerStat{}
	t0 := time.Now()
	for i := 0; i < cfg.rounds || time.Since(t0) < cfg.seconds; i++ {
		var walls [2]time.Duration
		var tr *tracer
		order := []bool{true, false}
		if i%2 == 1 {
			order = []bool{false, true}
		}
		for _, on := range order {
			tr = &tracer{on: on, t0: time.Now()}
			p0 := time.Now()
			fb, err := layerPass(tr, in, hist, filepath.Join(dir, fmt.Sprintf("pass-%d-%v", i, on)))
			if err != nil {
				res.Correct = false
				return res, fmt.Errorf("layer pass %d: %w", i, err)
			}
			frameBytes = fb
			if on {
				walls[0] = time.Since(p0)
				stats := selfTimes(tr.spans)
				for _, m := range layerMetrics {
					if v, ok := m.value(stats); ok {
						vals[m.name] = append(vals[m.name], v)
					}
				}
				for name, st := range stats {
					if total[name] == nil {
						total[name] = &layerStat{}
					}
					total[name].calls += st.calls
					total[name].items += st.items
					total[name].self += st.self
				}
				res.Attempted += len(tr.spans)
				all = append(all, tr.spans)
			} else {
				walls[1] = time.Since(p0)
			}
		}
		overhead = append(overhead, float64(walls[0]-walls[1])/float64(time.Millisecond))
	}
	for _, m := range layerMetrics {
		if len(vals[m.name]) == 0 {
			res.Correct = false
			return res, fmt.Errorf("no %s spans recorded", m.span)
		}
		res.Metrics[m.name] = metric{Value: median(vals[m.name]), Unit: m.unit}
	}
	res.Metrics[frameBytesMetric] = metric{Value: frameBytes, Unit: "B"}

	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(logw, "wsbench: %s traced passes: self time per span name\n", cfg.spec.name)
	for _, n := range names {
		st := total[n]
		fmt.Fprintf(logw, "  %-40s calls %7d  items %9d  self %10.3f ms\n", n, st.calls, st.items, float64(st.self)/1e6)
	}
	perSpan := spanCost()
	fmt.Fprintf(logw, "wsbench: tracing overhead: traced minus untraced pass wall, median %.3f ms over %d pairs (I/O noise included); %d spans per pass at %.0f ns each = %.3f ms\n",
		median(overhead), len(overhead), len(all[0]), perSpan, perSpan*float64(len(all[0]))/1e6)
	out, err := json.Marshal(all)
	if err != nil {
		return res, err
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", cfg.spec.name, cfg.seed))
	return res, os.WriteFile(path, out, 0o644)
}

// spanCost times an empty traced span, the overhead every recorded call
// pays.
func spanCost() float64 {
	const n = 100000
	tr := &tracer{on: true, t0: time.Now()}
	t0 := time.Now()
	for range n {
		tr.begin("calibrate")
		tr.end(0)
	}
	return float64(time.Since(t0)) / n
}

// memConn is an in-memory net.Conn: writes append to the buffer, reads
// consume it. wire.Conn's Send and Recv call nothing else.
type memConn struct {
	net.Conn
	buf bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error)  { return m.buf.Read(p) }
func (m *memConn) Write(p []byte) (int, error) { return m.buf.Write(p) }

// layerPass replays the workload's inputs through each layer's public
// calls once, under tr. It returns the exact frame bytes per sample.
func layerPass(tr *tracer, in *inputs, hist []string, dir string) (frameBytes float64, err error) {
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	reports := in.reports()
	if len(reports) > maxReplayReports {
		reports = reports[:maxReplayReports]
	}
	var samples []trace.Sample
	for _, rep := range reports {
		samples = append(samples, rep...)
	}

	// wire: encode every report into memory, then decode the frames.
	mc := &memConn{}
	wc := wire.NewConn(mc)
	tr.begin("wire")
	for _, rep := range reports {
		tr.begin("wire.Conn.Send")
		err := wc.Send(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: rep[0].ClientID, Samples: rep}})
		tr.end(len(rep))
		if err != nil {
			return 0, err
		}
	}
	frameBytes = float64(mc.buf.Len()) / float64(len(samples))
	for _, rep := range reports {
		tr.begin("wire.Conn.Recv")
		e, err := wc.Recv()
		tr.end(len(rep))
		if err != nil {
			return 0, err
		}
		if e.SampleReport == nil || len(e.SampleReport.Samples) != len(rep) {
			return 0, errors.New("wire: decoded report differs from the one sent")
		}
	}
	tr.end(0)

	// cluster: route every sample.
	var cfgs []cluster.ShardConfig
	for _, sg := range in.spec.shards {
		cfgs = append(cfgs, cluster.ShardConfig{Name: sg.name, Addr: "127.0.0.1:1", Box: sg.box})
	}
	reg, err := cluster.NewRegistry(cfgs)
	if err != nil {
		return 0, err
	}
	tr.begin("cluster")
	for _, rep := range reports {
		tr.begin("cluster.Registry.ShardFor")
		for _, smp := range rep {
			if _, ok := reg.ShardFor(smp.Loc); !ok {
				tr.end(0)
				return 0, fmt.Errorf("cluster: no shard for %v", smp.Loc)
			}
		}
		tr.end(len(rep))
	}
	tr.end(0)

	// store and core on shard 0's history.
	ctrls, err := storeAndCore(tr, in, hist, dir, samples)
	if err != nil {
		return 0, err
	}
	if err := mergeSketches(tr, in, ctrls); err != nil {
		return 0, err
	}
	if err := tailReads(tr, filepath.Join(dir, "tail"), samples); err != nil {
		return 0, err
	}
	if err := shipRecords(tr, filepath.Join(dir, "ship"), samples); err != nil {
		return 0, err
	}
	return frameBytes, coordinatorRTT(tr, in, hist, filepath.Join(dir, "rtt"))
}

// storeAndCore recovers each shard's history copy through store.Open and
// core.Restore plus tail replay, then times the controller calls on shard
// 0. It returns every shard's recovered controller.
func storeAndCore(tr *tracer, in *inputs, hist []string, dir string, samples []trace.Sample) ([]*core.Controller, error) {
	var ctrls []*core.Controller
	for i, h := range hist {
		d := filepath.Join(dir, fmt.Sprintf("store-%d", i))
		if err := copyDir(h, d); err != nil {
			return nil, err
		}
		tr.begin("store")
		tr.begin("store.Open")
		st, err := store.Open(d, store.Options{})
		if err != nil {
			return nil, err
		}
		rec := st.Recovery()
		tr.end(len(rec.Tail))
		tr.end(0)
		if rec.Snapshot == nil {
			return nil, errors.Join(errors.New("store: history recovered without a checkpoint"), st.Close())
		}
		tr.begin("core")
		tr.begin("core.replay")
		c := core.Restore(*rec.Snapshot)
		for _, smp := range rec.Tail {
			c.Ingest(smp)
		}
		tr.end(len(rec.Tail))
		tr.end(0)
		ctrls = append(ctrls, c)
		if i > 0 {
			if err := st.Close(); err != nil {
				return nil, err
			}
			continue
		}

		tr.begin("core")
		tr.begin("core.Controller.Snapshot")
		snap := c.Snapshot(historyStart.Add(historySpan))
		tr.end(len(snap.Entries))
		tr.end(0)
		tr.begin("store")
		tr.begin("store.Store.Checkpoint")
		err = st.Checkpoint(snap)
		tr.end(len(snap.Entries))
		if err == nil {
			for j := 0; j < len(samples) && err == nil; j += 512 {
				part := samples[j:min(j+512, len(samples))]
				tr.begin("store.Store.Append")
				for _, smp := range part {
					if _, err = st.Append(smp); err != nil {
						break
					}
				}
				tr.end(len(part))
			}
		}
		tr.end(0)
		if err = errors.Join(err, st.Close()); err != nil {
			return nil, err
		}

		tr.begin("core")
		for j := 0; j < len(samples); j += 512 {
			part := samples[j:min(j+512, len(samples))]
			tr.begin("core.Controller.Ingest")
			for _, smp := range part {
				c.Ingest(smp)
			}
			tr.end(len(part))
		}
		keys := distinct(in.queries)
		if len(keys) > maxReplayKeys {
			keys = keys[:maxReplayKeys]
		}
		tr.begin("core.Controller.Estimate+SketchFor")
		for _, k := range keys {
			if _, ok := c.Estimate(k.coreKey()); ok {
				c.SketchFor(k.coreKey())
			}
		}
		tr.end(len(keys))
		for _, m := range sampleMetrics {
			tr.begin("core.Controller.Records")
			recs := c.Records(sampleNet, m)
			tr.end(len(recs))
		}
		tr.end(0)

		// The sample budget is cached per key; a freshly restored
		// controller computes it on first use, as after a restart.
		fresh := core.Restore(*rec.Snapshot)
		tr.begin("core")
		tr.begin("core.Controller.RequiredSamplesFor")
		for _, k := range keys {
			fresh.RequiredSamplesFor(k.coreKey())
		}
		tr.end(len(keys))
		tr.end(0)
	}
	return ctrls, nil
}

func distinct(ks []zkey) []zkey {
	seen := map[zkey]bool{}
	var out []zkey
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// mergeSketches merges, for every query key, the first two shards'
// serialized window sketches the way the gateway does. A one-shard
// workload merges its shard's sketch with an identical copy, as a primary
// and its caught-up replica would answer.
func mergeSketches(tr *tracer, in *inputs, ctrls []*core.Controller) error {
	a, b := ctrls[0], ctrls[len(ctrls)-1]
	var pairs [][2][]byte
	for _, k := range distinct(in.queries) {
		x, okx := a.SketchFor(k.coreKey())
		y, oky := b.SketchFor(k.coreKey())
		if okx && oky {
			pairs = append(pairs, [2][]byte{x, y})
		}
	}
	tr.begin("cluster")
	tr.begin("cluster.merge")
	for _, p := range pairs {
		x, err := sketch.UnmarshalEpochSketch(p[0])
		if err != nil {
			return err
		}
		y, err := sketch.UnmarshalEpochSketch(p[1])
		if err != nil {
			return err
		}
		x.Merge(y)
		x.MarshalBinary()
	}
	tr.end(len(pairs))
	tr.end(0)
	if len(pairs) == 0 {
		return errors.New("cluster: no key present on both merge sides")
	}
	return nil
}

// tailReadCalls is how many ReadBatch calls each fill level times.
const tailReadCalls = 3

// maxReplayReports and maxReplayKeys cap how much of a workload's inputs
// one pass replays, so a pass of the largest workload stays near a second
// of layer calls.
const (
	maxReplayReports = 64
	maxReplayKeys    = 64
)

// tailReads fills a fresh store's active segment to 10% and then 90% of
// its rotation size and times a caught-up ReadBatch at each level: the
// call the replication stream makes on every append wake and poll.
func tailReads(tr *tracer, dir string, samples []trace.Sample) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	const segMax = 4 << 20 // store.Options default SegmentMaxBytes
	var written int64
	j := 0
	for _, level := range []struct {
		name string
		fill float64
	}{{"store.Store.ReadBatch.fill10", 0.1}, {"store.Store.ReadBatch.fill90", 0.9}} {
		for written < int64(level.fill*segMax) {
			if _, err := st.Append(samples[j%len(samples)]); err != nil {
				return errors.Join(err, st.Close())
			}
			j++
			if j%64 == 0 {
				if written, err = segBytes(dir, 1); err != nil {
					return errors.Join(err, st.Close())
				}
			}
		}
		next := st.LastLSN() + 1
		tr.begin("store")
		for range tailReadCalls {
			tr.begin(level.name)
			batch, err := st.ReadBatch(next, 256)
			tr.end(len(batch))
			if err != nil {
				return errors.Join(err, st.Close())
			}
		}
		tr.end(0)
	}
	return st.Close()
}

// applier counts applied records for the shipping probe.
type applier struct {
	applied atomic.Uint64
	target  atomic.Uint64
	done    chan struct{}
}

func (a *applier) Bootstrap(lsn uint64, _ core.Snapshot) error {
	a.applied.Store(lsn)
	return nil
}

func (a *applier) Apply(lsn uint64, _ trace.Sample) error {
	a.applied.Store(lsn)
	if lsn == a.target.Load() {
		a.done <- struct{}{}
	}
	return nil
}

// shipRecords attaches a replica to a source over a fresh store, then
// times shipping a batch of records and single-record commit waits.
func shipRecords(tr *tracer, dir string, samples []trace.Sample) (err error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	// The stream wakes only on Notify, so a batch is shipped only once the
	// clock runs.
	src, err := replication.NewSource(st, "127.0.0.1:0", replication.SourceOptions{PollInterval: time.Hour, HeartbeatInterval: time.Hour})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, src.Close()) }()
	ap := &applier{done: make(chan struct{}, 1)}
	rep := replication.StartReplica(src.Addr(), ap, replication.ReplicaOptions{ID: "probe", From: 1})
	defer func() { err = errors.Join(err, rep.Close()) }()
	for deadline := time.Now().Add(10 * time.Second); src.ConnectedReplicas() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return errors.New("replication: probe replica did not attach")
		}
	}
	n := min(len(samples), shipRecordsN)
	for _, smp := range samples[:n] {
		if _, err := st.Append(smp); err != nil {
			return err
		}
	}
	ap.target.Store(st.LastLSN())
	tr.begin("replication")
	tr.begin("replication.ship")
	src.Notify()
	select {
	case <-ap.done:
	case <-time.After(10 * time.Second):
		return errors.New("replication: batch not applied within 10s")
	}
	tr.end(n)
	for i := range commitWaits {
		lsn, err := st.Append(samples[i%len(samples)])
		if err != nil {
			return err
		}
		ap.target.Store(lsn)
		tr.begin("replication.Source.WaitCommitted")
		src.Notify()
		ok := src.WaitCommitted(lsn, 10*time.Second)
		tr.end(1)
		if !ok {
			return fmt.Errorf("replication: LSN %d not committed within 10s", lsn)
		}
		<-ap.done
	}
	tr.end(0)
	return nil
}

const (
	shipRecordsN = 2000
	commitWaits  = 20
)

// rttCalls is how many direct round trips of each kind a pass times.
const rttCalls = 50

// coordinatorRTT restarts the workload's cluster and sends small sample
// reports and zone reports straight to the first shard, past the gateway.
func coordinatorRTT(tr *tracer, in *inputs, hist []string, dir string) (err error) {
	s := in.spec
	var dirs []string
	for i, h := range hist {
		d := filepath.Join(dir, s.shards[i].name)
		if err := copyDir(h, d); err != nil {
			return err
		}
		dirs = append(dirs, d)
	}
	replicaDir := ""
	if s.replica {
		replicaDir = filepath.Join(dir, "replica")
		if err := copyDir(hist[0], replicaDir); err != nil {
			return err
		}
	}
	topo, err := start(s, dirs, replicaDir)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, topo.close()) }()
	cl, err := open(topo.shards[0].Addr(), "probe")
	if err != nil {
		return err
	}
	defer cl.c.Close()

	var small []trace.Sample
	for _, smp := range in.liveSamples() {
		if s.shards[0].box.Contains(smp.Loc) {
			small = append(small, smp)
		}
	}
	const size = 8
	tr.begin("coordinator")
	for i := range rttCalls {
		rep := small[(i*size)%len(small):]
		rep = rep[:min(size, len(rep))]
		tr.begin("coordinator.sample_report")
		_, _, ok, err := cl.call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "probe", Samples: rep}}, wire.TypeSampleAck)
		tr.end(len(rep))
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("coordinator: sample report not acked")
		}
	}
	for i := range rttCalls {
		smp := small[i%len(small)]
		zr := &wire.ZoneReport{ClientID: "probe", Zone: s.shards[0].grid.Zone(smp.Loc), Loc: smp.Loc, At: smp.Time, Networks: []radio.NetworkID{sampleNet}}
		tr.begin("coordinator.zone_report")
		_, _, ok, err := cl.call(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: zr}, wire.TypeTaskList)
		tr.end(1)
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("coordinator: zone report got no task list")
		}
	}
	tr.end(0)
	return nil
}
