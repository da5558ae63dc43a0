package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/wire"
)

// tally is what the benchmark expects the cluster to hold after a round,
// computed from the inputs it generated and never from the program's own
// output.
type tally struct {
	// perShard[i] is shard i's expected controller sample total: its
	// history plus every live sample sent inside its box.
	perShard []int64
	// sent is the number of live samples sent in a round.
	sent int
	// lo and hi bound the values ever sent for each key, across shards.
	lo, hi map[zkey]float64
}

func expectTally(in *inputs) *tally {
	t := &tally{perShard: make([]int64, len(in.spec.shards)), lo: map[zkey]float64{}, hi: map[zkey]float64{}}
	note := func(k zkey, v float64) {
		if lo, ok := t.lo[k]; !ok || v < lo {
			t.lo[k] = v
		}
		if hi, ok := t.hi[k]; !ok || v > hi {
			t.hi[k] = v
		}
	}
	for i, h := range in.history {
		t.perShard[i] += int64(len(h))
		for _, smp := range h {
			note(zkey{zone: in.spec.shards[i].grid.Zone(smp.Loc), metric: smp.Metric}, smp.Value)
		}
	}
	for _, smp := range in.liveSamples() {
		t.sent++
		for i, sg := range in.spec.shards {
			if sg.box.Contains(smp.Loc) {
				t.perShard[i]++
				note(zkey{zone: sg.grid.Zone(smp.Loc), metric: smp.Metric}, smp.Value)
				break
			}
		}
	}
	return t
}

// totalSamples sums the controller's per-key sample totals.
func totalSamples(c *core.Controller) int64 {
	var n int64
	for _, e := range c.View(time.Time{}).Entries {
		n += e.TotalCount
	}
	return n
}

// check verifies one round against the tally: acks, per-shard totals, and
// the workload's own property.
func check(in *inputs, t *topology, want *tally, acked int) error {
	if acked != want.sent {
		return fmt.Errorf("acks sum to %d samples, sent %d", acked, want.sent)
	}
	for i, srv := range t.shards {
		if got := totalSamples(srv.Controller()); got != want.perShard[i] {
			return fmt.Errorf("shard %s holds %d samples, want %d (history + acked in its box)",
				in.spec.shards[i].name, got, want.perShard[i])
		}
	}
	switch {
	case in.spec.replica:
		return checkReplica(t)
	case in.spec.bulkReports > 0:
		return checkReopen(in, t)
	default:
		return checkQueries(in, t, want)
	}
}

// sameState compares two snapshots taken at the same instant.
func sameState(a, b core.Snapshot) bool {
	return reflect.DeepEqual(a.Entries, b.Entries) && a.Origin == b.Origin
}

// checkReplica waits for the replica to apply the primary's last record
// and compares the two controllers' full snapshots.
func checkReplica(t *topology) error {
	st, err := status(t.shards[0].Addr())
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rs, err := status(t.replica.Addr())
		if err != nil {
			return err
		}
		if rs.AppliedLSN >= st.LastLSN {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica applied LSN %d, primary at %d", rs.AppliedLSN, st.LastLSN)
		}
		time.Sleep(time.Millisecond)
	}
	at := time.Unix(0, 0)
	a, b := t.shards[0].Controller().Snapshot(at), t.replica.Controller().Snapshot(at)
	if len(a.Entries) != len(b.Entries) || a.Origin != b.Origin {
		return fmt.Errorf("replica holds %d keys, primary %d", len(b.Entries), len(a.Entries))
	}
	relaid := 0
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if !bytes.Equal(x.Sketch, y.Sketch) {
			relaid++
			if err := sameSketch(x.Sketch, y.Sketch); err != nil {
				return fmt.Errorf("replica key %v: %w", x.Key, err)
			}
		}
		x.Sketch, y.Sketch = nil, nil
		if !reflect.DeepEqual(x, y) {
			return fmt.Errorf("replica key %v: %+v, primary %+v", x.Key, y, x)
		}
	}
	if relaid > 0 {
		fmt.Fprintf(logw, "wsbench: replica: %d of %d window sketches differ byte-wise from the primary's (same samples, different digest compaction)\n", relaid, len(a.Entries))
	}
	return nil
}

// checkReopen closes the last shard, reopens it on the same directory, and
// compares the recovered snapshot with the one taken before close.
func checkReopen(in *inputs, t *topology) error {
	i := len(t.shards) - 1
	sg := in.spec.shards[i]
	at := time.Unix(0, 0)
	before := t.shards[i].Controller().Snapshot(at)
	if err := t.shards[i].Close(); err != nil {
		return err
	}
	srv, err := coordinator.Serve(core.NewController(core.DefaultConfig(), sg.grid.Origin()), "127.0.0.1:0", shardOptions(sg.name, t.dirs[i]))
	if err != nil {
		return err
	}
	t.shards[i] = srv
	if !sameState(before, srv.Controller().Snapshot(at)) {
		return fmt.Errorf("shard %s recovered a snapshot that differs from the one before close", sg.name)
	}
	return nil
}

// checkQueries runs after the writer stopped: merged estimates must add up
// the shards' own replies, and the zone list must be the union of the
// shards' lists in (zone, network, metric) order.
func checkQueries(in *inputs, t *topology, want *tally) error {
	gw, err := dial(t.gw.Addr())
	if err != nil {
		return err
	}
	defer gw.Close()
	var direct []*wire.Conn
	for _, srv := range t.shards {
		c, err := dial(srv.Addr())
		if err != nil {
			return err
		}
		defer c.Close()
		direct = append(direct, c)
	}
	seen := map[zkey]bool{}
	for _, k := range in.queries {
		if seen[k] {
			continue
		}
		seen[k] = true
		req := wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{Zone: k.zone, Network: sampleNet, Metric: k.metric}}
		if err := checkEstimate(gw, direct, req, k, want); err != nil {
			return err
		}
	}
	for _, m := range sampleMetrics {
		req := wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{Network: sampleNet, Metric: m}}
		if err := checkZoneList(gw, direct, req); err != nil {
			return err
		}
	}
	return nil
}

func checkEstimate(gw *wire.Conn, direct []*wire.Conn, req wire.Envelope, k zkey, want *tally) error {
	rep, err := gw.Request(req)
	if err != nil {
		return err
	}
	if rep.EstimateReply == nil {
		return fmt.Errorf("estimate %v: reply %q", k, rep.Type)
	}
	var sum int64
	found := 0
	for _, c := range direct {
		r, err := c.Request(req)
		if err != nil {
			return err
		}
		if r.EstimateReply == nil || !r.EstimateReply.Found {
			continue
		}
		found++
		if err := ordered(k, r.EstimateReply.Record); err != nil {
			return err
		}
		es, err := sketch.UnmarshalEpochSketch(r.EstimateReply.Sketch)
		if err != nil {
			return fmt.Errorf("estimate %v: shard sketch: %w", k, err)
		}
		sum += es.Count()
	}
	if !rep.EstimateReply.Found {
		if found > 0 {
			return fmt.Errorf("estimate %v: not found through the gateway, found on %d shards", k, found)
		}
		return nil
	}
	rec := rep.EstimateReply.Record
	if found > 1 && rec.Samples != sum {
		return fmt.Errorf("estimate %v: merged count %d, shards sum to %d", k, rec.Samples, sum)
	}
	if rec.MeanValue < want.lo[k] || rec.MeanValue > want.hi[k] {
		return fmt.Errorf("estimate %v: mean %g outside the sent range [%g, %g]", k, rec.MeanValue, want.lo[k], want.hi[k])
	}
	return ordered(k, rec)
}

func ordered(k zkey, r core.Record) error {
	if !(r.P50 <= r.P90 && r.P90 <= r.P99) {
		return fmt.Errorf("estimate %v: quantiles out of order: p50 %g p90 %g p99 %g", k, r.P50, r.P90, r.P99)
	}
	return nil
}

// sameSketch compares two window sketches built from the same samples in
// the same order. Moments, extremes, weight and trend must match exactly.
// The digest's centroid layout may not: reading a digest (an estimate's
// SketchFor, task assignment's RequiredSamplesFor) compacts it in place,
// and the primary serves reads its replica never sees. Its quantiles must
// then agree within the digest's rank tolerance.
func sameSketch(a, b []byte) error {
	x, err := sketch.UnmarshalEpochSketch(a)
	if err != nil {
		return err
	}
	y, err := sketch.UnmarshalEpochSketch(b)
	if err != nil {
		return err
	}
	ax, ay := x.Accum(), y.Accum()
	tx, px := x.TrendSeries()
	ty, py := y.TrendSeries()
	if ax.State() != ay.State() || x.Weight() != y.Weight() || px != py || !reflect.DeepEqual(tx, ty) {
		return fmt.Errorf("window sketch state differs")
	}
	for q := 0.1; q < 0.95; q += 0.1 {
		if r := y.Rank(x.Quantile(q)); math.Abs(r-q) > rankTolerance {
			return fmt.Errorf("window quantile %.1f sits at rank %.3f in the other copy", q, r)
		}
	}
	return nil
}

// rankTolerance is the rank error the gateway's merge tests allow a
// digest (about 2%).
const rankTolerance = 0.02

func lessKey(a, b core.Key) bool {
	if a.Zone != b.Zone {
		if a.Zone.X != b.Zone.X {
			return a.Zone.X < b.Zone.X
		}
		return a.Zone.Y < b.Zone.Y
	}
	if a.Net != b.Net {
		return a.Net < b.Net
	}
	return a.Metric < b.Metric
}

func checkZoneList(gw *wire.Conn, direct []*wire.Conn, req wire.Envelope) error {
	rep, err := gw.Request(req)
	if err != nil {
		return err
	}
	if rep.ZoneListReply == nil {
		return fmt.Errorf("zone list: reply %q", rep.Type)
	}
	var got, union []core.Key
	for _, r := range rep.ZoneListReply.Records {
		got = append(got, r.Key)
	}
	for _, c := range direct {
		r, err := c.Request(req)
		if err != nil {
			return err
		}
		if r.ZoneListReply == nil {
			return fmt.Errorf("zone list: shard reply %q", r.Type)
		}
		for _, rec := range r.ZoneListReply.Records {
			union = append(union, rec.Key)
		}
	}
	for i := 1; i < len(got); i++ {
		if lessKey(got[i], got[i-1]) {
			return fmt.Errorf("zone list: %v listed after %v", got[i], got[i-1])
		}
	}
	sort.SliceStable(union, func(i, j int) bool { return lessKey(union[i], union[j]) })
	if !reflect.DeepEqual(got, union) {
		return fmt.Errorf("zone list: %d keys through the gateway, shards hold %d", len(got), len(union))
	}
	return nil
}
