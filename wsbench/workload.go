package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

// shardGeo is one shard's region: the box the gateway routes by and the
// grid origin its controller measures zone IDs from. Every shard's origin
// is its box's south-west corner, so zone (x, y) exists in both shards and
// a gateway estimate for it fans out to both and merges.
type shardGeo struct {
	name string
	box  geo.BoundingBox
	grid *geo.Grid
}

// The boxes are the ones documented for cmd/wiscape-gateway; each holds a
// 30x30 block of 443 m zones with room to spare.
var (
	madison = newShardGeo("madison", geo.BoundingBox{MinLat: 42.99, MinLon: -89.59, MaxLat: 43.20, MaxLon: -89.20})
	newJrsy = newShardGeo("new-jersey", geo.BoundingBox{MinLat: 40.30, MinLon: -74.75, MaxLat: 40.55, MaxLon: -74.35})
)

func newShardGeo(name string, box geo.BoundingBox) shardGeo {
	origin := geo.Point{Lat: box.MinLat, Lon: box.MinLon}
	return shardGeo{name: name, box: box, grid: geo.GridForZoneRadius(origin, core.DefaultConfig().ZoneRadiusM)}
}

// Every sample is on one network; the two metrics give each zone two keys.
const sampleNet = radio.NetB

var sampleMetrics = [2]trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs}

// historyStart is the timestamp of the first history sample. History
// samples are spread over historySpan; live samples continue after it at
// liveStep per sample, so epochs keep closing during the timed phase.
var historyStart = time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)

const (
	historySpan = 48 * time.Hour
	liveStep    = 50 * time.Millisecond
)

// spec is the fixed make-up of one workload. Counts are per round; every
// round repeats the same operations on fresh copies of the history.
type spec struct {
	name   string
	shards []shardGeo
	// replica attaches one semi-synchronous replica to shards[0].
	replica bool
	// zoneSide^2 zones per shard, two keys (metrics) per zone.
	zoneSide int
	// Per shard: samples folded into the checkpoint, then samples left in
	// the WAL tail after it.
	ckptSamples, tailSamples int

	// bulk-split: conns x bulkReports reports of bulkSize samples, each
	// report's samples alternating between the two shards.
	bulkReports, bulkSize int

	// agent-rounds-semisync: conns x agents agents, each hello then
	// agentRounds x (zone report -> task list -> sample report of 1..9
	// samples).
	agents, agentRounds int

	// query-under-ingest: one connection sends the queries while the
	// other sends writerReports reports of writerSize samples; checkpoints
	// times per round, at even query counts, every shard is checkpointed.
	writerReports, writerSize int
	checkpoints               int

	// Every workload sends queries requests (every zoneListEvery-th a zone
	// list, the rest estimates) from one connection: beside the writer on
	// query-under-ingest, after the ingest phase on the others.
	queries, zoneListEvery int
}

// conns is the client connection count of every workload: the benchmark
// host has two cores, and closed-loop load from two connections keeps
// both busy without queueing on the client side.
const conns = 2

var workloads = []spec{
	{
		name:        "bulk-split",
		shards:      []shardGeo{madison, newJrsy},
		zoneSide:    8,
		ckptSamples: 30000, tailSamples: 30000,
		bulkReports: 100, bulkSize: 512,
		queries: 512, zoneListEvery: 32,
	},
	{
		name:        "agent-rounds-semisync",
		shards:      []shardGeo{madison},
		replica:     true,
		zoneSide:    16,
		ckptSamples: 30000, tailSamples: 30000,
		agents: 20, agentRounds: 10,
		queries: 512, zoneListEvery: 32,
	},
	{
		name:        "query-under-ingest",
		shards:      []shardGeo{madison, newJrsy},
		zoneSide:    30,
		ckptSamples: 45000, tailSamples: 45000,
		queries: 600, zoneListEvery: 30,
		writerReports: 1800, writerSize: 8,
		checkpoints: 4,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// zkey names one statistic across shards: the zone ID is grid-relative, so
// the same zkey in two shards is what the gateway merges.
type zkey struct {
	zone   geo.ZoneID
	metric trace.Metric
}

func (k zkey) coreKey() core.Key { return core.Key{Zone: k.zone, Net: sampleNet, Metric: k.metric} }

// agentPlan is one simulated agent: its client id, its zone, and the size
// of each of its sample reports.
type agentPlan struct {
	id     string
	zone   geo.ZoneID
	loc    geo.Point
	report [][]trace.Sample
}

// inputs is everything one workload sends, generated from the seed before
// any server starts. The program sees only these values.
type inputs struct {
	spec spec
	// history[i] is shard i's pre-built history in journal order; the
	// first spec.ckptSamples of it are covered by the checkpoint.
	history [][]trace.Sample
	// bulk[c] are connection c's sample reports (bulk-split and the
	// query-under-ingest writer, which uses bulk[0]).
	bulk [][][]trace.Sample
	// agents[c] are connection c's agents (agent-rounds-semisync).
	agents [][]agentPlan
	// queries are the estimate keys the query phase asks for, in order;
	// zone-list requests are interleaved by position.
	queries []zkey
}

// keyBase gives each key its own level, so means differ across keys.
func keyBase(r *rand.Rand, m trace.Metric) float64 {
	if m == trace.MetricRTTMs {
		return 80 + 220*r.Float64()
	}
	return 400 + 1100*r.Float64()
}

// generator draws locations and values for one shard's keys.
type generator struct {
	r     *rand.Rand
	geo   shardGeo
	side  int
	level map[zkey]float64
}

func (g *generator) key() zkey {
	return zkey{
		zone:   geo.ZoneID{X: int32(g.r.IntN(g.side)), Y: int32(g.r.IntN(g.side))},
		metric: sampleMetrics[g.r.IntN(len(sampleMetrics))],
	}
}

// loc returns a point inside the zone, away from its edges.
func (g *generator) loc(z geo.ZoneID) geo.Point {
	c := g.geo.grid.Center(z)
	cell := g.geo.grid.CellM()
	return c.Offset(360*g.r.Float64(), 0.3*cell*g.r.Float64())
}

func (g *generator) sample(k zkey, at time.Time, client string) trace.Sample {
	lvl, ok := g.level[k]
	if !ok {
		lvl = keyBase(g.r, k.metric)
		g.level[k] = lvl
	}
	v := lvl * (1 + 0.15*g.r.NormFloat64())
	v = math.Max(v, 1)
	return trace.Sample{
		Time:     at,
		Loc:      g.loc(k.zone),
		Network:  sampleNet,
		Metric:   k.metric,
		Value:    math.Round(v*100) / 100,
		ClientID: client,
	}
}

func generate(s spec, seed uint64) *inputs {
	in := &inputs{spec: s}
	gens := make([]*generator, len(s.shards))
	for i, sg := range s.shards {
		gens[i] = &generator{
			r:     rand.New(rand.NewPCG(seed, uint64(i)+1)),
			geo:   sg,
			side:  s.zoneSide,
			level: make(map[zkey]float64),
		}
	}
	n := s.ckptSamples + s.tailSamples
	step := historySpan / time.Duration(n)
	in.history = make([][]trace.Sample, len(s.shards))
	for i, g := range gens {
		h := make([]trace.Sample, n)
		for j := range h {
			h[j] = g.sample(g.key(), historyStart.Add(time.Duration(j)*step), fmt.Sprintf("hist-%d", j%64))
		}
		in.history[i] = h
	}
	live := historyStart.Add(historySpan)
	next := func() time.Time { live = live.Add(liveStep); return live }
	r := rand.New(rand.NewPCG(seed, 100))

	switch {
	case s.bulkReports > 0:
		in.bulk = make([][][]trace.Sample, conns)
		for c := range in.bulk {
			client := fmt.Sprintf("bulk-%d", c)
			for range s.bulkReports {
				rep := make([]trace.Sample, s.bulkSize)
				for j := range rep {
					g := gens[j%len(gens)]
					rep[j] = g.sample(g.key(), next(), client)
				}
				in.bulk[c] = append(in.bulk[c], rep)
			}
		}
	case s.agents > 0:
		g := gens[0]
		in.agents = make([][]agentPlan, conns)
		for c := range in.agents {
			// Report sizes cycle through 1..9 in a seeded order, so every
			// seed journals the same number of samples per round and the
			// active segment fills along the same trajectory.
			sizes := make([]int, s.agents*s.agentRounds)
			for i := range sizes {
				sizes[i] = 1 + i%9
			}
			r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			for a := range s.agents {
				k := g.key()
				ap := agentPlan{id: fmt.Sprintf("agent-%d-%d", c, a), zone: k.zone, loc: g.loc(k.zone)}
				for i := range s.agentRounds {
					rep := make([]trace.Sample, sizes[a*s.agentRounds+i])
					for j := range rep {
						rep[j] = g.sample(zkey{zone: k.zone, metric: sampleMetrics[r.IntN(2)]}, next(), ap.id)
					}
					ap.report = append(ap.report, rep)
				}
				in.agents[c] = append(in.agents[c], ap)
			}
		}
	case s.writerReports > 0:
		in.bulk = make([][][]trace.Sample, 1)
		for i := range s.writerReports {
			g := gens[i%len(gens)]
			rep := make([]trace.Sample, s.writerSize)
			for j := range rep {
				rep[j] = g.sample(g.key(), next(), "writer")
			}
			in.bulk[0] = append(in.bulk[0], rep)
		}
	}

	for range s.queries {
		in.queries = append(in.queries, gens[r.IntN(len(gens))].key())
	}
	return in
}

// liveSamples returns every live sample in send order, for the per-layer
// replays.
func (in *inputs) liveSamples() []trace.Sample {
	var out []trace.Sample
	for _, c := range in.bulk {
		for _, rep := range c {
			out = append(out, rep...)
		}
	}
	for _, c := range in.agents {
		for _, ap := range c {
			for _, rep := range ap.report {
				out = append(out, rep...)
			}
		}
	}
	return out
}

// reports returns every live sample report in send order.
func (in *inputs) reports() [][]trace.Sample {
	var out [][]trace.Sample
	for _, c := range in.bulk {
		out = append(out, c...)
	}
	for _, c := range in.agents {
		for _, ap := range c {
			out = append(out, ap.report...)
		}
	}
	return out
}

// isZoneList reports whether query i of a phase is a zone-list request.
func isZoneList(i, every int) bool { return every > 0 && i%every == every-1 }
