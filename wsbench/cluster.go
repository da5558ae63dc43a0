package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wire"
)

// buildHistory writes each shard's history into dir/<shard> through the
// store's public API: the checkpointed prefix is journaled and folded into
// a controller whose snapshot becomes the checkpoint, then the tail is
// journaled after it. It runs once per process, outside every timed phase.
func buildHistory(dir string, in *inputs) ([]string, error) {
	var dirs []string
	for i, sg := range in.spec.shards {
		d := filepath.Join(dir, sg.name)
		st, err := store.Open(d, store.Options{})
		if err != nil {
			return nil, err
		}
		ctrl := core.NewController(core.DefaultConfig(), sg.grid.Origin())
		h := in.history[i]
		for j, smp := range h {
			if _, err := st.Append(smp); err != nil {
				return nil, errors.Join(err, st.Close())
			}
			if j < in.spec.ckptSamples {
				ctrl.Ingest(smp)
			}
			if j == in.spec.ckptSamples-1 {
				if err := st.Checkpoint(ctrl.Snapshot(smp.Time)); err != nil {
					return nil, errors.Join(err, st.Close())
				}
			}
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	return dirs, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	//lint:ignore errdrop read-only source of a copy, no durability at stake
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}

// segBytes sums the sizes of the WAL segments in dir whose first LSN is at
// least from: the records journaled since a recovery that resumed at from.
func segBytes(dir string, from uint64) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		var first uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.seg", &first); err != nil || first < from {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// topology is one round's running servers: a coordinator per shard, an
// optional semi-synchronous replica of the first shard, and the gateway.
type topology struct {
	shards  []*coordinator.Server
	dirs    []string
	from    []uint64 // first LSN each shard journals after recovery
	replica *coordinator.Server
	gw      *cluster.Gateway
}

// shardOptions are the coordinator options of every node: durable, with
// background checkpoints off so that a round's journal and checkpoints
// depend only on its operations.
func shardOptions(id, dir string) coordinator.Options {
	return coordinator.Options{
		ServerID:           id,
		DataDir:            dir,
		CheckpointInterval: -1,
		Seed:               1,
	}
}

// start restarts the cluster on the given data directories: each shard
// recovers its history, the replica (when the spec has one) recovers its
// own copy and attaches to the primary, then the gateway starts. The
// caller times it as set-up.
func start(s spec, dirs []string, replicaDir string) (*topology, error) {
	t := &topology{dirs: dirs}
	for i, sg := range s.shards {
		opts := shardOptions(sg.name, dirs[i])
		if i == 0 && s.replica {
			opts.ReplicationAddr = "127.0.0.1:0"
			opts.SyncReplication = true
		}
		srv, err := coordinator.Serve(core.NewController(core.DefaultConfig(), sg.grid.Origin()), "127.0.0.1:0", opts)
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		t.shards = append(t.shards, srv)
	}
	if s.replica {
		opts := shardOptions(s.shards[0].name+"-replica", replicaDir)
		opts.ReplicationAddr = "127.0.0.1:0"
		opts.ReplicateFrom = t.shards[0].ReplicationAddr()
		srv, err := coordinator.Serve(core.NewController(core.DefaultConfig(), s.shards[0].grid.Origin()), "127.0.0.1:0", opts)
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		t.replica = srv
		if err := waitAttached(t.shards[0].Addr(), 10*time.Second); err != nil {
			return nil, errors.Join(err, t.close())
		}
	}
	var cfgs []cluster.ShardConfig
	for i, sg := range s.shards {
		cfgs = append(cfgs, cluster.ShardConfig{Name: sg.name, Addr: t.shards[i].Addr(), Box: sg.box})
	}
	reg, err := cluster.NewRegistry(cfgs)
	if err != nil {
		return nil, errors.Join(err, t.close())
	}
	// No shard fails in any workload, so the background recheck would only
	// add timer wake-ups to the measurement.
	t.gw, err = cluster.ServeGateway(reg, "127.0.0.1:0", cluster.GatewayOptions{Seed: 1, RecheckInterval: -1})
	if err != nil {
		return nil, errors.Join(err, t.close())
	}
	for _, srv := range t.shards {
		st, err := status(srv.Addr())
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		t.from = append(t.from, st.LastLSN+1)
	}
	return t, nil
}

// status asks a coordinator for its replication status over the wire.
func status(addr string) (*wire.StatusReply, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep, err := c.Request(wire.Envelope{Type: wire.TypeStatusRequest, StatusRequest: &wire.StatusRequest{}})
	if err != nil {
		return nil, err
	}
	if rep.StatusReply == nil {
		return nil, fmt.Errorf("status %s: reply %q", addr, rep.Type)
	}
	return rep.StatusReply, nil
}

// waitAttached polls the primary until a replica stream is connected, so
// every ack of the timed phase waits on the replica.
func waitAttached(addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		st, err := status(addr)
		if err != nil {
			return err
		}
		for _, r := range st.Replicas {
			if r.Connected {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("replica did not attach to %s within %v", addr, limit)
}

func dial(addr string) (*wire.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(nc), nil
}

// walBytes is the size of everything journaled since start, summed over
// the shards.
func (t *topology) walBytes() (int64, error) {
	var n int64
	for i, d := range t.dirs {
		b, err := segBytes(d, t.from[i])
		if err != nil {
			return 0, err
		}
		n += b
	}
	return n, nil
}

// close stops the gateway, the replica and the shards, in that order.
func (t *topology) close() error {
	var err error
	if t.gw != nil {
		err = errors.Join(err, t.gw.Close())
	}
	if t.replica != nil {
		err = errors.Join(err, t.replica.Close())
	}
	for _, s := range t.shards {
		err = errors.Join(err, s.Close())
	}
	return err
}
