// Package repl is the replication and failover layer: WAL shipping from a
// primary kv.DB into replica Systems, follower reads at a provable revision
// watermark, and crash failover under epoch fencing.
//
// The design rides the repository's central invariant. PR 5's sequence gate
// made log order equal commit order on every engine, so a primary's WAL
// stream is not merely a recovery artifact — it is a replication stream. A
// wal.Tailer turns each stream device into a blocking, cursor-resumable
// feed of whole commit units; a Follower applies them to replica Systems
// through store Replay, the one entry point crash recovery uses too, so
// original revisions, event rings, and lease records are rebuilt exactly as
// a recovered primary would hold them. A replica at applied watermark W
// is therefore indistinguishable from the primary at revision W — the
// paper's substitution argument extended across machines, the same way it
// already spans the hardware and software commit paths.
//
// The moving parts:
//
//   - Group: the membership owner. It wraps a live primary (Local or
//     cluster), hooks its writers' append path to wake tailers, grows
//     replicas with AddLocalReplica/AddClusterReplica, and runs failover:
//     Kill fences the primary's writers (every later commit fails with
//     kv.ErrFenced before a byte reaches the device), Promote drains the
//     most-caught-up replica's tail and turns it into the stream's next
//     primary under epoch+1, recording the new role map in a durable
//     epoch frame on the coordinator stream.
//   - Follower: one replica — per-stream apply pumps on dedicated engine
//     threads, per-partition applied watermarks (store.Watermarks), and
//     the follower-read surface (ReadAt via kv.FollowerReader) whose
//     never-future guarantee comes from reading the key and the partition
//     clock in one engine transaction. A follower keeps no recovery state:
//     promotion is crash recovery minus the replay (kv.Local.Promote,
//     kv.ClusterDB.Promote), reading the drained devices with the scan
//     kv.OpenLocal and kv.OpenCluster run.
//
// Correctness of failover, briefly (DESIGN.md §12 has the full argument):
// an acknowledged commit was appended before the fence, the promoted
// replica drains the device to EOF before taking over, so zero
// acknowledged writes are lost; a zombie primary's post-fence commits are
// rejected in memory and never reach the device, so the epoch frame — the
// first durable frame of the new reign — proves every later frame came
// from the new primary.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rhtm/kv"
	"rhtm/obs"
	"rhtm/wal"
)

// ErrNoLog reports a Group over a DB constructed without a WAL.
var ErrNoLog = errors.New("repl: primary has no WAL attached")

// ErrKilled reports an operation that needs a live primary after Kill.
var ErrKilled = errors.New("repl: primary is killed")

// ErrNoReplica reports a Promote with no viable replica.
var ErrNoReplica = errors.New("repl: no caught-up replica to promote")

// Membership is the epoch-numbered role map. It is serialized as JSON into
// the epoch frame of the coordinator (or single local) stream at every
// promotion — the durable membership record recovery and operators read.
type Membership struct {
	Epoch    uint64   `json:"epoch"`
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas"`
}

// Group owns one replication group: a primary DB, its WAL stream devices,
// and the replicas tailing them. All methods are safe for concurrent use.
type Group struct {
	mu sync.Mutex // serializes Add/Kill/Promote/Close and membership state

	// fmu guards the follower list for the append-hook kick path, which
	// runs under the writers' locks — nothing holding fmu may call into a
	// writer.
	fmu       sync.RWMutex
	followers []*Follower

	// wmu guards the writer lists (a leaf lock).
	wmu sync.Mutex
	ws  []*wal.Writer // current primary's writers, data streams then coord
	all []*wal.Writer // every writer ever attached (fenced-frame accounting)

	primary kv.DB
	local   *kv.Local     // nil on a cluster group
	cdb     *kv.ClusterDB // nil on a local group
	// devs are the stream devices in writer order: the local stream, or
	// one per System then the coordinator decision log.
	devs []wal.Device

	epoch      uint64
	membership Membership
	killed     bool
	nextID     int

	reg        *obs.Registry
	promotions *obs.Counter
	applyBatch *obs.Histogram

	// flight, when set, closes the tracing loop: every follower apply
	// reports its watermark so traces awaiting their commit revision gain
	// a replica_apply stage (obs.Flight.ReplicaApplied).
	flight atomic.Pointer[obs.Flight]
}

// NewLocalGroup wraps a single-System primary (from kv.OpenLocal) whose log
// lives on dev. The primary keeps serving; its appends now also wake the
// group's tailers.
func NewLocalGroup(primary *kv.Local, dev wal.Device) (*Group, error) {
	g := newGroup()
	g.primary, g.local, g.devs = primary, primary, []wal.Device{dev}
	if err := g.attachWriters(); err != nil {
		return nil, err
	}
	return g, nil
}

// NewClusterGroup wraps a multi-System primary (from kv.OpenCluster) whose
// streams live in stg — one device per System plus the coordinator decision
// log, under the same names kv.OpenCluster uses.
func NewClusterGroup(primary *kv.ClusterDB, stg wal.Storage) (*Group, error) {
	g := newGroup()
	g.primary, g.cdb = primary, primary
	n := primary.Cluster().NumSystems()
	for i := 0; i <= n; i++ {
		name := kv.WALCoordName
		if i < n {
			name = kv.WALDataName(i)
		}
		dev, err := stg.Device(name)
		if err != nil {
			return nil, err
		}
		g.devs = append(g.devs, dev)
	}
	if err := g.attachWriters(); err != nil {
		return nil, err
	}
	return g, nil
}

func newGroup() *Group {
	g := &Group{epoch: 1, reg: obs.NewRegistry()}
	g.membership = Membership{Epoch: 1, Primary: "primary"}
	g.promotions = g.reg.Counter("repl.promotions")
	g.applyBatch = g.reg.Histogram("repl.apply_batch")
	g.reg.GaugeFunc("repl.fenced_frames", g.fencedFrames)
	g.reg.GaugeFunc("repl.lag_frames", g.lagFrames)
	return g
}

// attachWriters records the current primary's writers, in device order,
// and hooks their append paths to wake every tailer in the group. A primary
// without a log fails with ErrNoLog.
func (g *Group) attachWriters() error {
	var ws []*wal.Writer
	if g.local != nil {
		if w := g.local.WAL(); w != nil {
			ws = []*wal.Writer{w}
		}
	} else if set := g.cdb.Cluster().WAL(); set != nil {
		ws = append(slices.Clone(set.Data), set.Coord)
	}
	if ws == nil {
		return ErrNoLog
	}
	g.wmu.Lock()
	g.ws = ws
	g.all = append(g.all, ws...)
	g.wmu.Unlock()
	for _, w := range ws {
		w.SetOnAppend(g.kickAll)
	}
	return nil
}

// kickAll wakes every follower's tailers. It runs under the writers' locks
// (SetOnAppend), so it touches only the follower list and tailer locks.
func (g *Group) kickAll() {
	g.fmu.RLock()
	for _, f := range g.followers {
		f.kick()
	}
	g.fmu.RUnlock()
}

// fencedFrames sums fenced-commit rejections over every writer the group
// has ever owned — the zombie writes that never reached a device.
func (g *Group) fencedFrames() int64 {
	g.wmu.Lock()
	ws := append([]*wal.Writer(nil), g.all...)
	g.wmu.Unlock()
	var n int64
	for _, w := range ws {
		n += int64(w.Stats().Fenced)
	}
	return n
}

// lagFrames sums, over every follower and stream, how many LSNs the
// follower's applied cursor trails the primary writer's last append.
func (g *Group) lagFrames() int64 {
	g.wmu.Lock()
	ws := append([]*wal.Writer(nil), g.ws...)
	g.wmu.Unlock()
	lasts := make([]uint64, len(ws))
	for i, w := range ws {
		lasts[i] = w.Stats().LastLSN
	}
	g.fmu.RLock()
	defer g.fmu.RUnlock()
	var lag int64
	for _, f := range g.followers {
		for i, s := range f.streams {
			if i >= len(lasts) {
				break
			}
			if ap := s.lsn(); lasts[i] > ap {
				lag += int64(lasts[i] - ap)
			}
		}
	}
	return lag
}

// ReplicaStatus is one replica stream's applied watermarks and lag — the
// health view Status reports and a server's KindHealth adapter forwards.
type ReplicaStatus struct {
	// Name is the replica's membership name.
	Name string `json:"name"`
	// Stream names the WAL stream within the replica (one per System).
	Stream string `json:"stream"`
	// AppliedLSN is the stream's applied log cursor.
	AppliedLSN uint64 `json:"applied_lsn"`
	// AppliedRev is the stream's applied revision watermark.
	AppliedRev uint64 `json:"applied_rev"`
	// LagFrames is how many LSNs the cursor trails the primary writer's
	// last append at sampling time.
	LagFrames uint64 `json:"lag_frames"`
}

// Status reports every follower stream's applied watermark and lag, in
// registration order — the per-replica breakdown of the lag_frames gauge.
func (g *Group) Status() []ReplicaStatus {
	g.wmu.Lock()
	ws := append([]*wal.Writer(nil), g.ws...)
	g.wmu.Unlock()
	lasts := make([]uint64, len(ws))
	for i, w := range ws {
		lasts[i] = w.Stats().LastLSN
	}
	g.fmu.RLock()
	defer g.fmu.RUnlock()
	var out []ReplicaStatus
	for _, f := range g.followers {
		for i, s := range f.streams {
			st := ReplicaStatus{
				Name:       f.name,
				Stream:     s.name,
				AppliedLSN: s.lsn(),
				AppliedRev: s.rev(),
			}
			if i < len(lasts) && lasts[i] > st.AppliedLSN {
				st.LagFrames = lasts[i] - st.AppliedLSN
			}
			out = append(out, st)
		}
	}
	return out
}

// Membership returns the current epoch-numbered role map.
func (g *Group) Membership() Membership {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.membership
	m.Replicas = append([]string(nil), m.Replicas...)
	return m
}

// Primary returns the group's current primary DB.
func (g *Group) Primary() kv.DB {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.primary
}

// Metrics snapshots the group's repl.* instruments.
func (g *Group) Metrics() obs.Snapshot { return g.reg.Snapshot() }

// SetFlight attaches (or, with nil, detaches) the flight recorder the
// followers' apply pumps report watermarks to. Wire it to the same Flight
// the tracing front end records into — that is what links a trace to the
// replica apply of its commit revision. Safe to call while pumps run.
func (g *Group) SetFlight(f *obs.Flight) { g.flight.Store(f) }

// register adds f to the live follower list and membership.
func (g *Group) register(f *Follower) {
	g.fmu.Lock()
	g.followers = append(g.followers, f)
	g.fmu.Unlock()
	g.membership.Replicas = append(g.membership.Replicas, f.name)
	// Gauges live as long as the group; they keep reporting the follower's
	// last applied cursor after promotion (then tracking it as primary is
	// the lag gauge's job, which reads the live list).
	for _, s := range f.streams {
		s := s
		g.reg.GaugeFunc(obs.Name("repl.applied_lsn", "replica", f.name, "stream", s.name),
			func() int64 { return int64(s.lsn()) })
		g.reg.GaugeFunc(obs.Name("repl.applied_rev", "replica", f.name, "stream", s.name),
			func() int64 { return int64(s.rev()) })
	}
}

// Kill fences the primary's writers: every commit from then on fails with
// kv.ErrFenced before any frame reaches a device, and the primary's memory
// is considered lost. Replicas keep the durable committed prefix. Idempotent.
func (g *Group) Kill() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.killLocked()
}

func (g *Group) killLocked() {
	if g.killed {
		return
	}
	g.killed = true
	g.wmu.Lock()
	ws := append([]*wal.Writer(nil), g.ws...)
	g.wmu.Unlock()
	for _, w := range ws {
		w.Fence()
	}
	// One last kick: the fence wakes committers, not tailers, and the
	// drain below must not depend on further traffic.
	g.kickAll()
}

// Promote runs failover: it fences the primary (if Kill has not already),
// drains the most-caught-up replica's tail, and re-opens the stream under
// epoch+1 with the replica as primary — the epoch frame, synced first, is
// the durable fencing evidence. The replica's DB reads the drained devices
// as crash recovery would (kv.ClusterDB.Promote resolves in-doubt
// cross-System decisions forward from them). The remaining replicas
// keep tailing the same devices and so follow the new primary. Returns the
// promoted DB and its Follower (now retired from the replica list).
func (g *Group) Promote() (kv.DB, *Follower, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.killLocked()

	g.fmu.RLock()
	cands := append([]*Follower(nil), g.followers...)
	g.fmu.RUnlock()
	if len(cands) == 0 {
		return nil, nil, ErrNoReplica
	}
	// Most-caught-up first: highest applied LSN total at fence time. After
	// its drain the choice is exact — the device is the committed prefix.
	best := -1
	var bestLSN uint64
	for i, f := range cands {
		if t := f.appliedTotal(); best == -1 || t > bestLSN {
			best, bestLSN = i, t
		}
	}
	cands[0], cands[best] = cands[best], cands[0]
	var chosen *Follower
	var errs []error
	for _, f := range cands {
		if err := f.drain(); err != nil {
			errs = append(errs, fmt.Errorf("replica %s: %w", f.name, err))
			continue
		}
		chosen = f
		break
	}
	if chosen == nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNoReplica, errors.Join(errs...))
	}
	chosen.stop()

	g.epoch++
	rest := make([]string, 0, len(g.membership.Replicas))
	for _, name := range g.membership.Replicas {
		if name != chosen.name {
			rest = append(rest, name)
		}
	}
	g.membership = Membership{Epoch: g.epoch, Primary: chosen.name, Replicas: rest}
	blob, err := json.Marshal(g.membership)
	if err != nil {
		return nil, nil, err
	}

	if chosen.localDB != nil {
		err = chosen.localDB.Promote(g.devs[0], g.epoch, blob)
	} else {
		err = chosen.cdb.Promote(g.devs, g.epoch, blob)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("repl: promote %s: %w", chosen.name, err)
	}

	g.fmu.Lock()
	rest2 := g.followers[:0]
	for _, f := range g.followers {
		if f != chosen {
			rest2 = append(rest2, f)
		}
	}
	g.followers = rest2
	g.fmu.Unlock()

	g.primary = chosen.db
	g.local, g.cdb = chosen.localDB, chosen.cdb
	if err := g.attachWriters(); err != nil {
		return nil, nil, err
	}
	g.killed = false
	g.promotions.Inc()
	// The promotion itself appended frames (epoch records, in-doubt redo)
	// before the hook was attached: wake the surviving tailers once.
	g.kickAll()
	return chosen.db, chosen, nil
}

// Close stops every follower's pumps. The primary keeps running.
func (g *Group) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fmu.RLock()
	fs := append([]*Follower(nil), g.followers...)
	g.fmu.RUnlock()
	for _, f := range fs {
		f.stop()
	}
	g.fmu.Lock()
	g.followers = nil
	g.fmu.Unlock()
}
