package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded here and nowhere in the program: by the driver around
// each caller's call (the root), and by the decorators in decor.go around
// the public interface each layer is handed. A span's parent is the span
// open on the same goroutine when it began, so a layer's self time is its
// span minus the children that link to it.
//
// The wire carries no span context, so on the network workloads the spans a
// server goroutine opens first (the kv.DB decorator's) have no parent link;
// they are charged against the callers' root spans in aggregate, and the
// remainder is the front end's self time.

// span is one recorded interval. Times are nanoseconds since the tracer
// was armed; id is the span's position in the ring plus one.
type span struct {
	parent, op uint32
	name       uint8
	start, end int64
}

// Fixed span names; a workload's root names follow them in tracer.names.
const (
	spanEngineAtomic uint8 = iota
	spanWALAppend
	spanWALSync
	spanKVGet
	spanKVGetRev
	spanKVPut
	spanKVPutIf
	spanKVDelete
	spanKVDeleteIf
	spanKVUpdate
	spanKVBatch
	spanKVScan
	numFixedSpans
)

var fixedSpanNames = [numFixedSpans]string{
	"engine.atomic", "wal.append", "wal.sync",
	"kvdb.get", "kvdb.getrev", "kvdb.put", "kvdb.putif", "kvdb.delete",
	"kvdb.deleteif", "kvdb.update", "kvdb.batch", "kvdb.scan",
}

// layerOf maps a span name to the layer it bills: the text before the dot,
// with the decorator's kvdb.* and a caller's kv.* both billing kv.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	if l == "kvdb" {
		return "kv"
	}
	return l
}

// open is one entry of a goroutine's open-span stack.
type open struct{ id, op uint32 }

// tracer holds the preallocated span ring and the open-span stacks.
type tracer struct {
	on    atomic.Bool
	names []string
	roots uint8 // names[roots:] are root span names

	// lanes keys the open-span stacks by goroutine. The in-process
	// workloads run one worker, so they use the single stack and skip the
	// goroutine lookup, which costs about a microsecond.
	single bool
	stack  []open
	mu     sync.Mutex
	lanes  map[uint64][]open

	t0   time.Time
	ring []span
	next atomic.Uint32 // spans begun since arm
}

func newTracer(rootNames []string, single bool, capacity int) *tracer {
	t := &tracer{single: single, roots: numFixedSpans, lanes: map[uint64][]open{}}
	t.names = append(append(t.names, fixedSpanNames[:]...), rootNames...)
	if capacity > 0 {
		t.ring = make([]span, capacity)
	}
	return t
}

// arm empties the ring and starts recording; disarm stops it.
func (t *tracer) arm() {
	if len(t.ring) == 0 {
		return
	}
	t.next.Store(0)
	t.t0 = time.Now()
	t.on.Store(true)
}

func (t *tracer) disarm() { t.on.Store(false) }

// goid parses the current goroutine's id out of its stack header; the
// runtime offers no accessor.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a span under whatever is open on this goroutine. op is the
// caller's operation number for a root span and ignored otherwise. The
// returned token goes to end; 0 means tracing is off.
func (t *tracer) begin(name uint8, op uint32) uint32 {
	if !t.on.Load() {
		return 0
	}
	id := t.next.Add(1)
	var parent open
	if t.single {
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		if name < t.roots {
			op = parent.op
		}
		t.stack = append(t.stack, open{id, op})
	} else {
		g := goid()
		t.mu.Lock()
		st := t.lanes[g]
		if n := len(st); n > 0 {
			parent = st[n-1]
		}
		if name < t.roots {
			op = parent.op
		}
		t.lanes[g] = append(st, open{id, op})
		t.mu.Unlock()
	}
	s := &t.ring[int(id-1)%len(t.ring)]
	*s = span{parent: parent.id, op: op, name: name, start: int64(time.Since(t.t0))}
	return id
}

// end closes the span begin returned. Spans nest, so it is the top of its
// goroutine's stack.
func (t *tracer) end(id uint32) {
	if id == 0 {
		return
	}
	t.ring[int(id-1)%len(t.ring)].end = int64(time.Since(t.t0))
	if t.single {
		t.stack = t.stack[:len(t.stack)-1]
		return
	}
	g := goid()
	t.mu.Lock()
	if st := t.lanes[g]; len(st) > 1 {
		t.lanes[g] = st[:len(st)-1]
	} else {
		delete(t.lanes, g) // server goroutines are short-lived
	}
	t.mu.Unlock()
}

// accounts is what the recorded spans say about where the callers' time
// went.
type accounts struct {
	spans     int
	overflow  bool             // the ring wrapped: the accounts are incomplete
	rootTotal int64            // Σ root spans
	total     map[string]int64 // Σ span durations by layer
	self      map[string]int64 // Σ self times by layer
	count     map[string]int64 // spans by layer
	// unattributed is the time of parentless spans that are not roots (on
	// the network workloads: nor the kv.DB decorator's). Their subtrees
	// still bill their layers, so selfSum exceeds rootTotal by this much.
	unattributed int64
	negative     int64 // Σ of self times below zero (children outliving parents)
}

// selfSum is Σ layer self times: rootTotal plus whatever ran under no
// root.
func (a accounts) selfSum() int64 {
	var s int64
	for _, v := range a.self {
		s += v
	}
	return s
}

// account computes the self times of the spans recorded since arm. Call
// with tracing off.
func (t *tracer) account() accounts {
	n := int(t.next.Load())
	a := accounts{spans: n, total: map[string]int64{}, self: map[string]int64{}, count: map[string]int64{}}
	if n > len(t.ring) {
		a.overflow = true
		return a
	}
	spans := t.ring[:n]
	children := make([]int64, n+1)
	for _, s := range spans {
		children[s.parent] += s.end - s.start
	}
	layers := make([]string, len(t.names))
	for i, nm := range t.names {
		layers[i] = layerOf(nm)
	}
	var remoteTop int64 // parentless kv.DB decorator spans (network workloads)
	for i, s := range spans {
		dur := s.end - s.start
		self := dur - children[i+1]
		if self < 0 {
			a.negative += self
		}
		l := layers[s.name]
		a.total[l] += dur
		a.self[l] += self
		a.count[l]++
		switch {
		case s.name >= t.roots:
			a.rootTotal += dur
		case s.parent != 0:
		case !t.single && s.name >= spanKVGet:
			remoteTop += dur
		default:
			a.unattributed += dur
		}
	}
	if remoteTop > 0 {
		// The callers waited rootTotal; the server worked remoteTop of it
		// under spans. The rest is client, wire, server and batcher.
		a.self[layers[t.roots]] -= remoteTop
	}
	return a
}

// writeSpans writes the spans recorded since arm as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := int(t.next.Load())
	first := 0
	if n > len(t.ring) {
		first = n - len(t.ring)
	}
	for i := first; i < n; i++ {
		s := t.ring[i%len(t.ring)]
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i+1, s.parent, s.op, t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
