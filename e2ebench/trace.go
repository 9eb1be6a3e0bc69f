package main

import (
	"sync"
	"sync/atomic"
	"time"

	"flecc/internal/airline"
	"flecc/internal/property"
	"flecc/internal/wire"
)

// The tracer records spans from outside the program: every span comes from
// a wrapper around something the benchmark hands to the program (the
// network and its endpoints and handlers, the codecs, the replication
// endpoint) or from the benchmark's own calls into cache.Manager. With
// tracing off the wrappers only delegate and bump a few atomic counters.
//
// Attribution. Go has no goroutine-local context, so a span finds its op
// through the view it concerns:
//   - CM-side spans (op, cache call, CM endpoint call) run on the driver
//     goroutine that owns the view and nest on that view's stack;
//   - a DM handler span belongs to the op of req.From, under the open CM
//     call of that view;
//   - a DM outbound call to view t belongs to the newest open DM handler
//     in t's conflict group whose requester is not t, and the CM handler
//     it triggers nests under it;
//   - a primary codec call belongs to the newest open DM handler in the
//     group its flights fall in; a view codec call to the newer of the
//     view's open CM handler and its CM-side stack top.
// Every workload has at least as many conflict groups as drivers, and the
// drivers own whole groups, so these rules are exact. On mix-tcp-shared,
// where both drivers share one group, the only other requester is the peer
// view, which keeps the DM outbound rule exact and leaves only concurrent
// primary codec calls ambiguous (they go to the newest handler).

type kind uint8

const (
	kOp        kind = iota // one browse or buy, by the driver
	kCache                 // a public cache.Manager call
	kCall                  // the CM endpoint's outbound Call
	kDM                    // the DM handler serving a CM request
	kFanout                // the DM endpoint's outbound Call (invalidate/fetch/update)
	kCMHandler             // a CM handler serving a DM-initiated call
	kPrimCodec             // the primary codec
	kViewCodec             // a view codec
	kRepl                  // replication barrier: DM handler tail overlapped by a ship
)

// Layers partition an op's wall time; every span kind maps to one.
type layer int

const (
	layerApp layer = iota
	layerCache
	layerTransport
	layerDirectory
	layerCodec
	layerReplicate
	nLayers
)

var layerOf = [...]layer{
	kOp:        layerApp,
	kCache:     layerCache,
	kCall:      layerTransport,
	kDM:        layerDirectory,
	kFanout:    layerTransport,
	kCMHandler: layerCache,
	kPrimCodec: layerCodec,
	kViewCodec: layerCodec,
	kRepl:      layerReplicate,
}

// Sub-kinds of kCache spans.
const (
	cPull uint8 = iota
	cPush
	cSetMode
	cStartUse
	cEndUse
)

// Sub-kinds of codec spans and indexes of the codec counters.
const (
	xExtract uint8 = iota
	xKeyed
	xMerge
)

var cacheSubNames = [...]string{cPull: "pull", cPush: "push", cSetMode: "set-mode", cStartUse: "start-use", cEndUse: "end-use"}

var codecSubNames = [...]string{xExtract: "extract", xKeyed: "extract-keys", xMerge: "merge"}

type span struct {
	kind   kind
	sub    uint8
	parent int32
	start  int64 // ns since the tracer's origin
	end    int64 // -1 while open
}

// opTrace holds the spans of one op; spans[0] is the op itself.
type opTrace struct {
	id    int64
	view  string
	spans []span
}

// ref names one span; a nil ot means "not attributed".
type ref struct {
	ot *opTrace
	i  int32
}

func (r ref) ok() bool { return r.ot != nil }

type viewCtx struct {
	group   int
	stack   []ref // CM-side open spans, innermost last
	handler ref   // open CM handler span
	inbound ref   // open DM outbound call to this view
}

type dmOpen struct {
	r    ref
	view string
}

type interval struct{ start, end int64 }

type ship struct {
	id int64
	interval
}

// maxShips bounds the recent replication ships kept for barrier overlap.
const maxShips = 256

type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu     sync.Mutex
	views  map[string]*viewCtx
	dm     map[int][]dmOpen
	ships  []ship // recent ships, end -1 while in flight
	shipID int64
	nextOp int64
	// Inclusive durations of spans that belong to no op.
	shipHist, absorbHist hist
	// shipWG tracks the goroutines that time asynchronous ships.
	shipWG sync.WaitGroup

	// groupFirst maps a conflict group to its first flight.
	groupFirst []int

	// Counted in every mode, so traced and untraced runs can be compared.
	primCalls   [3]atomic.Int64
	viewEntries atomic.Int64     // entries merged into views
	fanout      [32]atomic.Int64 // DM outbound calls by wire type
	// Timed only while tracing.
	primNs [3]atomic.Int64
	viewNs [3]atomic.Int64
}

func newTracer(groupFirst []int) *tracer {
	return &tracer{
		origin:     time.Now(),
		views:      map[string]*viewCtx{},
		dm:         map[int][]dmOpen{},
		groupFirst: groupFirst,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) addView(name string, group int) {
	t.mu.Lock()
	t.views[name] = &viewCtx{group: group}
	t.mu.Unlock()
}

// add appends a span under r's op; caller holds mu.
func (t *tracer) add(parent ref, k kind, sub uint8, start int64) ref {
	ot := parent.ot
	ot.spans = append(ot.spans, span{kind: k, sub: sub, parent: parent.i, start: start, end: -1})
	return ref{ot: ot, i: int32(len(ot.spans) - 1)}
}

func (t *tracer) close(r ref, end int64) {
	if r.ok() {
		r.ot.spans[r.i].end = end
	}
}

// beginOp opens the root span of a new op on view. Tracing must be on.
func (t *tracer) beginOp(view string) *opTrace {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	ot := &opTrace{id: t.nextOp, view: view, spans: make([]span, 1, 16)}
	ot.spans[0] = span{kind: kOp, parent: -1, start: start, end: -1}
	vc := t.views[view]
	vc.stack = append(vc.stack[:0], ref{ot: ot, i: 0})
	return ot
}

func (t *tracer) endOp(ot *opTrace) {
	end := t.now()
	t.mu.Lock()
	ot.spans[0].end = end
	t.views[ot.view].stack = t.views[ot.view].stack[:0]
	t.mu.Unlock()
}

// push opens a CM-side span nested on view's stack.
func (t *tracer) push(view string, k kind, sub uint8) ref {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	vc := t.views[view]
	if vc == nil || len(vc.stack) == 0 {
		return ref{}
	}
	r := t.add(vc.stack[len(vc.stack)-1], k, sub, start)
	vc.stack = append(vc.stack, r)
	return r
}

func (t *tracer) pop(view string, r ref) {
	end := t.now()
	if !r.ok() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(r, end)
	vc := t.views[view]
	if n := len(vc.stack); n > 0 && vc.stack[n-1] == r {
		vc.stack = vc.stack[:n-1]
	}
}

func (t *tracer) beginDM(req *wire.Message) ref {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	vc := t.views[req.From]
	if vc == nil || len(vc.stack) == 0 {
		return ref{}
	}
	r := t.add(vc.stack[len(vc.stack)-1], kDM, uint8(req.Type), start)
	t.dm[vc.group] = append(t.dm[vc.group], dmOpen{r: r, view: req.From})
	return r
}

func (t *tracer) endDM(req *wire.Message, r ref) {
	end := t.now()
	if !r.ok() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(r, end)
	g := t.views[req.From].group
	open := t.dm[g]
	for i := range open {
		if open[i].r == r {
			t.dm[g] = append(open[:i], open[i+1:]...)
			break
		}
	}
}

// newestDM returns the newest open DM handler in group whose requester
// is not except; caller holds mu.
func (t *tracer) newestDM(group int, except string) ref {
	open := t.dm[group]
	for i := len(open) - 1; i >= 0; i-- {
		if open[i].view != except {
			return open[i].r
		}
	}
	return ref{}
}

func (t *tracer) beginFanout(to string, req *wire.Message) ref {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	vc := t.views[to]
	if vc == nil {
		return ref{}
	}
	parent := t.newestDM(vc.group, to)
	if !parent.ok() {
		return ref{}
	}
	r := t.add(parent, kFanout, uint8(req.Type), start)
	vc.inbound = r
	return r
}

func (t *tracer) endFanout(to string, r ref) {
	end := t.now()
	if !r.ok() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(r, end)
	if vc := t.views[to]; vc.inbound == r {
		vc.inbound = ref{}
	}
}

func (t *tracer) beginCMHandler(view string, req *wire.Message) ref {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	vc := t.views[view]
	if vc == nil || !vc.inbound.ok() {
		return ref{}
	}
	r := t.add(vc.inbound, kCMHandler, uint8(req.Type), start)
	vc.handler = r
	return r
}

func (t *tracer) endCMHandler(view string, r ref) {
	end := t.now()
	if !r.ok() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(r, end)
	if vc := t.views[view]; vc.handler == r {
		vc.handler = ref{}
	}
}

// flightGroup returns the conflict group of the flights a property set
// restricts to; the replication sender's whole-store extract has none.
func (t *tracer) flightGroup(props property.Set) (int, bool) {
	if p, ok := props.Get(airline.PropFlights); ok {
		for g, f := range t.groupFirst {
			if p.Domain.ContainsValue(float64(f)) {
				return g, true
			}
		}
	}
	return 0, false
}

func (t *tracer) beginPrimCodec(sub uint8, props property.Set) ref {
	start := t.now()
	g, ok := t.flightGroup(props)
	if !ok {
		return ref{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.newestDM(g, "")
	if !parent.ok() {
		return ref{}
	}
	return t.add(parent, kPrimCodec, sub, start)
}

func (t *tracer) beginViewCodec(view string, sub uint8) ref {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	vc := t.views[view]
	if vc == nil {
		return ref{}
	}
	parent := vc.handler
	if n := len(vc.stack); n > 0 {
		top := vc.stack[n-1]
		if !parent.ok() || top.ot.spans[top.i].start > parent.ot.spans[parent.i].start {
			parent = top
		}
	}
	if !parent.ok() {
		return ref{}
	}
	return t.add(parent, kViewCodec, sub, start)
}

func (t *tracer) endSpan(r ref) {
	end := t.now()
	if !r.ok() {
		return
	}
	t.mu.Lock()
	t.close(r, end)
	t.mu.Unlock()
}

// beginShip records a replication batch leaving the primary and returns
// the id that closes it.
func (t *tracer) beginShip() (id, start int64) {
	start = t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ships) >= maxShips {
		t.ships = append(t.ships[:0], t.ships[maxShips/2:]...)
	}
	t.shipID++
	t.ships = append(t.ships, ship{id: t.shipID, interval: interval{start: start, end: -1}})
	return t.shipID, start
}

func (t *tracer) endShip(id, start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ships) - 1; i >= 0; i-- {
		if t.ships[i].id == id {
			t.ships[i].end = end
			break
		}
	}
	t.shipHist.add(end - start)
}

func (t *tracer) recordAbsorb(d int64) {
	t.mu.Lock()
	t.absorbHist.add(d)
	t.mu.Unlock()
}
