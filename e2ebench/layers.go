package main

import (
	"sort"
	"time"

	"flecc/internal/wire"
)

// dumpOps bounds how many traced ops per driver keep their raw spans for
// the trace file written when the run ends.
const dumpOps = 500

// traceStats accumulates one driver's traced ops.
type traceStats struct {
	on  bool
	ops int64
	// wallNs sums the driver's own service-time measurement of each
	// traced op; spanNs sums the op spans. The layers partition spanNs.
	wallNs, spanNs float64
	layerNs        [nLayers]float64
	fanoutNs       float64
	cache          [3]hist // pull, push, set-mode calls (inclusive)
	dm             [3]hist // DM pull, push, set-mode handlers (inclusive)
	pulls          int64   // cache PullImage calls
	registry       hist
	ship, absorb   hist // replication ships and standby absorbs
	regSize        int64
	regProbes      int64
	dump           []dumpOp
}

type dumpOp struct {
	Op    int64      `json:"op"`
	View  string     `json:"view"`
	Spans []dumpSpan `json:"spans"`
}

type dumpSpan struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// addOp folds one finished op into the stats: it adds the replication
// barrier spans, partitions the op's wall time over the layers, and keeps
// the raw spans of the first few ops.
func (ts *traceStats) addOp(st *stack, ot *opTrace, wallNs int64) {
	t := st.t
	t.mu.Lock()
	spans := append([]span(nil), ot.spans...)
	root := spans[0]
	var ships []interval
	for _, s := range t.ships {
		if s.start < root.end && (s.end < 0 || s.end > root.start) {
			ships = append(ships, s.interval)
		}
	}
	t.mu.Unlock()

	for i := range spans {
		if spans[i].end < 0 {
			spans[i].end = root.end
		}
	}
	spans = withBarriers(spans, ships)
	layers := partition(spans)
	for l, v := range layers {
		ts.layerNs[l] += v
	}
	ts.ops++
	ts.wallNs += float64(wallNs)
	ts.spanNs += float64(root.end - root.start)
	for _, s := range spans {
		d := s.end - s.start
		switch s.kind {
		case kFanout:
			ts.fanoutNs += float64(d)
		case kCache:
			if s.sub <= cSetMode {
				ts.cache[s.sub].add(d)
			}
			if s.sub == cPull {
				ts.pulls++
			}
		case kDM:
			switch wire.Type(s.sub) {
			case wire.TPull:
				ts.dm[0].add(d)
			case wire.TPush:
				ts.dm[1].add(d)
			case wire.TSetMode:
				ts.dm[2].add(d)
			}
		}
	}
	if len(ts.dump) < dumpOps {
		ts.dump = append(ts.dump, dumpOf(ot.id, ot.view, spans))
	}
}

// probeRegistry times one conflict query for a sampled pull (traced runs
// only, outside any op's timing).
func (ts *traceStats) probeRegistry(st *stack, view string) {
	start := time.Now()
	set := st.dm.Registry().ConflictingWith(view, true)
	ts.registry.add(int64(time.Since(start)))
	ts.regSize += int64(len(set))
	ts.regProbes++
}

// withBarriers adds one replication span per overlapping ship to every DM
// handler: the part of the ship that falls after the handler's last
// other child, which is where the handler waits on its barrier.
func withBarriers(spans []span, ships []interval) []span {
	if len(ships) == 0 {
		return spans
	}
	n := len(spans)
	for i := 0; i < n; i++ {
		if spans[i].kind != kDM {
			continue
		}
		tail := spans[i].start
		for j := i + 1; j < n; j++ {
			if spans[j].parent == int32(i) && spans[j].end > tail {
				tail = spans[j].end
			}
		}
		for _, sh := range ships {
			end := sh.end
			if end < 0 || end > spans[i].end {
				end = spans[i].end
			}
			start := max(sh.start, tail)
			if end > start {
				spans = append(spans, span{kind: kRepl, parent: int32(i), start: start, end: end})
			}
		}
	}
	return spans
}

// partition splits the op's wall time (spans[0]) over the layers: each
// instant goes to the deepest spans open at that instant, shared equally
// when several are (parallel fan-out). A span's self time is thus its
// duration minus the part its children cover, and the layers sum to the
// op's wall time. Children are clipped to their parent. Parents precede
// their children in spans.
func partition(spans []span) (out [nLayers]float64) {
	n := len(spans)
	depth := make([]int, n)
	pts := make([]int64, 0, 2*n)
	for i := range spans {
		s := &spans[i]
		if i > 0 {
			p := spans[s.parent]
			depth[i] = depth[s.parent] + 1
			s.start = min(max(s.start, p.start), p.end)
			s.end = max(min(s.end, p.end), s.start)
		}
		pts = append(pts, s.start, s.end)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if b == a {
			continue
		}
		deepest, count := -1, 0
		for i := range spans {
			if spans[i].start <= a && spans[i].end >= b {
				switch {
				case depth[i] > deepest:
					deepest, count = depth[i], 1
				case depth[i] == deepest:
					count++
				}
			}
		}
		share := float64(b-a) / float64(count)
		for i := range spans {
			if depth[i] == deepest && spans[i].start <= a && spans[i].end >= b {
				out[layerOf[spans[i].kind]] += share
			}
		}
	}
	return out
}

func spanName(s span) string {
	switch s.kind {
	case kOp:
		return "op"
	case kCache:
		return "cache." + cacheSubNames[s.sub]
	case kCall:
		return "transport.call." + wire.Type(s.sub).String()
	case kDM:
		return "directory." + wire.Type(s.sub).String()
	case kFanout:
		return "directory.fanout." + wire.Type(s.sub).String()
	case kCMHandler:
		return "cache.handle." + wire.Type(s.sub).String()
	case kPrimCodec:
		return "codec.primary." + codecSubNames[s.sub]
	case kViewCodec:
		return "codec.view." + codecSubNames[s.sub]
	case kRepl:
		return "replicate.barrier"
	}
	return "unknown"
}

func dumpOf(id int64, view string, spans []span) dumpOp {
	d := dumpOp{Op: id, View: view, Spans: make([]dumpSpan, len(spans))}
	for i, s := range spans {
		d.Spans[i] = dumpSpan{Name: spanName(s), Parent: s.parent, Start: s.start, End: s.end}
	}
	return d
}

func (ts *traceStats) merge(o *traceStats) {
	ts.ops += o.ops
	ts.wallNs += o.wallNs
	ts.spanNs += o.spanNs
	for i := range ts.layerNs {
		ts.layerNs[i] += o.layerNs[i]
	}
	ts.fanoutNs += o.fanoutNs
	for i := range ts.cache {
		ts.cache[i].merge(&o.cache[i])
		ts.dm[i].merge(&o.dm[i])
	}
	ts.pulls += o.pulls
	ts.registry.merge(&o.registry)
	ts.ship.merge(&o.ship)
	ts.absorb.merge(&o.absorb)
	ts.regSize += o.regSize
	ts.regProbes += o.regProbes
	ts.dump = append(ts.dump, o.dump...)
}

// layerSumError is how far the layers' sum is from the drivers' own
// measurement of the traced ops' service time, as a share of the latter.
func (ts *traceStats) layerSumError() float64 {
	if ts.wallNs == 0 {
		return 0
	}
	var sum float64
	for _, v := range ts.layerNs {
		sum += v
	}
	d := (sum - ts.wallNs) / ts.wallNs
	if d < 0 {
		d = -d
	}
	return d
}
