package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"flecc/internal/transport"
	"flecc/internal/wire"
)

// options are the benchmark's run settings (not the program's).
type options struct {
	seed    int64
	seconds float64 // length of each timed phase
	trace   bool
	// ops, when positive, replaces the timed phases by exactly ops ops per
	// driver, for runs that must repeat exactly.
	ops     int
	drivers int
	setups  int // set-ups in a run; setup_s is their median
	stacks  int // of those, the last stacks deployments are measured
	// traceDir receives the raw spans of a traced run ("" skips them).
	traceDir string
}

// layerSumTolerance bounds layerSumError: the layers must add up to the
// traced ops' wall time within this share.
const layerSumTolerance = 0.05

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext is printed with every result so a number can be read back
// with the box, toolchain and workload that produced it.
type runContext struct {
	Workload   spec    `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Drivers    int     `json:"drivers"`
	Setups     int     `json:"setups"`
	Stacks     int     `json:"measured_deployments"`
	// FirstError is the first failed op of the measured phase; failed ops
	// are counted in the result, and only the checks decide "correct".
	FirstError string   `json:"first_error,omitempty"`
	Problems   []string `json:"problems,omitempty"`
}

// counters is a point-in-time reading of every counter a phase reports
// as a delta.
type counters struct {
	at            time.Time
	msgs          [32]int64
	msgStats      map[wire.Type]int64
	version       int64
	conflicts     int64
	invalidations int64
	fanout        [32]int64
	wire          transport.WireStatsSnapshot
	batches       int64
	primCalls     [3]int64
	primNs        [3]int64
	viewNs        [3]int64
	viewEntries   int64
	mallocs       uint64
	allocBytes    uint64
	numGC         uint32
	pauseNs       uint64
	cpu           time.Duration
}

func read(st *stack) counters {
	var c counters
	c.msgs = st.msgs.snapshot()
	if st.msgStats != nil {
		c.msgStats = st.msgStats.ByType()
	}
	c.version = int64(st.dm.CurrentVersion())
	c.conflicts = int64(st.dm.Store().ConflictsSeen())
	c.invalidations = st.invalidations()
	for i := range c.fanout {
		c.fanout[i] = st.t.fanout[i].Load()
	}
	c.wire = st.wireStats()
	if st.repl != nil {
		c.batches = st.repl.BatchesShipped()
	}
	for i := 0; i < 3; i++ {
		c.primCalls[i] = st.t.primCalls[i].Load()
		c.primNs[i] = st.t.primNs[i].Load()
		c.viewNs[i] = st.t.viewNs[i].Load()
	}
	c.viewEntries = st.t.viewEntries.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.numGC, c.pauseNs = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.at = time.Now()
	return c
}

// phase is one measured stretch of load.
type phase struct {
	stats         phaseStats // merged over drivers
	before, after counters
	elapsed       time.Duration
	// winSec is the seconds each latency window covers (summed over the
	// deployments pooled into the phase).
	winSec float64
	// heapGrowth is the live heap after the phase minus before it, both
	// after a forced GC.
	heapGrowth int64
}

// add folds a phase measured on another deployment into p, whose before
// counters stay zero so that after holds the summed deltas.
func (p *phase) add(q *phase) {
	p.stats.merge(&q.stats)
	p.after.accumulate(q.before, q.after)
	p.elapsed += q.elapsed
	p.winSec += q.winSec
	p.heapGrowth += q.heapGrowth
}

// accumulate adds after-before to c, counter by counter.
func (c *counters) accumulate(before, after counters) {
	for i := range c.msgs {
		c.msgs[i] += after.msgs[i] - before.msgs[i]
		c.fanout[i] += after.fanout[i] - before.fanout[i]
	}
	if after.msgStats != nil && c.msgStats == nil {
		c.msgStats = map[wire.Type]int64{}
	}
	for t, n := range after.msgStats {
		c.msgStats[t] += n - before.msgStats[t]
	}
	c.version += after.version - before.version
	c.conflicts += after.conflicts - before.conflicts
	c.invalidations += after.invalidations - before.invalidations
	c.wire.Frames += after.wire.Frames - before.wire.Frames
	c.wire.Flushes += after.wire.Flushes - before.wire.Flushes
	c.wire.Bytes += after.wire.Bytes - before.wire.Bytes
	c.batches += after.batches - before.batches
	for i := range c.primCalls {
		c.primCalls[i] += after.primCalls[i] - before.primCalls[i]
		c.primNs[i] += after.primNs[i] - before.primNs[i]
		c.viewNs[i] += after.viewNs[i] - before.viewNs[i]
	}
	c.viewEntries += after.viewEntries - before.viewEntries
	c.mallocs += after.mallocs - before.mallocs
	c.allocBytes += after.allocBytes - before.allocBytes
	c.numGC += after.numGC - before.numGC
	c.pauseNs += after.pauseNs - before.pauseNs
	c.cpu += after.cpu - before.cpu
}

func (p *phase) completed() int64 { return p.stats.attempted - p.stats.failed }

// perOp divides by the completed ops (0 when there are none).
func (p *phase) perOp(v float64) float64 {
	if c := p.completed(); c > 0 {
		return v / float64(c)
	}
	return 0
}

func (p *phase) opsPerSec() float64 { return float64(p.completed()) / p.elapsed.Seconds() }

// windowedOpsPerSec is the median over the phase's windows of the ops
// completed per second, so a short slowdown moves one window only.
func (p *phase) windowedOpsPerSec() float64 {
	rates := make([]float64, windows)
	for w, n := range p.stats.done {
		rates[w] = float64(n) / p.winSec
	}
	return median(rates)
}

// runPhase drives load from every driver until the phase ends: after
// seconds, or after o.ops ops per driver when o.ops is set.
func runPhase(st *stack, ds []*driver, o options, seconds float64, traced bool) (*phase, error) {
	p := &phase{}
	per := make([]*phaseStats, len(ds))
	errs := make([]error, len(ds))
	var stop atomic.Bool
	winLen := time.Duration(seconds * float64(time.Second) / windows)
	if o.ops > 0 {
		winLen = time.Duration(1<<63 - 1) // one window
	}
	for i := range per {
		per[i] = &phaseStats{trace: traceStats{on: traced}, winLen: winLen}
	}
	st.t.on.Store(traced)
	p.before = read(st)
	var wg sync.WaitGroup
	for i, d := range ds {
		per[i].start = p.before.at
		wg.Add(1)
		go func(i int, d *driver) {
			defer wg.Done()
			if o.ops > 0 {
				errs[i] = d.runN(per[i], o.ops)
				return
			}
			errs[i] = d.run(per[i], &stop)
		}(i, d)
	}
	if o.ops <= 0 {
		time.Sleep(time.Duration(seconds * float64(time.Second)))
		stop.Store(true)
	}
	wg.Wait()
	p.elapsed = time.Since(p.before.at)
	st.t.on.Store(false)
	p.after = read(st)
	p.winSec = winLen.Seconds()
	for i := range per {
		if errs[i] != nil {
			return nil, errs[i]
		}
		p.stats.merge(per[i])
	}
	return p, nil
}

func (ps *phaseStats) merge(o *phaseStats) {
	for w := range ps.browse {
		ps.browse[w].merge(&o.browse[w])
		ps.buy[w].merge(&o.buy[w])
		ps.done[w] += o.done[w]
	}
	ps.attempted += o.attempted
	ps.failed += o.failed
	ps.retries += o.retries
	ps.staleSamples += o.staleSamples
	ps.staleSum += o.staleSum
	ps.freshSamples += o.freshSamples
	ps.trace.merge(&o.trace)
	if ps.firstErr == nil {
		ps.firstErr = o.firstErr
	}
}

// runN executes exactly n ops (no time limit).
func (d *driver) runN(ps *phaseStats, n int) error {
	var stop atomic.Bool
	d.limit = int64(n)
	defer func() { d.limit = 0 }()
	return d.run(ps, &stop)
}

// runBench sets the stack up o.setups times and measures the last
// o.stacks of those deployments for an equal share of o.seconds each,
// pooling what they measured: a fresh deployment can settle into a
// faster or slower interleaving, and pooling several keeps one from
// deciding the run. It reports the end-to-end metrics or, with o.trace,
// the per-layer metrics of traced phases that follow untraced ones.
func runBench(w spec, o options) (result, runContext, error) {
	ctx := runContext{
		Workload: w, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Drivers: o.drivers, Setups: o.setups, Stacks: o.stacks,
	}
	// A traced run splits each deployment's time between an untraced
	// phase, the baseline for tracing's overhead, and the traced phase.
	seconds := o.seconds / float64(o.stacks)
	if o.trace {
		seconds /= 2
	}
	plain, traced := &phase{}, &phase{}
	var setup, heaps []float64
	var problems []string
	var lagEnd, degraded int64
	for i := 0; i < o.setups; i++ {
		// The live heap a deployment adds is measured against the heap
		// before it was set up, so the benchmark's own memory (pooled
		// latency histograms) does not count as the program's.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		start := time.Now()
		st, err := newStack(w, o.trace)
		if err != nil {
			return result{}, ctx, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		if i < o.setups-o.stacks {
			st.close()
			continue
		}
		m, err := measure(st, w, o, seconds, base)
		st.close()
		if err != nil {
			return result{}, ctx, err
		}
		plain.add(m.plain)
		if m.traced != nil {
			traced.add(m.traced)
		}
		heaps = append(heaps, m.liveHeap)
		problems = append(problems, m.problems...)
		lagEnd = max(lagEnd, m.lagEnd)
		degraded += m.degraded
	}

	measured := plain
	if o.trace {
		measured = traced
		if e := traced.stats.trace.layerSumError(); e > layerSumTolerance {
			problems = append(problems, fmt.Sprintf("layer self times sum to %.1f%% off the traced ops' wall time (tolerance %.0f%%)", 100*e, 100*layerSumTolerance))
		}
	}
	if err := measured.stats.firstErr; err != nil {
		ctx.FirstError = err.Error()
	}
	ctx.Problems = problems
	res := result{
		Correct:   len(problems) == 0,
		Attempted: measured.stats.attempted,
		Failed:    measured.stats.failed,
	}
	if !o.trace {
		res.Metrics = endToEnd(plain, median(setup), median(heaps))
		return res, ctx, nil
	}
	res.Metrics = perLayer(plain, traced, lagEnd, degraded)
	if o.traceDir != "" {
		if err := writeTrace(o.traceDir, w.Name, o.seed, traced.stats.trace.dump); err != nil {
			return result{}, ctx, err
		}
	}
	return res, ctx, nil
}

// measured is what one deployment contributed to a run.
type measured struct {
	plain, traced *phase
	liveHeap      float64
	problems      []string
	lagEnd        int64
	degraded      int64
}

// measure warms a deployment up, runs its untraced (and, with o.trace,
// traced) phase of the given length, and checks the outcome. baseHeap is
// the live heap before the deployment was set up.
func measure(st *stack, w spec, o options, seconds float64, baseHeap uint64) (*measured, error) {
	groups := assignViews(st, o.drivers)
	ds := make([]*driver, len(groups))
	for i, views := range groups {
		ds[i] = &driver{id: i, st: st, w: w, seed: o.seed, views: views}
	}
	// The warm-up is a fixed number of ops, so the live heap after it
	// (which holds the update log) does not depend on the box's speed.
	warm := o
	warm.ops = w.WarmupOps
	if o.ops > 0 {
		warm.ops = max(o.ops/4, 1)
	}
	if _, err := runPhase(st, ds, warm, 0, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m := &measured{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.liveHeap = float64(ms.HeapAlloc) - float64(baseHeap)

	var err error
	if m.plain, err = runPhase(st, ds, o, seconds, false); err != nil {
		return nil, err
	}
	// The phase's own record, allocated during it, is not program state.
	before := int64(ms.HeapAlloc) + int64(unsafe.Sizeof(*m.plain))
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.plain.heapGrowth = int64(ms.HeapAlloc) - before
	if o.trace {
		if m.traced, err = runPhase(st, ds, o, seconds, true); err != nil {
			return nil, err
		}
		st.t.mu.Lock()
		m.traced.stats.trace.ship = st.t.shipHist
		m.traced.stats.trace.absorb = st.t.absorbHist
		st.t.mu.Unlock()
	}

	var bought int64
	for _, d := range ds {
		bought += d.seatsBought
	}
	m.problems, m.lagEnd = st.check(bought)
	if st.repl != nil {
		m.degraded = st.repl.DegradedBarriers()
	}
	return m, nil
}

// windowedQuantile returns the q-quantile of a phase's latencies as the
// median of its values over groups of consecutive windows. It uses as
// many groups (at most one per window) as leave every group at least ten
// samples beyond the quantile, so a p99 always rests on at least ten
// slower ops and a short stall moves only the group it falls in.
func windowedQuantile(ws *[windows]hist, q float64) float64 {
	var n int64
	for i := range ws {
		n += ws[i].n
	}
	groups := int(min(max(float64(n)*(1-q)/10, 1), windows))
	vals := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		var h hist
		for i := g * windows / groups; i < (g+1)*windows/groups; i++ {
			h.merge(&ws[i])
		}
		vals = append(vals, h.quantile(q))
	}
	return median(vals)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
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

func endToEnd(p *phase, setupS, liveHeap float64) map[string]metric {
	b, a := p.before, p.after
	var msgs int64
	for i := range a.msgs {
		msgs += a.msgs[i] - b.msgs[i]
	}
	s := &p.stats
	fresh := 0.0
	if s.staleSamples > 0 {
		fresh = float64(s.freshSamples) / float64(s.staleSamples)
	}
	return map[string]metric{
		"ops_per_s":          {p.windowedOpsPerSec(), "ops/s"},
		"browse_p50_us":      {windowedQuantile(&s.browse, 0.50) / 1e3, "us"},
		"browse_p99_us":      {windowedQuantile(&s.browse, 0.99) / 1e3, "us"},
		"buy_p50_us":         {windowedQuantile(&s.buy, 0.50) / 1e3, "us"},
		"buy_p99_us":         {windowedQuantile(&s.buy, 0.99) / 1e3, "us"},
		"msgs_per_op":        {p.perOp(float64(msgs)), "msgs"},
		"fresh_read_ratio":   {fresh, "ratio"},
		"completed_op_ratio": {float64(p.completed()) / float64(max(s.attempted, 1)), "ratio"},
		"allocs_per_op":      {p.perOp(float64(a.mallocs - b.mallocs)), "count"},
		"alloc_bytes_per_op": {p.perOp(float64(a.allocBytes - b.allocBytes)), "B"},
		"cpu_us_per_op":      {p.perOp(float64(a.cpu-b.cpu) / 1e3), "us"},
		"live_heap_mb":       {liveHeap / (1 << 20), "MiB"},
		"setup_s":            {setupS, "s"},
	}
}

// msgTypes are the wire types reported per op, by name.
var msgTypes = []wire.Type{wire.TPull, wire.TImage, wire.TPush, wire.TAck, wire.TSetMode, wire.TInvalidate, wire.TUpdate, wire.TReplicate, wire.TReplAck}

func perLayer(plain, tr *phase, lagEnd, degraded int64) map[string]metric {
	b, a := tr.before, tr.after
	ts := &tr.stats.trace
	ops := float64(max(ts.ops, 1))
	us := func(ns float64) float64 { return ns / 1e3 }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("cache.pull_us_p50", us(ts.cache[cPull].quantile(0.5)), "us")
	put("cache.push_us_p50", us(ts.cache[cPush].quantile(0.5)), "us")
	put("cache.setmode_us_p50", us(ts.cache[cSetMode].quantile(0.5)), "us")
	put("cache.self_us_per_op", us(ts.layerNs[layerCache])/ops, "us")
	put("cache.invalidated_retries_per_op", tr.perOp(float64(tr.stats.retries)), "count")
	put("cache.invalidations_received_per_op", tr.perOp(float64(a.invalidations-b.invalidations)), "count")
	stale := 0.0
	if tr.stats.staleSamples > 0 {
		stale = float64(tr.stats.staleSum) / float64(tr.stats.staleSamples)
	}
	put("cache.stale_ops_at_read", stale, "ops")

	put("transport.self_us_per_op", us(ts.layerNs[layerTransport])/ops, "us")
	put("transport.bytes_per_op", tr.perOp(float64(a.wire.Bytes-b.wire.Bytes)), "B")
	frames, flushes := a.wire.Frames-b.wire.Frames, a.wire.Flushes-b.wire.Flushes
	fpf := 0.0
	if flushes > 0 {
		fpf = float64(frames) / float64(flushes)
	}
	put("transport.frames_per_flush", fpf, "frames")
	for _, t := range msgTypes {
		put("transport.msgs_per_op."+t.String(), tr.perOp(float64(a.msgStats[t]-b.msgStats[t])), "msgs")
	}

	put("directory.pull_us_p50", us(ts.dm[0].quantile(0.5)), "us")
	put("directory.push_us_p50", us(ts.dm[1].quantile(0.5)), "us")
	put("directory.setmode_us_p50", us(ts.dm[2].quantile(0.5)), "us")
	put("directory.self_us_per_op", us(ts.layerNs[layerDirectory])/ops, "us")
	for _, t := range []wire.Type{wire.TInvalidate, wire.TPull, wire.TUpdate} {
		put("directory.fanout_calls_per_op."+t.String(), tr.perOp(float64(a.fanout[t]-b.fanout[t])), "calls")
	}
	put("directory.fanout_us_per_op", us(ts.fanoutNs)/ops, "us")
	commits := a.version - b.version
	put("directory.commits_per_op", tr.perOp(float64(commits)), "commits")
	cpc := 0.0
	if commits > 0 {
		cpc = float64(a.conflicts-b.conflicts) / float64(commits)
	}
	put("directory.conflicts_per_commit", cpc, "conflicts")

	setSize := 0.0
	if ts.regProbes > 0 {
		setSize = float64(ts.regSize) / float64(ts.regProbes)
	}
	put("registry.conflict_set_size", setSize, "views")
	put("registry.query_us_p50", us(ts.registry.quantile(0.5)), "us")

	ext := a.primCalls[xExtract] - b.primCalls[xExtract]
	keyed := a.primCalls[xKeyed] - b.primCalls[xKeyed]
	share := 0.0
	if ext+keyed > 0 {
		share = float64(keyed) / float64(ext+keyed)
	}
	put("codec.primary_extract_us_per_op", us(float64(a.primNs[xExtract]-b.primNs[xExtract]+a.primNs[xKeyed]-b.primNs[xKeyed]))/ops, "us")
	put("codec.primary_keyed_share", share, "ratio")
	put("codec.primary_merge_us_per_op", us(float64(a.primNs[xMerge]-b.primNs[xMerge]))/ops, "us")
	put("codec.view_merge_us_per_op", us(float64(a.viewNs[xMerge]-b.viewNs[xMerge]))/ops, "us")
	put("codec.view_extract_us_per_op", us(float64(a.viewNs[xExtract]-b.viewNs[xExtract]))/ops, "us")
	perPull := 0.0
	if ts.pulls > 0 {
		perPull = float64(a.viewEntries-b.viewEntries) / float64(ts.pulls)
	}
	put("codec.entries_per_pull", perPull, "entries")
	put("codec.self_us_per_op", us(ts.layerNs[layerCodec])/ops, "us")

	put("replicate.batches_per_op", tr.perOp(float64(a.batches-b.batches)), "batches")
	put("replicate.ship_us_p50", us(ts.ship.quantile(0.5)), "us")
	put("replicate.standby_absorb_us_p50", us(ts.absorb.quantile(0.5)), "us")
	put("replicate.barrier_us_per_op", us(ts.layerNs[layerReplicate])/ops, "us")
	put("replicate.degraded_barriers", float64(degraded), "count")
	put("replicate.lag_end", float64(lagEnd), "versions")

	// Runtime and load-generator metrics come from the untraced phase, so
	// the tracer's own allocations do not show up as the program's.
	pb, pa := plain.before, plain.after
	put("runtime.gc_cycles_per_kop", 1000*plain.perOp(float64(pa.numGC-pb.numGC)), "cycles")
	put("runtime.gc_pause_us_per_op", plain.perOp(float64(pa.pauseNs-pb.pauseNs)/1e3), "us")
	heapGrowth := 0.0
	if c := pa.version - pb.version; c > 0 {
		heapGrowth = float64(plain.heapGrowth) / float64(c)
	}
	put("runtime.live_heap_bytes_per_commit", heapGrowth, "B")
	put("loadgen.tracing_overhead", 1-tr.opsPerSec()/plain.opsPerSec(), "ratio")
	put("loadgen.failed_op_ratio", float64(plain.stats.failed)/float64(max(plain.stats.attempted, 1)), "ratio")
	put("loadgen.app_us_per_op", us(ts.layerNs[layerApp])/ops, "us")
	put("loadgen.layer_sum_error", ts.layerSumError(), "ratio")
	return m
}

// writeTrace writes the kept spans as one JSON object per op.
func writeTrace(dir, name string, seed int64, ops []dumpOp) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, op := range ops {
		if err := enc.Encode(op); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return f.Close()
}
