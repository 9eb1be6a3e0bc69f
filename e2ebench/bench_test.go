package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flecc/internal/airline"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/wire"
)

// countKeys are the per-layer metrics that must not depend on tracing:
// they count what the program did, and wrapping must not change that.
func countKeys() []string {
	keys := []string{"directory.commits_per_op", "directory.conflicts_per_commit", "codec.primary_keyed_share"}
	for _, t := range msgTypes {
		keys = append(keys, "transport.msgs_per_op."+t.String())
	}
	return keys
}

// counts runs a fixed number of seeded ops from one driver, traced or
// not, and returns the count metrics of that phase.
func counts(t *testing.T, w spec, seed int64, trace bool) map[string]float64 {
	t.Helper()
	o := options{seed: seed, ops: 1500, drivers: 1, setups: 1, stacks: 1}
	st, err := newStack(w, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ds := []*driver{{id: 0, st: st, w: w, seed: seed, views: st.sessions}}
	p, err := runPhase(st, ds, o, 0, trace)
	if err != nil {
		t.Fatal(err)
	}
	if p.stats.failed != 0 {
		t.Fatalf("%d ops failed: %v", p.stats.failed, p.stats.firstErr)
	}
	// The benchmark's own per-type tally (used untraced) must agree with
	// the program's metrics.MessageStats (used for the per-layer view).
	for _, ty := range msgTypes {
		if own, prog := p.after.msgs[ty]-p.before.msgs[ty], p.after.msgStats[ty]-p.before.msgStats[ty]; own != prog {
			t.Errorf("%s messages: benchmark counted %d, MessageStats %d", ty, own, prog)
		}
	}
	m := perLayer(p, p, 0, 0)
	out := map[string]float64{}
	for _, k := range countKeys() {
		out[k] = m[k].Value
	}
	return out
}

// TestWrappingChangesNothing: a single-driver seeded run gives identical
// message counts by type, commits, conflicts and keyed-extract share with
// tracing on and off, and across two runs.
func TestWrappingChangesNothing(t *testing.T) {
	for _, name := range []string{"browse-weak", "buy-strong", "mix-tcp"} {
		w, _ := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			off := counts(t, w, 7, false)
			on := counts(t, w, 7, true)
			again := counts(t, w, 7, true)
			for _, k := range countKeys() {
				if off[k] != on[k] || on[k] != again[k] {
					t.Errorf("%s: untraced %v, traced %v, traced again %v", k, off[k], on[k], again[k])
				}
			}
			if off["transport.msgs_per_op.pull"] == 0 {
				t.Error("no pulls counted")
			}
		})
	}
}

// TestWrappersKeepInterfaces: the program type-asserts the codec for
// image.KeyedExtractor and the endpoint for transport.AsyncCaller and
// transport.WindowSetter; a wrapper must have each exactly when the
// wrapped value does.
func TestWrappersKeepInterfaces(t *testing.T) {
	tr := newTracer(nil)
	rs := airline.NewReservationSystem()
	if _, ok := tr.wrapCodec(rs, "").(image.KeyedExtractor); !ok {
		t.Error("wrapped ReservationSystem lost ExtractKeys")
	}
	plain := image.FuncCodec{
		ExtractFn: func(property.Set) (*image.Image, error) { return image.New(property.NewSet()), nil },
		MergeFn:   func(*image.Image, property.Set) error { return nil },
	}
	if _, ok := tr.wrapCodec(plain, "").(image.KeyedExtractor); ok {
		t.Error("wrapped plain codec gained ExtractKeys")
	}
	for _, c := range []struct {
		ep            transport.Endpoint
		async, window bool
	}{
		{bareEndpoint{}, false, false},
		{asyncOnly{}, true, false},
		{windowOnly{}, false, true},
		{asyncWindow{}, true, true},
	} {
		w := tr.wrapEndpoint(c.ep, roleCM)
		_, async := w.(transport.AsyncCaller)
		_, window := w.(transport.WindowSetter)
		if async != c.async || window != c.window {
			t.Errorf("%T: wrapped async=%v window=%v, want %v %v", c.ep, async, window, c.async, c.window)
		}
	}
}

type bareEndpoint struct{}

func (bareEndpoint) Name() string                                      { return "x" }
func (bareEndpoint) Call(string, *wire.Message) (*wire.Message, error) { return nil, nil }
func (bareEndpoint) Close() error                                      { return nil }

type asyncOnly struct{ bareEndpoint }

func (asyncOnly) CallAsync(string, *wire.Message) *transport.Call { return nil }

type windowOnly struct{ bareEndpoint }

func (windowOnly) SetWindow(int) {}

type asyncWindow struct{ asyncOnly }

func (asyncWindow) SetWindow(int) {}

// TestLayersSumToWallTime: on every workload the per-layer self times of
// the traced ops add up to the drivers' own measurement of those ops'
// wall time within layerSumTolerance, every op's partition sums to its
// span, and tracing's cost is reported.
func TestLayersSumToWallTime(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := options{seed: 3, seconds: 0.8, trace: true, drivers: drivers, setups: 2, stacks: 2}
			res, ctx, err := runBench(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("checks failed: %v", ctx.Problems)
			}
			if e := res.Metrics["loadgen.layer_sum_error"].Value; e > layerSumTolerance {
				t.Errorf("layers sum %.1f%% off wall time", 100*e)
			}
			if _, ok := res.Metrics["loadgen.tracing_overhead"]; !ok {
				t.Error("tracing overhead not reported")
			}
			for _, p := range ctx.Problems {
				if strings.Contains(p, "layer self times") {
					t.Error(p)
				}
			}
		})
	}
}

func TestPartitionSplitsParallelChildren(t *testing.T) {
	spans := []span{
		{kind: kOp, parent: -1, start: 0, end: 100},
		{kind: kDM, parent: 0, start: 10, end: 90},
		{kind: kFanout, parent: 1, start: 20, end: 60},
		{kind: kFanout, parent: 1, start: 40, end: 80},
		{kind: kPrimCodec, parent: 1, start: 85, end: 200}, // clipped to its parent
	}
	got := partition(spans)
	want := [nLayers]float64{layerApp: 20, layerDirectory: 10 + 5, layerTransport: 20 + 20 + 20, layerCodec: 5}
	// 20..40 and 60..80 belong to one fan-out each, 40..60 is shared.
	if got != want {
		t.Fatalf("partition = %v, want %v", got, want)
	}
}

// TestOutputContract: the last line of standard output is the result
// object with exactly the four keys, carrying every end-to-end metric.
func TestOutputContract(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "mix-tcp", "--seed", "2", "--seconds", "0.3", "--trace", "0"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("result keys = %d, want 4", len(res))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"ops_per_s", "browse_p50_us", "browse_p99_us", "buy_p50_us", "buy_p99_us", "msgs_per_op",
		"fresh_read_ratio", "completed_op_ratio", "allocs_per_op", "alloc_bytes_per_op", "cpu_us_per_op", "live_heap_mb", "setup_s"} {
		if _, ok := metrics[k]; !ok {
			t.Errorf("missing %s", k)
		}
	}
	if len(metrics) != 13 {
		t.Errorf("%d metrics, want 13", len(metrics))
	}
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload accepted")
	}
}
