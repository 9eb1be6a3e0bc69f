// Command e2ebench is the end-to-end benchmark of the Flecc stack. It
// replays the paper's airline scenario through the real program: the
// seeded internal/workload op stream drives airline.TravelAgent views
// over cache.Manager against a directory.Manager that runs on
// transport.Inproc or on loopback TCP, optionally replicating to a hot
// standby, all configured as fleccd ships by default.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash e2ebench/run.sh --workload browse-weak --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics for --seconds. With
// --trace 1 it spends half of --seconds untraced and half traced, prints
// the per-layer metrics, and writes the raw spans of the first traced ops
// under .bench_build/traces. The last line of standard output is the
// result; the line before it is the run context. The exit code is 0 when
// the run completed, whatever its checks found, and non-zero when it
// could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "op-stream seed")
	seconds := fs.Float64("seconds", 20, "seconds of measured load")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		drivers:  drivers,
		setups:   11,
		stacks:   4,
		traceDir: ".bench_build/traces",
	}
	res, ctx, err := runBench(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	for _, p := range ctx.Problems {
		fmt.Fprintln(stderr, "e2ebench: check failed:", p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]runContext{"context": ctx}); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}
