// Command krsp solves a kRSP instance from a file (or stdin) and prints
// the k disjoint paths with a cost/delay certificate.
//
// Usage:
//
//	krsp [flags] [instance-file]
//
// Flags:
//
//	-algo     solver: solve (default), scaled, phase1, exact,
//	          minsum, mindelay, greedy, sweep
//	-eps      epsilon for -algo scaled (default 0.25)
//	-engine   bicameral engine: comb (default), lp, or minratio
//	-format   instance format: krsp (default) or dimacs (.gr extension)
//	-dot      write a Graphviz rendering with the solution highlighted
//	-quiet    print only the summary line
//	-stats    print the full solve statistics on one stats: line
//	-trace    run the solve with a flight recorder attached and write its
//	          event dump as JSONL to this file (render with krsptrace): a
//	          header line with the schema and trace ID, then every event,
//	          from solve-start to the solve-end that carries the answer's
//	          cost, delay, iterations and outcome flags
//	-trace-id use this 32-hex W3C trace ID for -trace output instead of
//	          minting one (correlate with krspd dumps)
//	-timeout  deadline for -algo solve/scaled/phase1; past it the best
//	          feasible intermediate is printed and krsp exits 2
//
// Exit codes: 0 solved, 2 solved but degraded (deadline hit, answer is
// feasible but not bound-certified-final), 1 error.
//
// The instance format is documented in internal/graph (WriteInstance).
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/bicameral"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

func main() {
	degraded, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
	if degraded {
		os.Exit(2)
	}
}

// errorLine is the line main prints for a failed run: the error behind one
// "krsp: " prefix, which core's errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "krsp: ") {
		return msg
	}
	return "krsp: " + msg
}

// run executes one CLI invocation. The degraded return is true when a
// -timeout deadline cut the solve short and the printed answer is the best
// feasible intermediate (main maps it to exit code 2).
func run(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("krsp", flag.ContinueOnError)
	algo := fs.String("algo", "solve", "solver: solve|scaled|phase1|exact|minsum|mindelay|greedy|sweep")
	eps := fs.Float64("eps", 0.25, "epsilon for -algo scaled")
	engine := fs.String("engine", "comb", "bicameral engine: comb|lp|minratio")
	dotPath := fs.String("dot", "", "write Graphviz output to this file")
	format := fs.String("format", "krsp", "instance format: krsp|dimacs")
	quiet := fs.Bool("quiet", false, "print only the summary line")
	statsFlag := fs.Bool("stats", false, "print full solve statistics")
	tracePath := fs.String("trace", "", "write the flight-recorder event dump as JSONL to this file")
	traceID := fs.String("trace-id", "", "32-hex W3C trace ID for -trace output (minted if empty)")
	timeout := fs.Duration("timeout", 0,
		"deadline for -algo solve/scaled/phase1; best feasible intermediate past it"+
			" (0 = none, negative = already expired)")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return false, err
	}

	var in io.Reader = os.Stdin
	name := "<stdin>"
	var err error
	if fs.NArg() > 0 {
		var f *os.File
		f, err = os.Open(fs.Arg(0))
		if err != nil {
			return false, err
		}
		defer f.Close()
		in = f
		name = fs.Arg(0)
	}
	var ins graph.Instance
	switch *format {
	case "krsp":
		ins, err = graph.ReadInstance(in)
	case "dimacs":
		ins, err = graph.ReadDIMACS(in)
	default:
		return false, fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return false, fmt.Errorf("parsing %s: %w", name, err)
	}
	if err := ins.Validate(); err != nil {
		return false, err
	}

	if *traceID != "" && !validTraceID(*traceID) {
		return false, fmt.Errorf("bad -trace-id %q: want 32 lowercase hex digits, not all zero", *traceID)
	}
	if *traceID == "" {
		*traceID = mintTraceID()
	}
	var opts core.Options
	if *tracePath != "" {
		// The CLI is a cmd/ edge like krspd: the real clock may enter here.
		opts.Recorder = rec.New(obs.RealClock{}, traceCapacity)
	}
	switch *engine {
	case "comb":
	case "lp":
		opts.Engine = bicameral.EngineLP
	case "minratio":
		opts.Engine = bicameral.EngineMinRatio
	default:
		return false, fmt.Errorf("unknown engine %q", *engine)
	}

	var (
		sol        graph.Solution
		cost, dly  int64
		lowerBound int64 = -1
		label            = *algo
		solveStats *core.Stats
		degraded   bool
	)
	switch *algo {
	case "solve", "scaled", "phase1":
		// Negative timeouts create an already-expired deadline: the solver
		// degrades at its first poll, which makes exit code 2 testable
		// without racing a wall-clock timer.
		ctx := context.Background()
		if *timeout != 0 {
			var cancelCtx context.CancelFunc
			ctx, cancelCtx = context.WithTimeout(ctx, *timeout)
			defer cancelCtx()
		}
		var res core.Result
		switch *algo {
		case "solve":
			res, err = core.SolveCtx(ctx, ins, opts)
		case "scaled":
			res, err = core.SolveScaledCtx(ctx, ins, *eps, *eps, opts)
		case "phase1":
			opts.Phase1Only = true
			res, err = core.SolveCtx(ctx, ins, opts)
		}
		if err != nil {
			return false, err
		}
		degraded = res.Stats.Degraded
		sol, cost, dly, lowerBound = res.Solution, res.Cost, res.Delay, res.LowerBound
		solveStats = &res.Stats
		if !*quiet {
			fmt.Fprintf(out, "phase1 λ-iterations: %d, cancellations: %d (types %v)\n",
				res.Stats.Phase1.LambdaIterations, res.Stats.Iterations, res.Stats.CyclesByType)
			if res.Exact {
				fmt.Fprintln(out, "solution is exactly optimal (min-cost flow met the bound)")
			}
		}
	case "exact":
		res, err := exact.BruteForce(ins, 0)
		if err != nil {
			return false, err
		}
		sol, cost, dly, lowerBound = res.Solution, res.Cost, res.Delay, res.Cost
	case "minsum", "mindelay", "greedy", "sweep":
		var fn baseline.Func
		for _, b := range baseline.All() {
			if b.Name == *algo {
				fn = b.Run
			}
		}
		res, err := fn(ins)
		if err != nil {
			return false, err
		}
		sol, cost, dly = res.Solution, res.Cost, res.Delay
	default:
		return false, fmt.Errorf("unknown algorithm %q", *algo)
	}

	if (*statsFlag || *tracePath != "") && solveStats == nil {
		return false, fmt.Errorf("-stats and -trace require -algo solve, scaled, or phase1")
	}

	fmt.Fprintf(out, "%s: k=%d cost=%d delay=%d bound=%d", label, ins.K, cost, dly, ins.Bound)
	if lowerBound > 0 {
		fmt.Fprintf(out, " lower-bound=%d (factor ≤ %.3f)", lowerBound, float64(cost)/float64(lowerBound))
	}
	if dly > ins.Bound {
		fmt.Fprint(out, " [BOUND VIOLATED]")
	}
	if degraded {
		fmt.Fprint(out, " [DEGRADED: deadline hit, best feasible intermediate]")
	}
	fmt.Fprintln(out)
	if !*quiet {
		for i, p := range sol.Paths {
			fmt.Fprintf(out, "  path %d: %s (cost %d, delay %d)\n",
				i+1, p.Format(ins.G), p.Cost(ins.G), p.Delay(ins.G))
		}
	}
	if *statsFlag {
		s := solveStats
		fmt.Fprintf(out, "stats: lambda-iterations=%d cancellations=%d"+
			" cycles0=%d cycles1=%d cycles2=%d cref-escalations=%d"+
			" budgets-tried=%d relaxed-cap=%t phase1-fallback=%t\n",
			s.Phase1.LambdaIterations, s.Iterations,
			s.CyclesByType[0], s.CyclesByType[1], s.CyclesByType[2],
			s.CRefEscalations, s.BudgetsTried, s.RelaxedCap, s.FellBackToPhase1)
	}
	if *tracePath != "" {
		if n := opts.Recorder.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "krsp: warning: -trace ring wrapped; the dump lacks the first %d of %d events\n",
				n, opts.Recorder.Total())
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			return degraded, err
		}
		if err := opts.Recorder.WriteJSONL(f, *traceID); err != nil {
			f.Close()
			return degraded, err
		}
		if err := f.Close(); err != nil {
			return degraded, err
		}
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return degraded, err
		}
		defer f.Close()
		if err := graph.WriteDOT(f, ins.G, ins.Name, graph.NewEdgeSet(sol.EdgeIDs()...)); err != nil {
			return degraded, err
		}
	}
	return degraded, nil
}

// traceCapacity is the -trace ring size in events. The dump is the CLI's
// only trace, so it is sized for whole solves: krspperf traces its solves
// with the same capacity. A solve that records more keeps its newest
// events, and run warns on stderr.
const traceCapacity = 1 << 16

// validTraceID accepts a W3C trace ID: 32 lowercase hex digits, not all
// zero.
func validTraceID(s string) bool {
	if len(s) != 32 {
		return false
	}
	nonzero := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			nonzero = true
		}
	}
	return nonzero
}

// mintTraceID draws a fresh 128-bit trace ID; like the real clock,
// randomness enters only at the cmd/ edge.
func mintTraceID() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		for i := range b {
			b[i] = 0xfe
		}
	}
	return hex.EncodeToString(b)
}
