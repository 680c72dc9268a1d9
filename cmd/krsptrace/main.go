// Command krsptrace renders flight-recorder dumps (DESIGN.md §13) into
// human-readable reports and Chrome trace_event JSON.
//
// Usage:
//
//	krsptrace [flags] [trace.jsonl]
//
// With a file argument (or JSONL on stdin), krsptrace prints the solve
// report: the phase timeline, the duality-gap convergence table, the
// decision log (degradations, escalations, fallbacks, fault hits), and an
// event census.
//
// Flags:
//
//	-chrome FILE  write Chrome trace_event JSON instead of the report;
//	              load it in Perfetto (ui.perfetto.dev) or about:tracing.
//	              "-" writes to stdout.
//	-dir DIR      aggregate report: one summary row per *.jsonl dump in
//	              DIR (as written by krspd -trace-dir), plus totals.
//
// Dumps come from krspd (-trace-dir, /debug/trace/last) or krsp -trace.
// Timestamps are whatever clock recorded the trace — wall-clock
// nanoseconds from the daemons, arbitrary manual-clock ticks in tests —
// and the report always shows them relative to the first event.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "krsptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs, cfg := newFlags(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.dir != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("-dir takes no file arguments")
		}
		return aggregate(out, cfg.dir)
	}
	var in io.Reader = os.Stdin
	name := "<stdin>"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, fs.Arg(0)
	}
	hdr, evs, err := readDump(in)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", name, err)
	}
	if cfg.chrome != "" {
		w := out
		if cfg.chrome != "-" {
			f, err := os.Create(cfg.chrome)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return writeChrome(w, hdr, evs)
	}
	return report(out, hdr, evs)
}
