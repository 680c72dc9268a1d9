package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// goldenMounts maps testdata subdirectories to the synthetic import paths
// that put each golden package inside the analyzer's applicability set.
var goldenMounts = map[string]string{
	"ctxpoll":      "repro/internal/core/ctxpollgolden",
	"detmap":       "repro/internal/graph/golden",
	"nopanic":      "repro/internal/golden/nopaniclib",
	"hotalloc":     "repro/internal/core/golden",
	"wallclock":    "repro/internal/golden/clock",
	"wallclockobs": "repro/internal/obs/golden",
	"weightovf":    "repro/internal/rsp/golden",
	"boundsafe":    "repro/internal/shortest/boundsgolden",
	"nilflow":      "repro/internal/obs/nilgolden",
	"directive":    "repro/internal/golden/directive",
	"contracts":    "repro/internal/auxgraph/golden",
	"metricscat":   "repro/internal/obs/metricsgolden",
	"eventcat":     "repro/internal/obs/rec/eventgolden",
	"faultseam":    "repro/internal/fault/seamgolden",
	"staledrift":   "repro/internal/gen/staledrift",
	"lockcheck":    "repro/internal/cluster/lockgolden",
	"gorolife":     "repro/internal/golden/lifelib",
	"atomicmix":    "repro/internal/golden/mixlib",
}

var (
	goldenOnce sync.Once
	goldenProg *Program
	goldenErr  error
)

// goldenProgram loads every golden package into one shared Program so the
// GOROOT source importer's work is paid once across all analyzer tests.
func goldenProgram(t *testing.T) *Program {
	t.Helper()
	goldenOnce.Do(func() {
		prog, err := NewProgram(".")
		if err != nil {
			goldenErr = err
			return
		}
		dirs := make([]string, 0, len(goldenMounts))
		for dir := range goldenMounts {
			dirs = append(dirs, dir)
		}
		sort.Strings(dirs)
		for _, dir := range dirs {
			if _, err := prog.LoadDirAs(filepath.Join("testdata", dir), goldenMounts[dir]); err != nil {
				goldenErr = fmt.Errorf("loading testdata/%s: %w", dir, err)
				return
			}
		}
		goldenProg = prog
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenProg
}

// runOne runs a single analyzer over the golden program and returns the
// surviving diagnostics attributed to it as "dir/file.go:line:col" strings
// relative to testdata (malformed-directive reports are filtered out; they
// have their own test).
func runOne(t *testing.T, a *Analyzer) []string {
	t.Helper()
	return runFiltered(t, a, a.Name)
}

func runFiltered(t *testing.T, a *Analyzer, name string) []string {
	t.Helper()
	prog := goldenProgram(t)
	var got []string
	for _, d := range Run(prog, []*Analyzer{a}) {
		if d.Analyzer != name {
			continue
		}
		fname := filepath.ToSlash(d.Position.Filename)
		rel, ok := strings.CutPrefix(fname, "testdata/")
		if !ok {
			t.Fatalf("diagnostic outside testdata: %s", d.String())
		}
		got = append(got, fmt.Sprintf("%s:%d:%d", rel, d.Position.Line, d.Position.Column))
	}
	return got
}

func expectDiags(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("diagnostics:\n  got  %v\n  want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostic %d:\n  got  %v\n  want %v", i, got, want)
		}
	}
}

// Each test pins the exact positions from the violating golden file and, by
// asserting the complete list, also proves that the clean file's suppressed
// and order-insensitive sites produce nothing.

func TestCtxpollGolden(t *testing.T) {
	expectDiags(t, runOne(t, Ctxpoll), []string{
		"ctxpoll/bad.go:21:2", // condition drain without a poll
		"ctxpoll/bad.go:31:2", // infinite ladder without a poll
	})
}

func TestDetmapGolden(t *testing.T) {
	expectDiags(t, runOne(t, Detmap), []string{
		"detmap/bad.go:8:2",  // append to outer slice under map range
		"detmap/bad.go:16:2", // return mid-iteration
		"detmap/bad.go:26:2", // assign to outer variable
	})
}

func TestNopanicGolden(t *testing.T) {
	expectDiags(t, runOne(t, Nopanic), []string{
		"nopanic/bad.go:13:3", // panic on input-dependent condition
		"nopanic/bad.go:19:2", // log.Fatal
		"nopanic/bad.go:24:2", // os.Exit
	})
}

func TestHotallocGolden(t *testing.T) {
	expectDiags(t, runOne(t, Hotalloc), []string{
		"hotalloc/bad.go:26:10",   // make inside solve-path loop
		"hotalloc/bad.go:28:9",    // append to nil slice declared in loop
		"hotalloc/edges.go:10:20", // g.Edges() in a hot package; EdgesView is free
	})
}

func TestWallclockGolden(t *testing.T) {
	expectDiags(t, runOne(t, Wallclock), []string{
		"wallclock/bad.go:12:9",   // time.Now
		"wallclock/bad.go:17:9",   // global-source rand.Intn
		"wallclockobs/bad.go:8:9", // time.Since outside the exempt realclock.go
	})
}

// TestWeightovfGolden pins the precision corpus: proven.go (range-proven
// sums and products, silent), overflow.go (certain overflow) and
// unprovable.go (unbounded accumulation, reported unless allowed).
func TestWeightovfGolden(t *testing.T) {
	expectDiags(t, runOne(t, Weightovf), []string{
		"weightovf/overflow.go:9:14",    // cost+cost with cost proven ≥ 2^62
		"weightovf/unprovable.go:8:9",   // unbounded += accumulation
		"weightovf/unprovable.go:15:15", // unconstrained * on weights
	})
}

// TestWeightovfDifferential pins the rewrite against the legacy syntactic
// pass: every site v1 flagged as unguarded must receive a dataflow verdict —
// the engine may refine (prove or sharpen) but never silently drop a site.
func TestWeightovfDifferential(t *testing.T) {
	prog := goldenProgram(t)
	for _, pkg := range prog.Requested {
		if !Weightovf.AppliesTo(pkg.Path) {
			continue
		}
		verdicts := map[string]bool{}
		for _, s := range weightovfSites(prog, pkg) {
			verdicts[prog.Fset.Position(s.pos).String()] = true
		}
		for _, f := range pkg.Files {
			for _, pos := range legacyWeightovfFlagged(pkg.Info, f) {
				p := prog.Fset.Position(pos).String()
				if !verdicts[p] {
					t.Errorf("%s: flagged by the legacy pass but has no dataflow verdict", p)
				}
			}
		}
	}
}

// TestBoundsafeGolden pins the //krsp:inbounds corpus: ok.go exercises all
// three discharge rules (interval, typed graph ID, monotone rows) over the
// real CSR type and must stay silent; bad.go pins the index, coverage and
// slice diagnostics.
func TestBoundsafeGolden(t *testing.T) {
	expectDiags(t, runOne(t, Boundsafe), []string{
		"boundsafe/bad.go:16:6",  // dst[raw[i]]: unconstrained index value
		"boundsafe/bad.go:24:6",  // UncoveredScanInto lacks //krsp:inbounds
		"boundsafe/bad.go:37:12", // dst[lo:hi]: unconstrained slice bounds
	})
}

// TestNilflowGolden pins the nil-sink audit against the real obs and cancel
// types: method calls and guarded field derefs stay silent, unguarded field
// reads, star copies and wrong-pointer guards are reported.
func TestNilflowGolden(t *testing.T) {
	expectDiags(t, runOne(t, Nilflow), []string{
		"nilflow/bad.go:13:10", // &r.Server off an unguarded registry
		"nilflow/bad.go:18:9",  // *cn copy of a possibly-nil canceller
		"nilflow/bad.go:26:10", // guard on a, deref of b
	})
}

// TestContractsGolden covers the whole-module contract checker: annotation
// coverage (including the SumInto kernel in the hotalloc golden, which the
// cross-package sweep must also see), transitive noalloc/terminates/
// deterministic verification, and the directive-level diagnostics.
func TestContractsGolden(t *testing.T) {
	expectDiags(t, runOne(t, Contracts), []string{
		"contracts/bad.go:9:6",         // ScratchInto lacks //krsp:noalloc
		"contracts/bad.go:23:9",        // make in fill, reached from noalloc BuildInto
		"contracts/bad.go:33:2",        // sort.Ints: unverifiable extern call from noalloc SortInto
		"contracts/bad.go:46:2",        // unpolled condition loop in drainLoop, from terminates Drain
		"contracts/bad.go:63:2",        // order-sensitive map range in collect, from deterministic Reduce
		"contracts/directives.go:6:1",  // misplaced contract on a type
		"contracts/directives.go:12:1", // duplicate //krsp:noalloc
		"contracts/directives.go:19:1", // terminates without the mandatory bound
		"contracts/directives.go:24:1", // unknown contract verb
		"hotalloc/bad.go:7:6",          // SumInto in the hotalloc golden also lacks //krsp:noalloc
	})
}

func TestMetricscatGolden(t *testing.T) {
	expectDiags(t, runOne(t, Metricscat), []string{
		"metricscat/families.go:5:12",  // "Bad_total" is not a well-formed family name
		"metricscat/families.go:6:12",  // counter family without _total
		"metricscat/families.go:8:10",  // duplicate family "dup_depth"
		"metricscat/families.go:11:12", // computed (non-constant, non-parameter) family argument
		"metricscat/metrics.go:37:2",   // Orphan registered but never recorded
		"metricscat/metrics.go:38:2",   // Missing never registered
	})
}

func TestEventcatGolden(t *testing.T) {
	expectDiags(t, runOne(t, Eventcat), []string{
		"eventcat/events.go:19:2",  // KindMissing has no catalogue row
		"eventcat/events.go:21:2",  // KindOrphan catalogued but never recorded
		"eventcat/events.go:35:22", // "Bad_Event" is not kebab-case
		"eventcat/events.go:37:22", // duplicate wire name "dup-event"
		"eventcat/events.go:67:11", // computed Record kind
	})
}

func TestFaultseamGolden(t *testing.T) {
	expectDiags(t, runOne(t, Faultseam), []string{
		"faultseam/seam.go:15:2",  // PointUnarmed consulted but never armed by a test
		"faultseam/seam.go:16:2",  // PointDead never consulted at a Check seam
		"faultseam/seam.go:54:14", // computed Check argument defeats the catalogue
	})
}

// TestLockcheckGolden pins the lock-set corpus, mounted under a cluster
// path so the coverage sweep applies: unlocked reads/writes, a write under
// a read hold, a locked-helper call without the lock, coverage gaps, and
// the directive-placement diagnostics. ok.go (defer-unlock, early unlock,
// constructor freshness, RLock reads and one allowed immutable field) must
// stay silent.
func TestLockcheckGolden(t *testing.T) {
	expectDiags(t, runOne(t, Lockcheck), []string{
		"lockcheck/bad.go:15:2",  // names shares the struct with mu, no guardedby
		"lockcheck/bad.go:18:2",  // guardedby(names): names is not a mutex
		"lockcheck/bad.go:19:2",  // tags still uncovered after the bad directive
		"lockcheck/bad.go:24:11", // Peek reads count without the lock
		"lockcheck/bad.go:29:4",  // Bump writes count without the lock
		"lockcheck/bad.go:41:2",  // Misuse calls the locked helper lock-free
		"lockcheck/bad.go:54:4",  // Weaken writes val under RLock only
		"lockcheck/bad.go:60:1",  // guardedby on a function declaration
	})
}

// TestGorolifeGolden pins the goroutine-lifecycle corpus: a bare spin loop,
// an unresolvable spawn target and a stale detached waiver. ok.go (select
// receive, channel range, named spawn, local literal, WaitGroup join, a
// legitimate //krsp:detached and one inline allow) must stay silent.
func TestGorolifeGolden(t *testing.T) {
	expectDiags(t, runOne(t, Gorolife), []string{
		"gorolife/bad.go:10:2", // bare for loop, no termination signal
		"gorolife/bad.go:20:2", // go f(): body not statically resolvable
		"gorolife/bad.go:25:1", // //krsp:detached on a spawn-free function
	})
}

// TestAtomicmixGolden pins the atomics-discipline corpus: mixed
// atomic/plain access to one variable, double-checked locking, and a path
// that returns with the mutex held. ok.go (all-atomic counters, deferred
// and all-paths unlocks, one allowed setup-phase plain write) must stay
// silent.
func TestAtomicmixGolden(t *testing.T) {
	expectDiags(t, runOne(t, Atomicmix), []string{
		"atomicmix/bad.go:21:9", // plain read of the atomically-updated hits
		"atomicmix/bad.go:33:2", // double-checked locking on b.ready
		"atomicmix/bad.go:46:3", // return with b.mu still held
	})
}

// TestSuppressdriftGolden runs detmap together with suppressdrift: the used
// allow in Gather survives, the stale one and the unknown-analyzer one are
// reported, and allows naming analyzers that did not run are left alone.
func TestSuppressdriftGolden(t *testing.T) {
	prog := goldenProgram(t)
	var got []string
	for _, d := range Run(prog, []*Analyzer{Detmap, Suppressdrift}) {
		if d.Analyzer != Suppressdrift.Name {
			continue
		}
		fname := filepath.ToSlash(d.Position.Filename)
		rel, ok := strings.CutPrefix(fname, "testdata/")
		if !ok {
			t.Fatalf("diagnostic outside testdata: %s", d.String())
		}
		got = append(got, fmt.Sprintf("%s:%d:%d", rel, d.Position.Line, d.Position.Column))
	}
	expectDiags(t, got, []string{
		"staledrift/golden.go:21:2", // detmap ran, allow suppressed nothing
		"staledrift/golden.go:31:2", // "detmpa" is no registered analyzer
	})
}

// TestMalformedDirectiveReported proves a reason-less //lint:allow is itself
// a diagnostic (and does not suppress anything).
func TestMalformedDirectiveReported(t *testing.T) {
	expectDiags(t, runFiltered(t, Detmap, "directive"), []string{
		"directive/bad.go:8:2",
	})
}

// TestRepoClean runs the full suite over the real module: the repo must stay
// lint-clean, with every deliberate exception carrying an annotated reason.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow")
	}
	prog, err := NewProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.LoadAll(); err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, All())
	for _, d := range diags {
		t.Errorf("%s", d.StringRel(prog.ModuleRoot()))
	}
}
