package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "a", "bb")
	tab.Add(1, 2.5)
	tab.Add("xyz", "w")
	tab.Note("footnote %d", 7)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "2.500", "xyz", "note: footnote 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableAddPanicsOnArity(t *testing.T) {
	tab := NewTable("demo", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Add(1, 2)
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("demo", "a", "b,c")
	tab.Add(`quo"te`, 2)
	var buf bytes.Buffer
	tab.RenderCSV(&buf)
	out := buf.String()
	if !strings.Contains(out, `"b,c"`) || !strings.Contains(out, `"quo""te"`) {
		t.Fatalf("csv escaping broken:\n%s", out)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatal("mean")
	}
	if Max(xs) != 4 {
		t.Fatal("max")
	}
	if Percentile(xs, 50) != 2 || Percentile(xs, 100) != 4 {
		t.Fatalf("percentiles %v %v", Percentile(xs, 50), Percentile(xs, 100))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Fatal("empty-input handling")
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 13 {
		t.Fatalf("registry size %d", len(reg))
	}
	if Lookup("E3") == nil || Lookup("E3").ID != "E3" {
		t.Fatal("lookup E3")
	}
	if Lookup("E99") != nil {
		t.Fatal("lookup bogus")
	}
}

// TestAllExperimentsQuick smoke-runs every experiment in quick mode and
// checks structural invariants of the produced tables.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds")
	}
	cfg := Config{Quick: true, Seeds: 2}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s: ragged row %v", e.ID, row)
				}
			}
		})
	}
}

// TestE4NoMismatches: the Lemma 15 roundtrip column must be all zero.
func TestE4NoMismatches(t *testing.T) {
	tab, err := RunE4(Config{Quick: true, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	mmCol := -1
	for i, c := range tab.Columns {
		if c == "mismatches" {
			mmCol = i
		}
	}
	if mmCol < 0 {
		t.Fatal("no mismatches column")
	}
	for _, row := range tab.Rows {
		if row[mmCol] != "0" {
			t.Fatalf("mismatch row: %v", row)
		}
	}
}

// TestE3CappedStaysBounded: the capped column of E3 must stay ≤ 2.
func TestE3CappedStaysBounded(t *testing.T) {
	tab, err := RunE3(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		r, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		if r > 2.0+1e-9 {
			t.Fatalf("capped ratio %v > 2 in row %v", r, row)
		}
		if row[4] != "true" {
			t.Fatalf("capped run violated delay: %v", row)
		}
	}
}
