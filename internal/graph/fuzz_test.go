package graph

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadInstance holds ReadInstance to the reference parser it replaced:
// on every input both fail with the same error text or build identical
// instances (header fields, edges, out- and in-rows). An accepted instance
// must also be consistent and round-trip through WriteInstance.
func FuzzReadInstance(f *testing.F) {
	for _, src := range []string{
		"krsp v1\nnodes 3\nst 0 2\nk 1\nbound 9\nedge 0 1 2 3\nedge 1 2 4 5\n",
		"krsp v1\nnodes 0\n",
		"krsp v1\n# comment\nnodes 2\nname x y z\nedge 0 1 -3 -4\n",
		"bogus",
		// CRLF endings, tabs, trailing and leading blanks.
		"krsp v1\r\nnodes 3\r\nst 0 2\r\nk 1\r\nbound 9\r\nedge 0 1 2 3\r\nedge 1 2 4 5\r\n",
		"krsp\tv1\nnodes\t3\n\tst 0\t2\nedge\t0 1\t\t2 3\n",
		"krsp v1  \nnodes 3 \t \nst 0 2   \n   \nedge 0 1 2 3 \r\n \r\n",
		// Signs: +5 and -0 read as 5 and 0; a lone sign, underscores and
		// hex are not integers.
		"krsp v1\nnodes +5\nst +0 -0\nk +2\nbound -0\nedge +1 -0 +7 -0\n",
		"krsp v1\nnodes 2\nedge 0 1 - 3\n",
		"krsp v1\nnodes 2\nedge 0 1 1_0 3\n",
		"krsp v1\nnodes 0x10\n",
		// int64 limits and overflow in cost, delay and bound.
		"krsp v1\nnodes 2\nbound -9223372036854775808\nedge 0 1 9223372036854775807 -9223372036854775808\n",
		"krsp v1\nnodes 2\nedge 0 1 9223372036854775808 1\n",
		"krsp v1\nnodes 2\nedge 0 1 1 -9223372036854775809\n",
		"krsp v1\nnodes 2\nbound 9223372036854775808\n",
		"krsp v1\nnodes 2\nbound 99999999999999999999999\n",
		"krsp v1\nnodes 2\nk 9223372036854775807\nst 4294967296 -4294967295\n",
		// A last line without a newline.
		"krsp v1\nnodes 2\nedge 0 1 2 3",
		"krsp v1\nnodes 2\nname   last  line  ",
		// Comments and blank lines anywhere, a comment after blanks.
		"\n\n# c\nkrsp v1\n\n  # indented\nnodes 2\n#edge 0 1 1 1\n\nedge 0 1 1 1\n\n",
		"# only a comment\n",
		"",
		// Unicode white space between fields: U+00A0, U+0085, U+3000.
		"krsp v1\nnodes\u00a02\nedge 0\u00a01 2\u00a03\nname\u3000a\u0085b\u00a0\n",
		"krsp\u00a0v1\nnodes 2\n",
		// Invalid UTF-8: a stray continuation byte is not white space.
		"krsp v1\nnodes 2\nname \xff\xfe x\xa0\nedge 0 1 \xc2 3\n",
		"krsp\xa0v1\nnodes 2\n",
		"krsp v1\nnodes 2\xc2\n",
		// A second nodes line drops the edges read before it.
		"krsp v1\nnodes 3\nedge 0 1 1 1\nedge 1 2 1 1\nnodes 2\nedge 1 0 5 5\n",
		"krsp v1\nnodes 3\nedge 2 1 1 1\nnodes 2\n",
		// Arity and order errors.
		"krsp v1\nedge 0 1 1 1\n",
		"krsp v1\nnodes 2\nedge 0 1 1 1 1\n",
		"krsp v1\nnodes 2\nedge 0 2 1 1\n",
		"krsp v1\nnodes 2\nst 0 1 2\n",
		"krsp v1\nnodes -1\n",
		"krsp v1 extra\n",
		"krsp v1\nname\nnodes 1\nfrob 1\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if hugeNodeCount(src) {
			return
		}
		ins, err := ReadInstance(strings.NewReader(src))
		want, wantErr := refReadInstance(strings.NewReader(src))
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference error %v", err, wantErr)
			}
			return
		}
		if diff := instanceDiff(ins, want); diff != "" {
			t.Fatalf("instance differs from the reference parser's: %s", diff)
		}
		if err := ins.G.Validate(); err != nil {
			t.Fatalf("accepted inconsistent graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteInstance(&buf, ins); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadInstance(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, buf.String())
		}
		if back.G.NumNodes() != ins.G.NumNodes() || back.G.NumEdges() != ins.G.NumEdges() {
			t.Fatal("round-trip changed graph size")
		}
		for _, e := range ins.G.Edges() {
			if back.G.Edge(e.ID) != e {
				t.Fatalf("round-trip changed edge %d", e.ID)
			}
		}
	})
}

// fuzzMaxNodes caps the node counts FuzzReadInstance parses: both parsers
// allocate rows for every node, and the reference has no MaxNodes check.
const fuzzMaxNodes = 1 << 12

// hugeNodeCount reports whether some nodes line of src, tokenized as the
// reference parser tokenizes it, asks for more than fuzzMaxNodes nodes.
func hugeNodeCount(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "nodes" {
			if n, err := strconv.Atoi(f[1]); err == nil && n > fuzzMaxNodes {
				return true
			}
		}
	}
	return false
}

// instanceDiff describes the first difference between two instances'
// header fields, edges and adjacency rows, or returns "".
func instanceDiff(a, b Instance) string {
	if a.Name != b.Name || a.S != b.S || a.T != b.T || a.K != b.K || a.Bound != b.Bound {
		return fmt.Sprintf("header %q %d %d %d %d vs %q %d %d %d %d",
			a.Name, a.S, a.T, a.K, a.Bound, b.Name, b.S, b.T, b.K, b.Bound)
	}
	if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
		return fmt.Sprintf("size %v vs %v", a.G, b.G)
	}
	for i, e := range a.G.EdgesView() {
		if e != b.G.Edge(EdgeID(i)) {
			return fmt.Sprintf("edge %d: %+v vs %+v", i, e, b.G.Edge(EdgeID(i)))
		}
	}
	for v := NodeID(0); int(v) < a.G.NumNodes(); v++ {
		if !slices.Equal(a.G.Out(v), b.G.Out(v)) || !slices.Equal(a.G.In(v), b.G.In(v)) {
			return fmt.Sprintf("node %d rows out %v in %v vs out %v in %v",
				v, a.G.Out(v), a.G.In(v), b.G.Out(v), b.G.In(v))
		}
	}
	return ""
}

// FuzzReadDIMACS: same contract for the DIMACS-style parser.
func FuzzReadDIMACS(f *testing.F) {
	f.Add("c hello\np sp 3 2\nq 1 3 2 9\na 1 2 4 5\na 2 3 6\n")
	f.Add("p sp 1 0\n")
	f.Add("a 1 2 3\n")
	f.Fuzz(func(t *testing.T, src string) {
		ins, err := ReadDIMACS(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := ins.G.Validate(); err != nil {
			t.Fatalf("accepted inconsistent graph: %v", err)
		}
		// Accepted instances with in-range terminals must survive a
		// write/read cycle.
		n := ins.G.NumNodes()
		if int(ins.S) < 0 || int(ins.S) >= n || int(ins.T) < 0 || int(ins.T) >= n {
			return // query line may reference out-of-range vertices
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, ins); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadDIMACS(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, buf.String())
		}
		if back.G.NumEdges() != ins.G.NumEdges() {
			t.Fatal("round-trip changed edge count")
		}
	})
}
