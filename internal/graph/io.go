package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// The text format for kRSP instances is line-oriented:
//
//	krsp v1
//	# comments start with '#'
//	name <label>          (optional)
//	nodes <n>
//	st <s> <t>
//	k <k>
//	bound <D>
//	edge <u> <v> <cost> <delay>   (repeated)
//
// Header lines may appear in any order but must precede the first edge; a
// later nodes line starts the graph afresh, dropping the edges before it.
// Lines end at '\n'. Fields are separated by runs of white space as
// unicode.IsSpace defines it (so a '\r' before the newline, tabs and U+00A0
// all separate), and white space around a line is ignored. Integers are
// decimal with an optional sign, as strconv.ParseInt reads them, and must
// fit in an int64. The node count is at most MaxNodes, so a short input
// cannot make the reader allocate an arbitrarily large graph. A line of
// 16 MiB or more fails with bufio.ErrTooLong.

// maxLine is the shortest line length ReadInstance rejects.
const maxLine = 1 << 24

// WriteInstance serializes ins in the text format.
func WriteInstance(w io.Writer, ins Instance) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "krsp v1")
	if ins.Name != "" {
		fmt.Fprintf(bw, "name %s\n", ins.Name)
	}
	fmt.Fprintf(bw, "nodes %d\n", ins.G.NumNodes())
	fmt.Fprintf(bw, "st %d %d\n", ins.S, ins.T)
	fmt.Fprintf(bw, "k %d\n", ins.K)
	fmt.Fprintf(bw, "bound %d\n", ins.Bound)
	for _, e := range ins.G.EdgesView() {
		fmt.Fprintf(bw, "edge %d %d %d %d\n", e.From, e.To, e.Cost, e.Delay)
	}
	return bw.Flush()
}

// ReadInstance parses the text format produced by WriteInstance. It reads r
// to the end once, into one buffer presized when r reports its remaining
// length (as *bytes.Reader, *strings.Reader and *bytes.Buffer do), then
// tokenizes each line in place: edges land in one presized array and the
// adjacency is laid out once, in O(1) allocations whatever the input size.
// A read error is returned after the lines read before it have parsed, so
// a bad line ahead of it is the error reported.
func ReadInstance(r io.Reader) (Instance, error) {
	data, readErr := readAll(r)
	var (
		ins      Instance
		edges    []Edge
		n        = -1 // node count; -1 until a nodes line
		sawMagic bool
		line     int
		f        [5][]byte
	)
	fail := func(format string, args ...any) (Instance, error) {
		return Instance{}, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for len(data) > 0 {
		raw := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		line++
		if len(raw) >= maxLine {
			return Instance{}, bufio.ErrTooLong
		}
		nf, text := splitFields(raw, &f)
		if nf == 0 || text[0] == '#' {
			continue
		}
		if !sawMagic {
			if nf != 2 || string(f[0]) != "krsp" || string(f[1]) != "v1" {
				return fail("expected header 'krsp v1', got %q", text)
			}
			sawMagic = true
			continue
		}
		switch string(f[0]) {
		case "name":
			ins.Name = string(bytes.TrimSpace(text[len("name"):]))
		case "nodes":
			if nf != 2 {
				return fail("nodes wants 1 argument")
			}
			v, ok := atoiInt(f[1])
			if !ok || v < 0 {
				return fail("bad node count %q", f[1])
			}
			if v > MaxNodes {
				return fail("node count %d exceeds MaxNodes=%d", v, MaxNodes)
			}
			n = v // a later nodes line drops the edges read so far
			if edges == nil {
				edges = make([]Edge, 0, edgeCapacity(data))
			}
			edges = edges[:0]
		case "st":
			if nf != 3 {
				return fail("st wants 2 arguments")
			}
			s, ok1 := atoiInt(f[1])
			t, ok2 := atoiInt(f[2])
			if !ok1 || !ok2 {
				return fail("bad st line %q", text)
			}
			ins.S, ins.T = NodeID(s), NodeID(t)
		case "k":
			if nf != 2 {
				return fail("k wants 1 argument")
			}
			k, ok := atoiInt(f[1])
			if !ok {
				return fail("bad k %q", f[1])
			}
			ins.K = k
		case "bound":
			if nf != 2 {
				return fail("bound wants 1 argument")
			}
			d, ok := atoi(f[1])
			if !ok {
				return fail("bad bound %q", f[1])
			}
			ins.Bound = d
		case "edge":
			if n < 0 {
				return fail("edge before nodes")
			}
			if nf != 5 {
				return fail("edge wants 4 arguments")
			}
			u, ok1 := atoiInt(f[1])
			v, ok2 := atoiInt(f[2])
			c, ok3 := atoi(f[3])
			d, ok4 := atoi(f[4])
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return fail("bad edge line %q", text)
			}
			if u < 0 || u >= n || v < 0 || v >= n {
				return fail("edge endpoint out of range in %q", text)
			}
			edges = append(edges, Edge{ID: EdgeID(len(edges)), From: NodeID(u), To: NodeID(v), Cost: c, Delay: d})
		default:
			return fail("unknown directive %q", f[0])
		}
	}
	if readErr != nil {
		return Instance{}, readErr
	}
	if !sawMagic {
		return Instance{}, fmt.Errorf("empty input: missing 'krsp v1' header")
	}
	if n < 0 {
		return Instance{}, fmt.Errorf("missing 'nodes' directive")
	}
	ins.G = build(n, edges)
	return ins, nil
}

// readAll reads r to EOF into one buffer, presized when r reports its
// remaining length, and returns what it read with any error but EOF.
func readAll(r io.Reader) ([]byte, error) {
	size := bytes.MinRead
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1 // +1: room for the read that sees EOF
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF { // returned bare, by Read's contract
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // grow as io.ReadAll does
		}
	}
}

// edgeCapacity bounds the number of edge lines in rest: one per line, and
// one per 13 bytes at most, the length of the shortest edge line with its
// newline — so a body of blank lines cannot presize a large edge array.
func edgeCapacity(rest []byte) int {
	return min(bytes.Count(rest, []byte{'\n'})+1, (len(rest)+1)/len("edge 0 0 0 0\n"))
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line at runs of white space as strings.Fields does
// (unicode.IsSpace over UTF-8 runes, an invalid byte counting as a one-byte
// non-space), storing the first len(f) fields in f without copying. It
// returns the number of fields and the line trimmed as strings.TrimSpace
// trims it: the span from the first field's start to the last one's end.
func splitFields(line []byte, f *[5][]byte) (nf int, text []byte) {
	first, last, start := 0, 0, -1 // start: the current field's, or -1 between fields
	for i := 0; i <= len(line); {
		space, w := true, 1 // the end of the line closes the last field
		if i < len(line) {
			if c := line[i]; c < utf8.RuneSelf {
				space = asciiSpace[c]
			} else {
				var r rune
				r, w = utf8.DecodeRune(line[i:])
				space = unicode.IsSpace(r)
			}
		}
		switch {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			if nf < len(f) {
				f[nf] = line[start:i]
			}
			if nf == 0 {
				first = start
			}
			nf++
			last, start = i, -1
		}
		i += w
	}
	return nf, line[first:last]
}

// atoi reads a decimal integer with the accept set and range of
// strconv.ParseInt(s, 10, 64): an optional sign, then at least one ASCII
// digit, the value within int64.
func atoi(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var u uint64 // magnitude, at most 2^63 (MinInt64's)
	for _, c := range b {
		d := c - '0'
		if d > 9 || u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(d)
		if u > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return int64(-u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// atoiInt is atoi limited to int's range, as strconv.Atoi reads: the
// format's counts, terminals and endpoints are ints, its weights and
// bound int64s.
func atoiInt(b []byte) (int, bool) {
	v, ok := atoi(b)
	return int(v), ok && int64(int(v)) == v
}

// WriteDOT emits a Graphviz rendering of g. Edges carry "cost/delay"
// labels; edges whose ID is in highlight are drawn bold red (used to show
// solutions).
func WriteDOT(w io.Writer, g *Digraph, name string, highlight EdgeSet) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n", name)
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(bw, "  %d;\n", v)
	}
	for _, e := range g.EdgesView() {
		attr := ""
		if highlight.m != nil && highlight.Has(e.ID) {
			attr = ", color=red, penwidth=2"
		}
		fmt.Fprintf(bw, "  %d -> %d [label=\"%d/%d\"%s];\n", e.From, e.To, e.Cost, e.Delay, attr)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
