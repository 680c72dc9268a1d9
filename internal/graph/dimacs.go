package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DIMACS-style interop. The shortest-path community's standard exchange
// format is the 9th DIMACS Implementation Challenge ".gr" format:
//
//	c <comment>
//	p sp <n> <m>
//	a <from> <to> <weight>
//
// kRSP instances carry two weights per arc plus terminals, so we read and
// write a conservative extension: arcs carry "a <from> <to> <cost> <delay>"
// and the query is an extra problem line "q <s> <t> <k> <D>". Vertices are
// 1-based on the wire (DIMACS convention) and 0-based in memory. Plain
// single-weight .gr files are accepted too: the weight is used as cost and
// delay both, and the query line may be absent (zero-valued Instance
// fields result).

// WriteDIMACS serializes ins in the extended .gr format.
func WriteDIMACS(w io.Writer, ins Instance) error {
	bw := bufio.NewWriter(w)
	if ins.Name != "" {
		fmt.Fprintf(bw, "c %s\n", ins.Name)
	}
	fmt.Fprintf(bw, "p sp %d %d\n", ins.G.NumNodes(), ins.G.NumEdges())
	fmt.Fprintf(bw, "q %d %d %d %d\n", ins.S+1, ins.T+1, ins.K, ins.Bound)
	for _, e := range ins.G.EdgesView() {
		fmt.Fprintf(bw, "a %d %d %d %d\n", e.From+1, e.To+1, e.Cost, e.Delay)
	}
	return bw.Flush()
}

// ReadDIMACS parses the extended .gr format (and tolerates plain
// single-weight files).
func ReadDIMACS(r io.Reader) (Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var (
		ins  Instance
		g    *Digraph
		line int
	)
	fail := func(format string, args ...any) (Instance, error) {
		return Instance{}, fmt.Errorf("dimacs line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "c":
			if ins.Name == "" && len(fields) > 1 {
				ins.Name = strings.TrimSpace(strings.TrimPrefix(text, "c"))
			}
		case "p":
			if len(fields) != 4 || fields[1] != "sp" {
				return fail("want 'p sp <n> <m>', got %q", text)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return fail("bad node count %q", fields[2])
			}
			if n > MaxNodes {
				return fail("node count %d exceeds MaxNodes=%d", n, MaxNodes)
			}
			g = New(n)
			ins.G = g
		case "q":
			if len(fields) != 5 {
				return fail("want 'q <s> <t> <k> <D>'")
			}
			vals := make([]int64, 4)
			for i := 0; i < 4; i++ {
				v, err := strconv.ParseInt(fields[i+1], 10, 64)
				if err != nil {
					return fail("bad query field %q", fields[i+1])
				}
				vals[i] = v
			}
			ins.S, ins.T = NodeID(vals[0]-1), NodeID(vals[1]-1)
			ins.K = int(vals[2])
			ins.Bound = vals[3]
		case "a":
			if g == nil {
				return fail("arc before problem line")
			}
			if len(fields) != 4 && len(fields) != 5 {
				return fail("want 'a <u> <v> <cost> [delay]'")
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			c, err3 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return fail("bad arc %q", text)
			}
			d := c // single-weight files: weight doubles as both criteria
			if len(fields) == 5 {
				d, err3 = strconv.ParseInt(fields[4], 10, 64)
				if err3 != nil {
					return fail("bad delay %q", fields[4])
				}
			}
			if u < 1 || u > g.NumNodes() || v < 1 || v > g.NumNodes() {
				return fail("arc endpoint out of range in %q", text)
			}
			g.AddEdge(NodeID(u-1), NodeID(v-1), c, d)
		default:
			return fail("unknown line type %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return Instance{}, err
	}
	if ins.G == nil {
		return Instance{}, fmt.Errorf("dimacs: missing problem line")
	}
	return ins, nil
}
