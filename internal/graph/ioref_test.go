package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// refReadInstance is the line-scanner parser ReadInstance replaced, kept
// verbatim (bar its name) as the reference the differential fuzz target and
// the parser tests hold the single-pass parser to: bufio.Scanner lines,
// strings.TrimSpace and strings.Fields tokens, strconv integers and one
// AddEdge per edge line.
func refReadInstance(r io.Reader) (Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var (
		ins      Instance
		g        *Digraph
		sawMagic bool
		line     int
	)
	fail := func(format string, args ...any) (Instance, error) {
		return Instance{}, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if !sawMagic {
			if len(fields) != 2 || fields[0] != "krsp" || fields[1] != "v1" {
				return fail("expected header 'krsp v1', got %q", text)
			}
			sawMagic = true
			continue
		}
		switch fields[0] {
		case "name":
			ins.Name = strings.TrimSpace(strings.TrimPrefix(text, "name"))
		case "nodes":
			if len(fields) != 2 {
				return fail("nodes wants 1 argument")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return fail("bad node count %q", fields[1])
			}
			g = New(n)
			ins.G = g
		case "st":
			if len(fields) != 3 {
				return fail("st wants 2 arguments")
			}
			s, err1 := strconv.Atoi(fields[1])
			t, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return fail("bad st line %q", text)
			}
			ins.S, ins.T = NodeID(s), NodeID(t)
		case "k":
			if len(fields) != 2 {
				return fail("k wants 1 argument")
			}
			k, err := strconv.Atoi(fields[1])
			if err != nil {
				return fail("bad k %q", fields[1])
			}
			ins.K = k
		case "bound":
			if len(fields) != 2 {
				return fail("bound wants 1 argument")
			}
			d, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return fail("bad bound %q", fields[1])
			}
			ins.Bound = d
		case "edge":
			if g == nil {
				return fail("edge before nodes")
			}
			if len(fields) != 5 {
				return fail("edge wants 4 arguments")
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			c, err3 := strconv.ParseInt(fields[3], 10, 64)
			d, err4 := strconv.ParseInt(fields[4], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return fail("bad edge line %q", text)
			}
			if u < 0 || u >= g.NumNodes() || v < 0 || v >= g.NumNodes() {
				return fail("edge endpoint out of range in %q", text)
			}
			g.AddEdge(NodeID(u), NodeID(v), c, d)
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return Instance{}, err
	}
	if !sawMagic {
		return Instance{}, fmt.Errorf("empty input: missing 'krsp v1' header")
	}
	if ins.G == nil {
		return Instance{}, fmt.Errorf("missing 'nodes' directive")
	}
	return ins, nil
}
