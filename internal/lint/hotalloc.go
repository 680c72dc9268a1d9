package lint

import (
	"go/ast"
	"go/types"
)

// hotPackages is the solve path: packages whose kernels run inside the
// cancellation loop, the Lagrangian search and the budget sweeps, where
// per-call allocation is the dominant cost on small graphs (see DESIGN.md
// §7). Matching is by path segment, like detPackages.
var hotPackages = map[string]bool{
	"core": true, "bicameral": true, "residual": true, "flow": true,
	"shortest": true, "rsp": true, "auxgraph": true,
}

// Hotalloc enforces the zero-alloc kernel discipline on the solve path:
//
//  1. Inside for/range loops of functions statically reachable from
//     core.Solve*, `make` calls and appends to slices declared empty in the
//     same loop are flagged: both allocate once per iteration and belong in
//     a Workspace.
//  2. Calls to (*graph.Digraph).Edges are flagged anywhere in a hot
//     package: Edges copies the whole edge slice per call, and every solve
//     kernel has an allocation-free alternative (EdgesView, or the packed
//     CSR view).
//
// Deliberate boundary allocations carry //lint:allow hotalloc <reason>.
var Hotalloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "flag edge-slice copies and per-iteration allocation on the solve path",
	AppliesTo: func(path string) bool { return pathHasAnySegment(path, hotPackages) },
	Run:       runHotalloc,
}

func runHotalloc(pass *Pass) {
	info := pass.Pkg.Info
	reachable := pass.Prog.buildCallGraph().reachable

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee != nil && callee.Type().(*types.Signature).Recv() != nil &&
				callee.Name() == "Edges" && callee.Pkg() != nil && callee.Pkg().Name() == "graph" {
				pass.Reportf(call.Pos(), "(*graph.Digraph).Edges copies the edge slice on every call; range EdgesView (or the CSR view) on the solve path")
			}
			return true
		})
	}

	// Per-iteration allocations in functions reachable from core.Solve*.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok || !reachable[obj] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				flagLoopAllocs(pass, info, body)
				return true
			})
		}
	}
}

// flagLoopAllocs reports make calls and appends-to-nil-slice inside one
// loop body (nested loops are visited by the caller's Inspect as well, so
// each loop flags only its direct statements to avoid duplicates).
func flagLoopAllocs(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Slices declared empty inside this loop: `var x []T`.
	nilSlices := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if inNestedLoop(body, n) {
			return false
		}
		switch n := n.(type) {
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := info.Defs[name]; obj != nil {
						if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
							nilSlices[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						pass.Reportf(n.Pos(), "make inside a solve-path loop allocates every iteration; hoist into a Workspace or preallocate")
					case "append":
						if len(n.Args) > 0 {
							if root := rootIdent(n.Args[0]); root != nil && nilSlices[info.ObjectOf(root)] {
								pass.Reportf(n.Pos(), "append to nil slice %s declared in this loop allocates every iteration; hoist and reuse with [:0]", root.Name)
							}
						}
					}
				}
			}
		}
		return true
	})
}

// inNestedLoop reports whether n sits inside a loop nested within outer
// (excluding outer itself), so the outer pass can skip it.
func inNestedLoop(outer *ast.BlockStmt, n ast.Node) bool {
	if n == nil {
		return false
	}
	nested := false
	ast.Inspect(outer, func(m ast.Node) bool {
		if nested || m == nil {
			return false
		}
		switch m.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if m.Pos() <= n.Pos() && n.End() <= m.End() && m != n {
				nested = true
			}
			return false
		}
		return true
	})
	return nested
}

// The static call graph, solve-path reachability and calleeFunc live in
// callgraph.go, shared with ctxpoll and the contracts analyzer.
