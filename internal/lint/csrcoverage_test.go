package lint

import (
	"go/types"
	"strings"
	"testing"
)

// TestCSRKernelsCarryNoalloc pins the annotation coverage of the CSR kernel
// tier: every exported CSR *Into kernel in repro/internal/shortest must
// carry a (verified) //krsp:noalloc contract. The contracts analyzer would
// flag a MISSING annotation on any *Into function generically; this test
// additionally fails if the kernels are renamed or moved out of the
// solve-path package, so the bench-guard's flat-allocs claim for the CSR
// core keeps a compile-time witness.
func TestCSRKernelsCarryNoalloc(t *testing.T) {
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
	ci := prog.contractIndex()
	want := map[string]bool{
		"SPFAAllCSRInto":        false,
		"BellmanFordAllCSRInto": false,
	}
	for _, pkg := range prog.Packages {
		if !strings.HasSuffix(pkg.Path, "internal/shortest") {
			continue
		}
		scope := pkg.Types.Scope()
		for name := range want {
			fn, ok := scope.Lookup(name).(*types.Func)
			if !ok {
				t.Errorf("%s: CSR kernel missing from package %s", name, pkg.Path)
				continue
			}
			if !ci.has(fn, ContractNoAlloc) {
				t.Errorf("%s: lacks //krsp:noalloc", name)
				continue
			}
			if !ci.has(fn, ContractInBounds) {
				t.Errorf("%s: lacks //krsp:inbounds", name)
				continue
			}
			want[name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("%s: not found in any loaded shortest package", name)
		}
	}
}
