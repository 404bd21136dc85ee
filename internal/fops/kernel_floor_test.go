package fops_test

// An external test package because internal/workload, which builds the
// paper's data, imports fops.

import (
	"testing"
	"time"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// TestKernelSpeedupFloor is the performance gate of the vectorised
// kernels: at workload scale 10 each of the three operator loops they
// rewired must run at least 2× faster than the scalar path it replaced.
// The legs are
//
//   - σ: date > 7000 (~12.5% of the 8000 dates) on the (date, package,
//     customer) factorisation of Orders, one long Int run at the root;
//   - γ: sum(customer) at date on the view R1 over the paper's f-tree T,
//     folding ~800 customer leaf unions;
//   - χ: customer above date on the (date, customer, package)
//     factorisation of Orders, one root occurrence of ~64k (date,
//     customer) pairs through the distribution kernel.
//
// Scalar/kernel is a within-run ratio on one machine, so the floor holds
// across hardware where an ns/op baseline would not. Both arms run on
// the same ranked, column-indexed store, alternating rep by rep, and the
// fastest of each is compared, so scheduler noise inflates neither.
func TestKernelSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation distorts the scalar/kernel ratio")
	}
	defer func(paranoid, kernels, stats bool) {
		fops.Paranoid, frep.EnableKernels, frep.KernelStatsEnabled = paranoid, kernels, stats
	}(fops.Paranoid, frep.EnableKernels, frep.KernelStatsEnabled)
	fops.Paranoid = false
	frep.KernelStatsEnabled = true

	const scale, reps, floor = 10, 15, 2.0
	d := workload.Generate(workload.Config{Scale: scale})
	r1, err := d.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	ordersPath := func(attrs ...string) *fops.ARel {
		f := ftree.New()
		f.NewRelationPath(attrs...)
		ar, err := fops.FromRelationStoreUnchecked(frep.NewStore(), d.Orders, f)
		if err != nil {
			t.Fatal(err)
		}
		return ar
	}

	legs := []struct {
		name string
		ar   *fops.ARel
		op   func(*fops.ARel) error
		// engaged reports whether the kernel arm took the fast path. χ
		// keeps no dispatch counter; its ratio is the only witness.
		engaged func(frep.KernelStats) bool
	}{
		{"select", ordersPath("date", "package", "customer"),
			func(r *fops.ARel) error { return r.SelectConst("date", fops.GT, values.NewInt(700*scale)) },
			func(st frep.KernelStats) bool { return st.SelectKernel > 0 && st.SelectFallback == 0 }},
		{"gamma", r1,
			func(r *fops.ARel) error {
				return r.Gamma("date", []ftree.AggField{{Fn: ftree.Sum, Arg: "customer"}})
			},
			func(st frep.KernelStats) bool { return st.AggKernel > 0 && st.AggFallback == 0 }},
		{"swap", ordersPath("date", "customer", "package"),
			func(r *fops.ARel) error { return r.Swap("customer") }, nil},
	}
	for _, l := range legs {
		// Each leg owns its store, indexed as production catalogues are.
		if err := l.ar.Store.BuildRanks(); err != nil {
			t.Fatal(err)
		}
		l.ar.Store.BuildCols()
		// The operators append and never overwrite, so restoring the
		// roots and f-tree before a rep makes it transform the original
		// unions again.
		roots0, tree0 := append([]frep.NodeID(nil), l.ar.Roots...), l.ar.Tree
		frep.ResetKernelStats()
		var best [2]time.Duration // scalar, kernel
		for rep := 0; rep < reps; rep++ {
			for arm, on := range []bool{false, true} {
				l.ar.Roots = append(l.ar.Roots[:0], roots0...)
				l.ar.Tree, _ = tree0.Clone()
				frep.EnableKernels = on
				start := time.Now()
				err := l.op(l.ar)
				el := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if rep == 0 || el < best[arm] {
					best[arm] = el
				}
			}
		}
		ratio := float64(best[0]) / float64(best[1])
		t.Logf("%s: scalar %v, kernel %v: %.2f×", l.name, best[0], best[1], ratio)
		if st := frep.ReadKernelStats(); l.engaged != nil && !l.engaged(st) {
			t.Errorf("%s: the kernel arm never took the fast path: %+v", l.name, st)
		}
		if ratio < floor {
			t.Errorf("%s: kernel %.2f× over scalar, floor %.0f×", l.name, ratio, floor)
		}
	}
}
