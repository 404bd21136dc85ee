package engine

// Kernel golden equivalence: the workload's experimental query set
// (Q1–Q13 on the views, plus the flat-input AGG variants) runs once with
// the vectorised kernels on and once with frep.EnableKernels forced off
// (the scalar path the kernels replaced), at parallelism 1 and 8. The
// outputs must be identical row for row — the kernels' contract is
// byte-identical results, including float aggregation order and Min/Max
// tie-breaking — and the kernel legs must demonstrably engage
// (frep.KernelStats), so a silent fallback cannot pass as equivalence.

import (
	"fmt"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/workload"
)

// withKernels runs fn with frep.EnableKernels pinned to on, restoring
// the previous setting after.
func withKernels(on bool, fn func()) {
	old := frep.EnableKernels
	frep.EnableKernels = on
	defer func() { frep.EnableKernels = old }()
	fn()
}

func TestGoldenKernelVsScalar(t *testing.T) {
	// Drop every fan-out floor so P=8 genuinely exercises the parallel
	// kernel paths (segment workers, overlay stores) at scale 1.
	oldRebV, oldRebW := fops.MinParallelRebuildValues, fops.MinParallelRebuildWork
	oldEnum, oldFan := minParallelEnumRows, maxEnumFanout
	fops.MinParallelRebuildValues, fops.MinParallelRebuildWork = 1, 1
	minParallelEnumRows, maxEnumFanout = 1, 64
	defer func() {
		fops.MinParallelRebuildValues, fops.MinParallelRebuildWork = oldRebV, oldRebW
		minParallelEnumRows, maxEnumFanout = oldEnum, oldFan
	}()
	frep.KernelStatsEnabled = true
	defer func() { frep.KernelStatsEnabled = false }()

	ds := workload.Generate(workload.Config{Scale: 1})
	cat := ds.Catalog()
	db := DB(ds.DB())
	r1a, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	r3a, err := ds.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}

	type tc struct {
		name string
		mk   func() *query.Query
		view *fops.ARel // nil runs against the flat base relations
	}
	var cases []tc
	for i := 1; i <= 5; i++ {
		i := i
		cases = append(cases, tc{
			name: fmt.Sprintf("flat-Q%d", i),
			mk: func() *query.Query {
				q, err := workload.FlatAggQuery(i)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
		})
		cases = append(cases, tc{
			name: fmt.Sprintf("Q%d", i),
			mk: func() *query.Query {
				q, err := workload.AggQuery(i)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			view: r1a,
		})
	}
	cases = append(cases,
		tc{name: "Q6", mk: workload.Q6, view: r1a},
		tc{name: "Q7", mk: workload.Q7, view: r1a},
		tc{name: "Q8", mk: workload.Q8, view: r1a},
		tc{name: "Q9", mk: workload.Q9, view: r1a},
		tc{name: "Q10", mk: func() *query.Query { return workload.Q10(0) }, view: r1a},
		tc{name: "Q11", mk: func() *query.Query { return workload.Q11(0) }, view: r1a},
		tc{name: "Q12", mk: func() *query.Query { return workload.Q12(0) }, view: r1a},
		tc{name: "Q13", mk: func() *query.Query { return workload.Q13(0) }, view: r3a},
	)

	for _, par := range []int{1, 8} {
		par := par
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			eng := &Engine{PartialAgg: true, Parallelism: par}
			frep.ResetKernelStats()
			for _, c := range cases {
				run := func() (*Result, error) {
					if c.view != nil {
						return eng.RunOnView(c.mk(), c.view, cat)
					}
					return eng.Run(c.mk(), db)
				}
				var scalar, kernel *relation.Relation
				withKernels(false, func() { scalar = collectRows(t, run) })
				withKernels(true, func() { kernel = collectRows(t, run) })
				diffOrdered(t, fmt.Sprintf("%s/P=%d", c.name, par), scalar, kernel)
			}
			st := frep.ReadKernelStats()
			if st.SelectKernel+st.AggKernel+st.Find+st.Intersect == 0 {
				t.Fatalf("kernels never engaged across the suite at P=%d: %+v", par, st)
			}
			t.Logf("kernel engagement at P=%d: %+v", par, st)
		})
	}
}
