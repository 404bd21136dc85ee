package main

// The "scale" experiment is the perf gate for the vectorised kernels:
// at each scale it times the three operator hot loops the kernels
// rewired, once with frep.EnableKernels off (the scalar, pre-kernel
// path) and once with it on, and reports the per-scale speedup:
//
//   - σ: SelectConst date>c (~12.5% selectivity) on the date-rooted
//     factorisation of Orders (the paper's R2 shape), whose root union
//     holds every distinct date — one kind-homogeneous run of ~800·s
//     values, the long-run case the columnar fast path targets;
//   - γ: Gamma sum(customer) at date on the view R1 over the paper's
//     f-tree T, folding ~8·s² customer leaf unions of ~2·s values each
//     through the leaf aggregation kernel;
//   - χ: Swap customer above date on the (date, customer, package)
//     factorisation of Orders — the restructuring behind ORDER BY
//     customer, date: one root occurrence regrouping every (date,
//     customer) pair, ~64·s³ of them over ~100·s distinct keys, through
//     the distribution kernel instead of the values.Compare sort.
//
// The speedup is a within-run ratio on one machine, so unlike ns/op it
// is stable across hardware — CI gates on it with benchguard
// -min-speedup floors rather than on absolute baseline entries.
//
// The operators run on a private clone of the indexed base store whose
// roots are restored between repetitions: a fresh snapshot per rep would
// charge the copy-on-grow of the whole shared slab (identical in both
// legs) to the measurement and drown the loop under test at scale.
//
// The sweep covers scales {1, 10, 100} capped by -scale: the
// factorisation of R1 grows as ~64·s³ singletons, so scale 100 (~64M
// singletons) is an explicit opt-in (-scale 100); CI runs -scale 10.

import (
	"fmt"
	"log"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// scaleSweep is the sweep grid; points above -scale are skipped.
var scaleSweep = []int{1, 10, 100}

// indexArena ranks and column-indexes a base store like production
// catalogues do (engine.ExecContext). The scalar leg runs on the same
// indexed store with the kernels switched off, so the comparison
// isolates exactly the rewired loop.
func indexArena(ar *fops.ARel) {
	if err := ar.Store.BuildRanks(); err != nil {
		log.Fatal(err)
	}
	ar.Store.BuildCols()
}

// kernelBench times op against a private clone of ar with the kernels
// forced on or off. Repetitions restore the clone's root ids and f-tree,
// so each rep transforms the original unions (the clone's slab keeps the
// appended garbage of earlier reps, which only costs amortised append
// capacity, never a COW copy).
type kernelBench struct {
	b      *bench
	priv   *fops.ARel
	roots0 []frep.NodeID
	tree0  *ftree.Forest
}

func (b *bench) newKernelBench(ar *fops.ARel) *kernelBench {
	priv, _ := ar.Clone()
	return &kernelBench{
		b:      b,
		priv:   priv,
		roots0: append([]frep.NodeID{}, priv.Roots...),
		tree0:  priv.Tree,
	}
}

func (kb *kernelBench) run(enable bool, op func(r *fops.ARel) error) measurement {
	old := frep.EnableKernels
	frep.EnableKernels = enable
	defer func() { frep.EnableKernels = old }()
	return kb.b.timeIt(func() {
		kb.priv.Roots = append(kb.priv.Roots[:0], kb.roots0...)
		kb.priv.Tree, _ = kb.tree0.Clone()
		if err := op(kb.priv); err != nil {
			log.Fatal(err)
		}
	})
}

// expScale runs the kernel-vs-scalar sweep.
func (b *bench) expScale() {
	header(fmt.Sprintf("Scale sweep: vectorised kernels vs scalar hot loops (σ date>c on Orders path, γ sum(customer) at date on R1, χ customer↔date on Orders path; scales ≤ %d)", b.scale))
	row("scale", "select-scalar", "select-kernel", "speedup", "gamma-scalar", "gamma-kernel", "speedup", "swap-scalar", "swap-kernel", "speedup")
	for _, s := range scaleSweep {
		if s > b.scale {
			continue
		}
		d := b.dataset(s)
		ar, err := d.FactorisedR1()
		if err != nil {
			log.Fatal(err)
		}
		indexArena(ar)
		ordersPath := func(attrs ...string) *fops.ARel {
			ft := ftree.New()
			ft.NewRelationPath(attrs...)
			ord, err := fops.FromRelationStoreUnchecked(frep.NewStore(), d.Orders, ft)
			if err != nil {
				log.Fatal(err)
			}
			indexArena(ord)
			return ord
		}

		// Each leg: a private bench over its base factorisation and the
		// operator under test, timed scalar first, then kernel.
		legs := []struct {
			name string
			kb   *kernelBench
			op   func(r *fops.ARel) error
		}{
			{"select", b.newKernelBench(ordersPath("date", "package", "customer")), func(r *fops.ARel) error {
				return r.SelectConst("date", fops.GT, values.NewInt(700*int64(s)))
			}},
			{"gamma", b.newKernelBench(ar), func(r *fops.ARel) error {
				return r.Gamma("date", []ftree.AggField{{Fn: ftree.Sum, Arg: "customer"}})
			}},
			{"swap", b.newKernelBench(ordersPath("date", "customer", "package")), func(r *fops.ARel) error {
				return r.Swap("customer")
			}},
		}
		cells := []string{fmt.Sprint(s)}
		for _, l := range legs {
			scalar := l.kb.run(false, l.op)
			kern := l.kb.run(true, l.op)
			speed := float64(scalar.Dur) / float64(kern.Dur)
			cells = append(cells, scalar.String(), kern.String(), fmt.Sprintf("%.2f×", speed))
			if b.jsonOut {
				b.results = append(b.results,
					benchResult{Name: fmt.Sprintf("s%d/%s-scalar", s, l.name), Scale: s, NsPerOp: scalar.Dur.Nanoseconds(), AllocsOp: scalar.Allocs},
					benchResult{Name: fmt.Sprintf("s%d/%s-kernel", s, l.name), Scale: s, NsPerOp: kern.Dur.Nanoseconds(), AllocsOp: kern.Allocs, Speedup: speed},
				)
			}
		}
		row(cells...)
		if s != b.scale {
			delete(b.ds, s) // bound resident memory across the sweep
		}
	}
}
