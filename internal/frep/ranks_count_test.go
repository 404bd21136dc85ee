package frep

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// rankCase is a random f-tree mixing atomic and aggregate nodes, with a
// store built for it. occ lists the unions built for each f-tree node,
// so the evaluator can be run at every occurrence of every subtree, as
// γ does.
type rankCase struct {
	s      *Store
	nodes  []*ftree.Node // pre-order
	occ    map[*ftree.Node][]NodeID
	atoms  []string         // attributes of atomic nodes
	aggArg []ftree.AggField // argument-carrying fields stored by aggregate nodes
}

// genRankCase draws a tree of depth ≤ 3 whose non-root nodes are
// aggregate leaves a quarter of the time. Every aggregate node stores a
// count field (mostly ≠ 1, so a rank weight of 1 per value would be
// wrong), sometimes beside a SUM or MAX of its own covered attribute.
// Unions below the root are reused a third of the time, making the
// store a DAG as χ leaves it.
func genRankCase(rng *rand.Rand) *rankCase {
	fr := ftree.New()
	tok := fr.NewToken()
	c := &rankCase{s: NewStore(), occ: map[*ftree.Node][]NodeID{}}
	var genNode func(parent *ftree.Node, depth int) *ftree.Node
	genNode = func(parent *ftree.Node, depth int) *ftree.Node {
		k := len(c.nodes)
		n := &ftree.Node{Deps: ftree.NewTokenSet(tok), Parent: parent}
		c.nodes = append(c.nodes, n)
		if depth > 0 && rng.Intn(4) == 0 {
			x := fmt.Sprintf("x%d", k)
			fields := []ftree.AggField{ftree.CountField()}
			switch rng.Intn(3) {
			case 1:
				fields = []ftree.AggField{{Fn: ftree.Sum, Arg: x}, ftree.CountField()}
			case 2:
				fields = append(fields, ftree.AggField{Fn: ftree.Max, Arg: x})
			}
			for _, fl := range fields {
				if fl.Fn.HasArg() {
					c.aggArg = append(c.aggArg, fl)
				}
			}
			n.Agg = &ftree.Agg{Fields: fields, Over: []string{x}}
			return n
		}
		a := fmt.Sprintf("a%d", k)
		n.Attrs = []string{a}
		c.atoms = append(c.atoms, a)
		if depth < 3 {
			for i := rng.Intn(4 - depth); i > 0; i-- {
				n.Children = append(n.Children, genNode(n, depth+1))
			}
		}
		return n
	}
	root := genNode(nil, 0)
	fr.Roots = []*ftree.Node{root}

	var build func(n *ftree.Node, nVals int) NodeID
	build = func(n *ftree.Node, nVals int) NodeID {
		var id NodeID
		if n.IsAgg() {
			vs := make([]values.Value, len(n.Agg.Fields))
			for i, fl := range n.Agg.Fields {
				if fl.Fn.HasArg() {
					vs[i] = values.NewInt(int64(rng.Intn(19) - 9))
				} else {
					vs[i] = values.NewInt(int64(1 + rng.Intn(5)))
				}
			}
			v := vs[0]
			if len(vs) > 1 {
				v = values.NewVec(vs)
			}
			id = c.s.AddLeaf([]values.Value{v})
		} else {
			var vals []values.Value
			var kids []NodeID
			for v := int64(rng.Intn(3)); len(vals) < nVals; v += 1 + int64(rng.Intn(3)) {
				vals = append(vals, values.NewInt(v))
				for _, ch := range n.Children {
					if prev := c.occ[ch]; len(prev) > 0 && rng.Intn(3) == 0 {
						kids = append(kids, prev[rng.Intn(len(prev))])
					} else {
						kids = append(kids, build(ch, 1+rng.Intn(4)))
					}
				}
			}
			id = c.s.Add(vals, len(n.Children), kids)
		}
		c.occ[n] = append(c.occ[n], id)
		return id
	}
	build(root, rng.Intn(7))
	return c
}

// fields draws an evaluator field list valid over subtree n: COUNT
// alone, or COUNT (sometimes omitted) beside SUM/MIN/MAX of an atomic
// attribute or a field an aggregate node stores. An argument may lie in
// the same branch as count-only siblings or in another one.
func (c *rankCase) fields(rng *rand.Rand, n *ftree.Node) []ftree.AggField {
	var out []ftree.AggField
	if rng.Intn(4) != 0 {
		out = append(out, ftree.CountField())
	}
	for i := rng.Intn(3); i > 0; i-- {
		var fl ftree.AggField
		if len(c.aggArg) > 0 && rng.Intn(3) == 0 {
			fl = c.aggArg[rng.Intn(len(c.aggArg))]
		} else {
			fns := []ftree.Fn{ftree.Sum, ftree.Min, ftree.Max}
			fl = ftree.AggField{Fn: fns[rng.Intn(3)], Arg: c.atoms[rng.Intn(len(c.atoms))]}
		}
		if findCarrier(n, fl.Arg) != nil && idxOfField(out, fl) < 0 {
			out = append(out, fl)
		}
	}
	if len(out) == 0 {
		out = append(out, ftree.CountField())
	}
	return out
}

// checkRankedCount evaluates random field lists at every occurrence of
// every subtree of a random case, over the whole union and a random
// window [lo, hi), on the store unranked and on a ranked copy, and on an
// overlay of each that appends nodes over it. The results must be
// byte-equal. It returns how often the ranked index answered.
func checkRankedCount(t *testing.T, seed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := genRankCase(rng)
	ranked := c.s.Clone()
	if err := ranked.BuildRanks(); err != nil {
		t.Fatal(err)
	}
	// Append the same nodes to an overlay of each store: segment views
	// aliasing a ranked window, and fresh unions (unranked themselves)
	// over the base's kid rows.
	ovW, ovR := c.s.Overlay(), ranked.Overlay()
	for i := 1 + rng.Intn(3); i > 0; i-- {
		n := c.nodes[rng.Intn(len(c.nodes))]
		occ := c.occ[n]
		if len(occ) == 0 {
			continue
		}
		id := occ[rng.Intn(len(occ))]
		var a, b NodeID
		if rng.Intn(2) == 0 || n.IsAgg() {
			ln := ovW.Len(id)
			lo := rng.Intn(ln + 1)
			hi := lo + rng.Intn(ln-lo+1)
			a, b = ovW.ViewOf(id, lo, hi), ovR.ViewOf(id, lo, hi)
		} else {
			var vals []values.Value
			var kids []NodeID
			for v := 0; v < ovW.Len(id); v++ {
				if rng.Intn(2) == 0 {
					vals = append(vals, ovW.Val(id, v))
					kids = append(kids, ovW.KidRow(id, v)...)
				}
			}
			a, b = ovW.Add(vals, len(n.Children), kids), ovR.Add(vals, len(n.Children), kids)
		}
		if a != b {
			t.Fatal("overlays diverged")
		}
		c.occ[n] = append(c.occ[n], a)
	}

	var hits uint64
	stores := []struct {
		name           string
		walked, ranked *Store
	}{{"base", c.s, ranked}, {"overlay", ovW, ovR}}
	for _, n := range c.nodes {
		fields := c.fields(rng, n)
		ev, err := NewEvaluator(n, fields)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, id := range c.occ[n] {
			for _, st := range stores {
				if int(id) >= st.walked.NodeCount() {
					continue // appended to the overlays only
				}
				ln := st.walked.Len(id)
				lo := rng.Intn(ln + 1)
				hi := lo + rng.Intn(ln-lo+1)
				for _, w := range [][2]int{{0, ln}, {lo, hi}} {
					want := make([]values.Value, len(fields))
					got := make([]values.Value, len(fields))
					errW := ev.EvalStoreRangeInto(st.walked, id, w[0], w[1], want)
					before := ReadKernelStats().AggRanked
					errR := ev.EvalStoreRangeInto(st.ranked, id, w[0], w[1], got)
					hits += ReadKernelStats().AggRanked - before
					if (errW == nil) != (errR == nil) || !reflect.DeepEqual(want, got) {
						t.Fatalf("seed %d, %s, %s over node %d window [%d,%d) %v:\nwalked %v (%v)\nranked %v (%v)",
							seed, st.name, n.Label(), id, w[0], w[1], fields, want, errW, got, errR)
					}
				}
			}
		}
	}
	return hits
}

// withKernelStats runs f with the dispatch counters on.
func withKernelStats(f func()) {
	defer func(old bool) { KernelStatsEnabled = old }(KernelStatsEnabled)
	KernelStatsEnabled = true
	ResetKernelStats()
	f()
}

// TestRankedCountMatchesWalked: a count-only subtree answered from the
// ranked index yields exactly the walked evaluation, whatever the field
// list, window, aggregate nodes or overlay around it.
func TestRankedCountMatchesWalked(t *testing.T) {
	var hits uint64
	withKernelStats(func() {
		for seed := int64(0); seed < 400; seed++ {
			hits += checkRankedCount(t, seed)
		}
	})
	if hits == 0 {
		t.Fatal("the ranked index never answered a count")
	}
	t.Logf("ranked answers: %d", hits)
}

// FuzzRankedCount is TestRankedCountMatchesWalked over fuzzed seeds.
func FuzzRankedCount(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		withKernelStats(func() { checkRankedCount(t, seed) })
	})
}
