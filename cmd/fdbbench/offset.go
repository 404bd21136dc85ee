package main

// The offset experiment measures deep pagination: the cost of a
// LIMIT-10 page at increasing OFFSET over one factorised relation,
// comparing the three routes the engine can take — the linear skip
// loop (stepping the odometer row by row), the memoized counting
// fallback on unranked stores, and the ranked direct seek over the
// subtree-count index. On the ranked route a page deep in the stream
// costs the same as page 0 (O(depth × log fanout) positioning), which
// is the property the seek goldens pin and this table makes visible.

import (
	"context"
	"fmt"
	"log"
	"math"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// offsetRows is the size of the synthetic relation the sweep paginates:
// a three-level path f-tree with fanout 64, so ranks have real depth to
// descend. Independent of -scale: the point is the OFFSET axis.
const (
	offsetFanout = 64
	offsetRows   = offsetFanout * offsetFanout * offsetFanout // 262144
)

// deepView builds the synthetic relation Deep(a, b, c) factorised over
// the path a→b→c in an arena store.
func deepView() *fops.ARel {
	tuples := make([]relation.Tuple, 0, offsetRows)
	for i := 0; i < offsetRows; i++ {
		tuples = append(tuples, relation.Tuple{
			values.NewInt(int64(i / (offsetFanout * offsetFanout))),
			values.NewInt(int64((i / offsetFanout) % offsetFanout)),
			values.NewInt(int64(i % offsetFanout)),
		})
	}
	rel, err := relation.New("Deep", []string{"a", "b", "c"}, tuples)
	if err != nil {
		log.Fatal(err)
	}
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	s := frep.NewStore()
	roots, err := frep.BuildStoreUnchecked(s, rel, f)
	if err != nil {
		log.Fatal(err)
	}
	return &fops.ARel{Tree: f, Store: s, Roots: roots}
}

// expOffset runs the deep-pagination sweep.
func (b *bench) expOffset() {
	view := deepView()
	offsets := []int{0, 1, 10_000, 100_000, offsetRows - 16}

	page := func(view *fops.ARel, off int) measurement {
		eng := &engine.Engine{PartialAgg: true}
		return b.timeIt(func() {
			q := &query.Query{Relations: []string{"Deep"}, Offset: off, Limit: 10}
			res, err := eng.RunOnView(q, view, nil)
			if err != nil {
				log.Fatal(err)
			}
			defer res.Close()
			rows, err := res.Rows(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				log.Fatal(err)
			}
		})
	}

	header(fmt.Sprintf("Offset: LIMIT-10 pages at depth over Deep (%d rows, fanout %d path)", offsetRows, offsetFanout))
	row("offset", "linear-skip", "memo-seek", "ranked-seek")

	type arm struct {
		name  string
		view  *fops.ARel
		setup func()
	}
	old := engine.SeekFallbackMin
	arms := []arm{
		// Unranked view with the memo fallback disabled: every OFFSET
		// steps the odometer linearly (the pre-index route).
		{"linear-skip", view, func() { engine.SeekFallbackMin = math.MaxInt }},
		// Unranked view, default routing: deep offsets use the memoized
		// counting recursion.
		{"memo-seek", view, func() { engine.SeekFallbackMin = old }},
	}
	ranked := deepView()
	if err := ranked.Store.BuildRanks(); err != nil {
		log.Fatal(err)
	}
	arms = append(arms, arm{"ranked-seek", ranked, func() { engine.SeekFallbackMin = old }})

	cells := map[string]map[int]measurement{}
	for _, a := range arms {
		a.setup()
		cells[a.name] = map[int]measurement{}
		for _, off := range offsets {
			m := page(a.view, off)
			cells[a.name][off] = m
			b.rec(fmt.Sprintf("%s/offset=%d", a.name, off), b.scale, m)
		}
	}
	engine.SeekFallbackMin = old

	for _, off := range offsets {
		row(fmt.Sprint(off),
			cells["linear-skip"][off].String(),
			cells["memo-seek"][off].String(),
			cells["ranked-seek"][off].String())
	}
	page0 := cells["ranked-seek"][0].Dur
	deep := cells["ranked-seek"][100_000].Dur
	fmt.Printf("ranked deep-page (offset 100000) vs page-0: %.2f× (acceptance: ≤ 3×)\n",
		float64(deep)/float64(page0))
	if b.jsonOut {
		// Machine-independent ratio series for benchguard -min-speedup:
		// absolute page times swing with machine load, but these same-box
		// ratios only move when the ranked route itself regresses.
		b.results = append(b.results,
			// page-0 over deep-page cost on the ranked route: ≥ 1/3 is the
			// "deep page within 3× of page 0" acceptance bound.
			benchResult{Name: "ranked-flatness", Speedup: float64(page0) / float64(deep)},
			// linear skip over ranked seek at the deep page: how much the
			// index buys; collapses towards 1 if seeks degrade to stepping.
			benchResult{Name: "ranked-advantage", Speedup: float64(cells["linear-skip"][100_000].Dur) / float64(deep)},
		)
	}
}
