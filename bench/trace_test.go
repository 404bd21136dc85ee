package main

import "testing"

// Self time is the span's duration minus the part of its interval its
// children cover; overlapping children count once, and a child's own
// children do not reduce the grandparent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 15, End: 25},
	}
	want := map[int]int64{
		1: 100 - (30 + 20 + 10), // [10,40) + [40,60) + [90,100)
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

// A tracer's request sample sums same-named spans and carries the
// root's self time.
func TestTracerSample(t *testing.T) {
	tr := &tracer{rec: true}
	id, first := tr.openRoot("request", &stmt{name: "q"})
	for i := 0; i < 3; i++ {
		sp := tr.begin("frep.enumerate")
		tr.end(sp)
		tr.count(sp, "rows", 7)
	}
	s := tr.closeRoot(id, first, "warm")
	if len(tr.spans) != 4 || tr.spans[1].Parent != id || tr.spans[1].Request != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[2].Counts["rows"] != 7 {
		t.Errorf("counts = %v", tr.spans[2].Counts)
	}
	kids := 0.0
	for _, sp := range tr.spans[1:] {
		kids += float64(sp.End - sp.Start)
	}
	if s.ns["frep.enumerate"] != kids {
		t.Errorf("summed child time %v, want %v", s.ns["frep.enumerate"], kids)
	}
	if got := s.ns["request"] - s.ns["request.self"]; got != kids {
		t.Errorf("request − self = %v, want the children's %v", got, kids)
	}
}
