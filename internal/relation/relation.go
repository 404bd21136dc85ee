// Package relation implements in-memory relations: schemas, tuples and the
// basic operations (projection, selection, natural join, sorting,
// deduplication) that both the factorised engine and the relational
// baseline engine build on, plus CSV import/export.
//
// Relations use set semantics at the API boundary (Project deduplicates)
// but tuples slices may transiently hold duplicates inside engines that
// need bag semantics for aggregation.
package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/factordb/fdb/internal/values"
)

// Tuple is one row; the i-th entry is the value of the i-th schema
// attribute.
type Tuple []values.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key returns a stable injective encoding of the tuple, usable as a hash
// map key.
func (t Tuple) Key() string {
	var b []byte
	for _, v := range t {
		b = v.AppendKey(b)
	}
	return string(b)
}

// Compare orders tuples lexicographically component-wise.
func Compare(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := values.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Relation is a named, ordered multiset of tuples over a fixed attribute
// list. Attribute names are unique within a relation. The engine
// attaches the factorisations its queries read to the relation (see
// Share), so a relation must not be modified once a query has read it.
type Relation struct {
	Name   string
	Attrs  []string
	Tuples []Tuple

	// shared is the state a shared relation carries (see Share).
	shared atomic.Value
}

// Share marks r as shared by attaching v to it, unless r is shared
// already, and returns the attached state. The state lives exactly as
// long as r; a shared relation must not be modified. The engine
// attaches, on the first query that reads r, the factorisations every
// query over r reads.
func (r *Relation) Share(v any) any {
	r.shared.CompareAndSwap(nil, v)
	return r.shared.Load()
}

// Shared returns the state attached by Share, or nil.
func (r *Relation) Shared() any { return r.shared.Load() }

// New creates a relation and validates that attribute names are unique and
// all tuples have the right arity.
func New(name string, attrs []string, tuples []Tuple) (*Relation, error) {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation %s: empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("relation %s: duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	for i, t := range tuples {
		if len(t) != len(attrs) {
			return nil, fmt.Errorf("relation %s: tuple %d has arity %d, want %d", name, i, len(t), len(attrs))
		}
	}
	return &Relation{Name: name, Attrs: attrs, Tuples: tuples}, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(name string, attrs []string, tuples []Tuple) *Relation {
	r, err := New(name, attrs, tuples)
	if err != nil {
		panic(err)
	}
	return r
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// ColIndex returns the position of attribute a, or -1 if absent.
func (r *Relation) ColIndex(a string) int {
	for i, x := range r.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// HasAttr reports whether the relation has attribute a.
func (r *Relation) HasAttr(a string) bool { return r.ColIndex(a) >= 0 }

// Clone returns a deep copy (tuples are copied; values are immutable).
func (r *Relation) Clone() *Relation {
	ts := make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		ts[i] = t.Clone()
	}
	attrs := make([]string, len(r.Attrs))
	copy(attrs, r.Attrs)
	return &Relation{Name: r.Name, Attrs: attrs, Tuples: ts}
}

// Project returns the projection onto attrs, deduplicated (set
// semantics). The attribute order of the result follows attrs.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.ColIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("project: relation %s has no attribute %q", r.Name, a)
		}
		idx[i] = j
	}
	seen := make(map[string]bool, len(r.Tuples))
	out := make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		p := make(Tuple, len(idx))
		for i, j := range idx {
			p[i] = t[j]
		}
		k := p.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return New(r.Name, attrs, out)
}

// Select returns the tuples satisfying pred, sharing tuple storage with r.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		if pred(t) {
			out = append(out, t)
		}
	}
	return &Relation{Name: r.Name, Attrs: r.Attrs, Tuples: out}
}

// Dedup returns the relation with duplicate tuples removed, preserving
// first-occurrence order.
func (r *Relation) Dedup() *Relation {
	seen := make(map[string]bool, len(r.Tuples))
	out := make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return &Relation{Name: r.Name, Attrs: r.Attrs, Tuples: out}
}

// OrderKey names an attribute to sort by and its direction.
type OrderKey struct {
	Attr string
	Desc bool
}

// Sort sorts the relation in place lexicographically by the given keys,
// breaking remaining ties by full-tuple comparison so the result is
// deterministic.
func (r *Relation) Sort(keys ...OrderKey) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		j := r.ColIndex(k.Attr)
		if j < 0 {
			return fmt.Errorf("sort: relation %s has no attribute %q", r.Name, k.Attr)
		}
		idx[i] = j
	}
	sort.SliceStable(r.Tuples, func(x, y int) bool {
		a, b := r.Tuples[x], r.Tuples[y]
		for i, j := range idx {
			c := values.Compare(a[j], b[j])
			if c != 0 {
				if keys[i].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return Compare(a, b) < 0
	})
	return nil
}

// NaturalJoin computes the natural join of r and s via a hash join on
// their common attributes. The result schema lists r's attributes followed
// by s's non-shared attributes. Joining on no common attributes degrades
// to the Cartesian product.
func NaturalJoin(r, s *Relation) *Relation {
	var shared []string
	for _, a := range r.Attrs {
		if s.HasAttr(a) {
			shared = append(shared, a)
		}
	}
	rIdx := make([]int, len(shared))
	sIdx := make([]int, len(shared))
	for i, a := range shared {
		rIdx[i] = r.ColIndex(a)
		sIdx[i] = s.ColIndex(a)
	}
	var sExtra []int
	var outAttrs []string
	outAttrs = append(outAttrs, r.Attrs...)
	for j, a := range s.Attrs {
		if !r.HasAttr(a) {
			sExtra = append(sExtra, j)
			outAttrs = append(outAttrs, a)
		}
	}
	// Build side: the smaller relation.
	build, probe := s, r
	buildKey, probeKey := sIdx, rIdx
	if len(r.Tuples) < len(s.Tuples) {
		build, probe = r, s
		buildKey, probeKey = rIdx, sIdx
	}
	ht := make(map[string][]Tuple, len(build.Tuples))
	var kb []byte
	for _, t := range build.Tuples {
		kb = kb[:0]
		for _, j := range buildKey {
			kb = t[j].AppendKey(kb)
		}
		k := string(kb)
		ht[k] = append(ht[k], t)
	}
	out := make([]Tuple, 0, len(probe.Tuples))
	for _, t := range probe.Tuples {
		kb = kb[:0]
		for _, j := range probeKey {
			kb = t[j].AppendKey(kb)
		}
		matches := ht[string(kb)]
		for _, m := range matches {
			var rt, st Tuple
			if probe == r {
				rt, st = t, m
			} else {
				rt, st = m, t
			}
			o := make(Tuple, 0, len(outAttrs))
			o = append(o, rt...)
			for _, j := range sExtra {
				o = append(o, st[j])
			}
			out = append(out, o)
		}
	}
	name := r.Name + "⋈" + s.Name
	return &Relation{Name: name, Attrs: outAttrs, Tuples: out}
}

// NaturalJoinAll left-folds NaturalJoin over the given relations. It
// panics on an empty argument list.
func NaturalJoinAll(rs ...*Relation) *Relation {
	if len(rs) == 0 {
		panic("relation: NaturalJoinAll of zero relations")
	}
	acc := rs[0]
	for _, r := range rs[1:] {
		acc = NaturalJoin(acc, r)
	}
	return acc
}

// EqualAsSets reports whether r and s contain the same set of tuples over
// the same attribute list, ignoring tuple order and duplicates, after
// aligning s's columns to r's attribute order.
func EqualAsSets(r, s *Relation) bool {
	if len(r.Attrs) != len(s.Attrs) {
		return false
	}
	perm := make([]int, len(r.Attrs))
	for i, a := range r.Attrs {
		j := s.ColIndex(a)
		if j < 0 {
			return false
		}
		perm[i] = j
	}
	set := make(map[string]bool)
	for _, t := range r.Tuples {
		set[t.Key()] = true
	}
	other := make(map[string]bool)
	var kb []byte
	for _, t := range s.Tuples {
		kb = kb[:0]
		for _, j := range perm {
			kb = t[j].AppendKey(kb)
		}
		other[string(kb)] = true
	}
	if len(set) != len(other) {
		return false
	}
	for k := range set {
		if !other[k] {
			return false
		}
	}
	return true
}

// String renders the relation as a small table; intended for examples and
// debugging, not large data.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d tuples]\n", r.Name, strings.Join(r.Attrs, ", "), len(r.Tuples))
	for i, t := range r.Tuples {
		if i == 20 {
			fmt.Fprintf(&b, "  … %d more\n", len(r.Tuples)-20)
			break
		}
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = v.String()
		}
		fmt.Fprintf(&b, "  (%s)\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// ReadCSV reads a relation from CSV data with a header row of attribute
// names. Fields are parsed with values.Parse.
func ReadCSV(name string, src io.Reader) (*Relation, error) {
	cr := csv.NewReader(src)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation %s: reading CSV header: %w", name, err)
	}
	var tuples []Tuple
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation %s: reading CSV: %w", name, err)
		}
		t := make(Tuple, len(rec))
		for i, f := range rec {
			t[i] = values.Parse(f)
		}
		tuples = append(tuples, t)
	}
	return New(name, header, tuples)
}

// WriteCSV writes the relation as CSV with a header row.
func (r *Relation) WriteCSV(dst io.Writer) error {
	cw := csv.NewWriter(dst)
	if err := cw.Write(r.Attrs); err != nil {
		return err
	}
	rec := make([]string, len(r.Attrs))
	for _, t := range r.Tuples {
		for i, v := range t {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
