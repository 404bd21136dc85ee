package frep

// Binary serialisation of factorised representations, so that
// materialised views can be stored and reloaded without re-factorising
// (the read-optimised scenario of the paper's Section 1). The format is
// a simple length-prefixed pre-order encoding:
//
//	union   := varint(len) value* kidsFlag rows*
//	value   := kind payload
//	rows    := per value, one union per f-tree child
//
// The f-tree itself is encoded structurally (labels, aggregate fields,
// dependency tokens, children).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

const codecMagic = "FDBV1\n"

type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) varint(v int64) {
	if e.err != nil {
		return
	}
	n := binary.PutVarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

func (e *encoder) node(n *ftree.Node) {
	if n.IsAgg() {
		e.byte(1)
		e.uvarint(uint64(len(n.Agg.Fields)))
		for _, fl := range n.Agg.Fields {
			e.byte(byte(fl.Fn))
			e.str(fl.Arg)
		}
		e.uvarint(uint64(len(n.Agg.Over)))
		for _, a := range n.Agg.Over {
			e.str(a)
		}
		e.str(n.Alias)
	} else {
		e.byte(0)
		e.uvarint(uint64(len(n.Attrs)))
		for _, a := range n.Attrs {
			e.str(a)
		}
	}
	toks := n.Deps.Sorted()
	e.uvarint(uint64(len(toks)))
	for _, t := range toks {
		e.uvarint(uint64(t))
	}
	e.uvarint(uint64(len(n.Children)))
	for _, c := range n.Children {
		e.node(c)
	}
}

func (e *encoder) value(v values.Value) {
	switch v.Kind() {
	case values.Null:
		e.byte(0)
	case values.Bool:
		e.byte(1)
		if v.Bool() {
			e.byte(1)
		} else {
			e.byte(0)
		}
	case values.Int:
		e.byte(2)
		e.varint(v.Int())
	case values.Float:
		e.byte(3)
		e.uvarint(math.Float64bits(v.Float()))
	case values.String:
		e.byte(4)
		e.str(v.Str())
	case values.Vec:
		e.byte(5)
		e.uvarint(uint64(v.VecLen()))
		for i := 0; i < v.VecLen(); i++ {
			e.value(v.VecAt(i))
		}
	}
}

// WriteStoreTo serialises the forest representation (f-tree plus unions)
// to w. The encoding is canonical: a view read back and written again
// reproduces the same bytes.
func WriteStoreTo(w io.Writer, f *ftree.Forest, s *Store, roots []NodeID) error {
	if len(roots) != len(f.Roots) {
		return fmt.Errorf("frep: codec: %d root unions for %d f-tree roots", len(roots), len(f.Roots))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	e := &encoder{w: bw}
	e.uvarint(uint64(len(f.Roots)))
	for i, r := range f.Roots {
		e.node(r)
		e.storeUnion(r, s, roots[i])
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

func (e *encoder) storeUnion(n *ftree.Node, s *Store, id NodeID) {
	vals := s.Vals(id)
	e.uvarint(uint64(len(vals)))
	for _, v := range vals {
		e.value(v)
	}
	for i := range vals {
		row := s.KidRow(id, i)
		for j := range n.Children {
			e.storeUnion(n.Children[j], s, row[j])
		}
	}
}

// ReadStoreFrom deserialises a forest representation written by
// WriteStoreTo into a fresh store, validating the f-tree and the
// representation invariants.
func ReadStoreFrom(r io.Reader) (*ftree.Forest, *Store, []NodeID, error) {
	s := NewStore()
	f, roots, err := ReadStoreInto(r, s)
	return f, s, roots, err
}

// ReadStoreInto is ReadStoreFrom appending into an existing store (which
// typically comes from a pool).
func ReadStoreInto(r io.Reader, s *Store) (*ftree.Forest, []NodeID, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("frep: codec: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, nil, fmt.Errorf("frep: codec: bad magic %q", magic)
	}
	d := &decoder{r: br}
	n := d.uvarint()
	if n > 1<<20 {
		return nil, nil, fmt.Errorf("frep: codec: implausible root count %d", n)
	}
	f := ftree.New()
	var roots []NodeID
	maxTok := -1
	for i := uint64(0); i < n && d.err == nil; i++ {
		nd := d.node(nil, &maxTok)
		f.Roots = append(f.Roots, nd)
		roots = append(roots, d.storeUnion(nd, s))
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	for f.TokenBound() <= maxTok {
		f.NewToken()
	}
	if err := f.Validate(); err != nil {
		return nil, nil, fmt.Errorf("frep: codec: decoded f-tree invalid: %w", err)
	}
	if err := CheckStoreInvariantsAll(f, s, roots); err != nil {
		return nil, nil, fmt.Errorf("frep: codec: decoded representation invalid: %w", err)
	}
	return f, roots, nil
}

type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(fmt.Errorf("frep: codec: %w", err))
	}
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.fail(fmt.Errorf("frep: codec: %w", err))
	}
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<24 {
		d.fail(fmt.Errorf("frep: codec: implausible string length %d", n))
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.fail(fmt.Errorf("frep: codec: %w", err))
		return ""
	}
	return string(buf)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(fmt.Errorf("frep: codec: %w", err))
	}
	return b
}

func (d *decoder) node(parent *ftree.Node, maxTok *int) *ftree.Node {
	n := &ftree.Node{Parent: parent}
	switch d.byte() {
	case 1:
		nf := d.uvarint()
		if nf > 64 {
			d.fail(fmt.Errorf("frep: codec: implausible field count %d", nf))
			return n
		}
		agg := &ftree.Agg{}
		for i := uint64(0); i < nf && d.err == nil; i++ {
			fn := ftree.Fn(d.byte())
			if !fn.Storable() {
				d.fail(fmt.Errorf("frep: codec: aggregate function %d is not a storable field", uint8(fn)))
				return n
			}
			arg := d.str()
			agg.Fields = append(agg.Fields, ftree.AggField{Fn: fn, Arg: arg})
		}
		no := d.uvarint()
		for i := uint64(0); i < no && d.err == nil; i++ {
			agg.Over = append(agg.Over, d.str())
		}
		n.Agg = agg
		n.Alias = d.str()
	default:
		na := d.uvarint()
		if na > 1<<16 {
			d.fail(fmt.Errorf("frep: codec: implausible class size %d", na))
			return n
		}
		for i := uint64(0); i < na && d.err == nil; i++ {
			n.Attrs = append(n.Attrs, d.str())
		}
	}
	nt := d.uvarint()
	n.Deps = ftree.NewTokenSet()
	for i := uint64(0); i < nt && d.err == nil; i++ {
		tok := int(d.uvarint())
		n.Deps.Add(tok)
		if tok > *maxTok {
			*maxTok = tok
		}
	}
	nc := d.uvarint()
	if nc > 1<<16 {
		d.fail(fmt.Errorf("frep: codec: implausible child count %d", nc))
		return n
	}
	for i := uint64(0); i < nc && d.err == nil; i++ {
		n.Children = append(n.Children, d.node(n, maxTok))
	}
	return n
}

func (d *decoder) value() values.Value {
	switch d.byte() {
	case 0:
		return values.NullValue()
	case 1:
		return values.NewBool(d.byte() != 0)
	case 2:
		return values.NewInt(d.varint())
	case 3:
		return values.NewFloat(math.Float64frombits(d.uvarint()))
	case 4:
		return values.NewString(d.str())
	case 5:
		n := d.uvarint()
		if n > 1<<16 {
			d.fail(fmt.Errorf("frep: codec: implausible vector length %d", n))
			return values.NullValue()
		}
		vec := make([]values.Value, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			vec = append(vec, d.value())
		}
		return values.NewVec(vec)
	default:
		d.fail(fmt.Errorf("frep: codec: unknown value kind"))
		return values.NullValue()
	}
}

// storeUnion decodes one union (and, recursively, its children) into the
// store. Children are decoded — and therefore added — before their
// parent, so every kid reference points backwards.
func (d *decoder) storeUnion(n *ftree.Node, s *Store) NodeID {
	nv := d.uvarint()
	if d.err != nil {
		return EmptyNode
	}
	if nv > 1<<30 {
		d.fail(fmt.Errorf("frep: codec: implausible union size %d", nv))
		return EmptyNode
	}
	vals := make([]values.Value, 0, nv)
	for i := uint64(0); i < nv && d.err == nil; i++ {
		vals = append(vals, d.value())
	}
	arity := len(n.Children)
	var kids []NodeID
	if arity > 0 {
		kids = make([]NodeID, 0, int(nv)*arity)
		for i := uint64(0); i < nv && d.err == nil; i++ {
			for _, c := range n.Children {
				kids = append(kids, d.storeUnion(c, s))
			}
		}
	}
	if d.err != nil {
		return EmptyNode
	}
	return s.Add(vals, arity, kids)
}
