package catalog

// View files store one factorised view (the paper's read-optimised
// scenario):
//
//	magic     "FDBVIEW2"
//	block     u32 length and CRC-32C, then (metaBuf encoding) the f-tree
//	          roots in pre-order and one store root id per f-tree root
//	snapshot  one frep snapshot of just the nodes the roots reach
//
// An f-tree node is its attribute names (none for an aggregate node,
// which continues with its fields, the attributes it aggregates over and
// its alias), its ascending dependency tokens and its children. The
// encoding is canonical: ReadView accepts only what WriteView writes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
)

const (
	viewMagic     = "FDBVIEW2"
	viewHeaderLen = 16 // magic, block length, block CRC
)

// WriteView writes the view over f whose root unions are roots in s.
func WriteView(w io.Writer, f *ftree.Forest, s *frep.Store, roots []frep.NodeID) error {
	if len(roots) != len(f.Roots) {
		return fmt.Errorf("catalog: view: %d root unions for %d f-tree roots", len(roots), len(f.Roots))
	}
	reach, reachRoots := s.CopyReachable(roots)
	mb := metaBuf{b: append([]byte(viewMagic), make([]byte, 8)...)}
	mb.uvarint(uint64(len(f.Roots)))
	for _, r := range f.Roots {
		putTreeNode(&mb, r)
	}
	for _, id := range reachRoots {
		mb.uvarint(uint64(id))
	}
	binary.LittleEndian.PutUint32(mb.b[8:], uint32(len(mb.b)-viewHeaderLen))
	binary.LittleEndian.PutUint32(mb.b[12:], crc32.Checksum(mb.b[viewHeaderLen:], crcTable))
	if _, err := w.Write(mb.b); err != nil {
		return err
	}
	_, err := reach.WriteTo(w)
	return err
}

func putTreeNode(mb *metaBuf, n *ftree.Node) {
	mb.strs(n.Attrs)
	if n.IsAgg() {
		mb.uvarint(uint64(len(n.Agg.Fields)))
		for _, fl := range n.Agg.Fields {
			mb.uvarint(uint64(fl.Fn))
			mb.str(fl.Arg)
		}
		mb.strs(n.Agg.Over)
		mb.str(n.Alias)
	}
	toks := n.Deps.Sorted()
	mb.uvarint(uint64(len(toks)))
	for _, t := range toks {
		mb.uvarint(uint64(t))
	}
	mb.uvarint(uint64(len(n.Children)))
	for _, c := range n.Children {
		putTreeNode(mb, c)
	}
}

// ReadView reads a view written by WriteView and verifies all of it, so
// corrupt input is an error, never a panic. The store's strings alias a
// buffer private to it.
func ReadView(r io.Reader) (*ftree.Forest, *frep.Store, []frep.NodeID, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("catalog: view: %w", err)
	}
	if len(raw) < viewHeaderLen || string(raw[:8]) != viewMagic {
		return nil, nil, nil, fmt.Errorf("catalog: view: bad magic or truncated header")
	}
	end := viewHeaderLen + uint64(binary.LittleEndian.Uint32(raw[8:]))
	if end > uint64(len(raw)) || crc32.Checksum(raw[viewHeaderLen:end], crcTable) != binary.LittleEndian.Uint32(raw[12:]) {
		return nil, nil, nil, fmt.Errorf("catalog: view: f-tree block truncated or checksum mismatch")
	}
	f, roots, err := decodeTree(raw[viewHeaderLen:end])
	if err != nil {
		return nil, nil, nil, fmt.Errorf("catalog: view: f-tree block: %w", err)
	}
	// LoadSnapshot takes exactly one snapshot: trailing bytes fail here.
	s, err := frep.LoadSnapshot(raw[end:], true)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("catalog: view: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("catalog: view: %w", err)
	}
	if err := frep.CheckStoreInvariantsAll(f, s, roots); err != nil {
		return nil, nil, nil, fmt.Errorf("catalog: view: %w", err)
	}
	again := bytes.NewBuffer(make([]byte, 0, len(raw)))
	if err := WriteView(again, f, s, roots); err != nil || !bytes.Equal(again.Bytes(), raw) {
		return nil, nil, nil, fmt.Errorf("catalog: view: not in canonical form")
	}
	return f, s, roots, nil
}

// decodeTree parses the f-tree block (left-over bytes fail the canonical
// check); at most maxAttrs nodes bound the recursion and validation.
func decodeTree(block []byte) (*ftree.Forest, []frep.NodeID, error) {
	rd := &metaRd{b: block}
	f, budget, maxTok := ftree.New(), maxAttrs, -1
	var node func(parent *ftree.Node) *ftree.Node
	node = func(parent *ftree.Node) *ftree.Node {
		if budget--; budget < 0 {
			rd.fail("more than %d f-tree nodes", maxAttrs)
		}
		n := &ftree.Node{Parent: parent, Attrs: rd.strs(), Deps: ftree.NewTokenSet()}
		if len(n.Attrs) == 0 && rd.err == nil {
			n.Agg = &ftree.Agg{}
			for i, nf := 0, rd.count(); i < nf && rd.err == nil; i++ {
				if fn := rd.count(); fn > 255 || !ftree.Fn(fn).Storable() {
					rd.fail("aggregate function %d is not a storable field", fn)
				} else {
					n.Agg.Fields = append(n.Agg.Fields, ftree.AggField{Fn: ftree.Fn(fn), Arg: rd.str(1 << 16)})
				}
			}
			n.Agg.Over, n.Alias = rd.strs(), rd.str(1<<16)
		}
		for i, nt := 0, rd.count(); i < nt && rd.err == nil; i++ {
			tok := rd.count()
			n.Deps.Add(tok)
			maxTok = max(maxTok, tok)
		}
		for i, nc := 0, rd.count(); i < nc && rd.err == nil; i++ {
			n.Children = append(n.Children, node(n))
		}
		return n
	}
	for i, nr := 0, rd.count(); i < nr && rd.err == nil; i++ {
		f.Roots = append(f.Roots, node(nil))
	}
	roots := make([]frep.NodeID, len(f.Roots))
	for i := range roots {
		roots[i] = frep.NodeID(min(rd.uvarint(), 1<<32-1))
	}
	for f.TokenBound() <= maxTok {
		f.NewToken()
	}
	return f, roots, rd.err
}
