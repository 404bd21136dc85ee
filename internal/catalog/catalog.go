// Package catalog implements disk-backed catalogue snapshots: a
// versioned, checksummed container holding, per relation, its schema
// and its factorisation — an arena store over the linear path of its
// attributes — as the only stored form of its tuples. A server that
// persists its catalogue survives restarts without re-sorting and
// re-factorising its base data, and a catalogue file is a
// self-contained artefact that can be shipped, mmapped and queried in
// place — the factorised relation as the storage layer, per the FDB
// engine papers.
//
// Container layout (all integers little-endian, all sections 8-byte
// aligned relative to the file start):
//
//	header    32 bytes: magic "FDBCAT1\n", version, relation count,
//	          metadata length, CRC-32C of metadata and of the header
//	metadata  varint-encoded: catalogue name, then per relation its
//	          name, attributes, factorisation root and section offset
//	sections  per relation: the factorised store as one frep snapshot
//	          (self-checksummed)
//
// Loading flattens each factorisation once for the callers that take
// flat tuples, so a loaded relation comes back in path order with
// duplicates collapsed — the set every engine path sees, since
// factorising deduplicates. Reading is defensive end to end: corrupt,
// truncated or version-skewed input returns an error, never a panic,
// and every loaded factorisation is shape-checked against its linear
// path before use, which also bounds the flattened row count by the
// values in the file.
package catalog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
)

const (
	catMagic     = "FDBCAT1\n"
	catVersion   = 2
	catHeaderLen = 32
	// maxAttrs bounds per-relation attribute counts on decode; the
	// engine's f-trees are tiny, so anything larger is corruption.
	maxAttrs = 1 << 12
	// maxRels bounds the relation count on decode.
	maxRels = 1 << 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fact is a factorised copy of one relation: an arena store holding the
// relation factorised over the linear path Order, rooted at Root.
type Fact struct {
	Order []string
	Store *frep.Store
	Root  frep.NodeID
}

// Relation is one catalogued relation: its factorisation, the stored
// form, plus the flat tuples it represents for callers that take a
// relation.
type Relation struct {
	Rel  *relation.Relation
	Fact *Fact
}

// Catalog is a named set of catalogued relations, ordered by name.
type Catalog struct {
	Name      string
	Relations []*Relation

	loader Loader
}

// DB returns the catalogue's flat relations keyed by name — the map the
// engine queries against.
func (c *Catalog) DB() map[string]*relation.Relation {
	out := make(map[string]*relation.Relation, len(c.Relations))
	for _, r := range c.Relations {
		out[r.Rel.Name] = r.Rel
	}
	return out
}

// Close releases the loader backing a catalogue opened with Open (for
// example an mmap). After Close, stores and strings loaded zero-copy
// must no longer be used. Close on a built (not loaded) catalogue is a
// no-op.
func (c *Catalog) Close() error {
	if c.loader == nil {
		return nil
	}
	l := c.loader
	c.loader = nil
	return l.Close()
}

// Build factorises every relation of db over its linear attribute path
// and returns the catalogue, relations sorted by name (the canonical
// order, so Build → WriteTo is deterministic).
func Build(name string, db map[string]*relation.Relation) (*Catalog, error) {
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	c := &Catalog{Name: name}
	for _, n := range names {
		rel := db[n]
		if rel == nil {
			return nil, fmt.Errorf("catalog: relation %q is nil", n)
		}
		if rel.Name != n {
			return nil, fmt.Errorf("catalog: relation %q registered under key %q", rel.Name, n)
		}
		if len(rel.Attrs) == 0 {
			return nil, fmt.Errorf("catalog: relation %q has no attributes", n)
		}
		f := ftree.New()
		f.NewRelationPath(rel.Attrs...)
		st := frep.NewStore()
		roots, err := frep.BuildStoreUnchecked(st, rel, f)
		if err != nil {
			return nil, fmt.Errorf("catalog: factorising %q: %w", n, err)
		}
		if err := st.BuildRanks(); err != nil {
			return nil, fmt.Errorf("catalog: ranking %q: %w", n, err)
		}
		c.Relations = append(c.Relations, &Relation{
			Rel: rel,
			Fact: &Fact{
				Order: append([]string(nil), rel.Attrs...),
				Store: st,
				Root:  roots[0],
			},
		})
	}
	return c, nil
}

// metaBuf is a little varint/string encoder for the metadata block.
type metaBuf struct{ b []byte }

func (m *metaBuf) uvarint(v uint64) { m.b = binary.AppendUvarint(m.b, v) }
func (m *metaBuf) str(s string) {
	m.uvarint(uint64(len(s)))
	m.b = append(m.b, s...)
}
func (m *metaBuf) strs(ss []string) {
	m.uvarint(uint64(len(ss)))
	for _, s := range ss {
		m.str(s)
	}
}
func (m *metaBuf) u64(v uint64) {
	m.b = binary.LittleEndian.AppendUint64(m.b, v)
}
func (m *metaBuf) u32(v uint32) {
	m.b = binary.LittleEndian.AppendUint32(m.b, v)
}

// metaRd is the matching defensive decoder.
type metaRd struct {
	b   []byte
	off int
	err error
}

func (m *metaRd) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

func (m *metaRd) uvarint() uint64 {
	if m.err != nil {
		return 0
	}
	v, n := binary.Uvarint(m.b[m.off:])
	if n <= 0 {
		m.fail("truncated varint at %d", m.off)
		return 0
	}
	m.off += n
	return v
}

func (m *metaRd) str(maxLen uint64) string {
	n := m.uvarint()
	if m.err != nil {
		return ""
	}
	if n > maxLen || uint64(m.off)+n > uint64(len(m.b)) {
		m.fail("implausible string length %d at %d", n, m.off)
		return ""
	}
	s := string(m.b[m.off : m.off+int(n)])
	m.off += int(n)
	return s
}

// count reads a uvarint that must be at most maxAttrs.
func (m *metaRd) count() int {
	if v := m.uvarint(); v <= maxAttrs {
		return int(v)
	}
	m.fail("implausible count at %d", m.off)
	return 0
}

// strs reads a name list written by metaBuf.strs.
func (m *metaRd) strs() []string {
	var out []string
	for i, n := 0, m.count(); i < n && m.err == nil; i++ {
		out = append(out, m.str(1<<16))
	}
	return out
}

func (m *metaRd) u64() uint64 {
	if m.err != nil {
		return 0
	}
	if m.off+8 > len(m.b) {
		m.fail("truncated u64 at %d", m.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(m.b[m.off:])
	m.off += 8
	return v
}

func (m *metaRd) u32() uint32 {
	if m.err != nil {
		return 0
	}
	if m.off+4 > len(m.b) {
		m.fail("truncated u32 at %d", m.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(m.b[m.off:])
	m.off += 4
	return v
}

// relMeta is the decoded per-relation metadata.
type relMeta struct {
	name     string
	attrs    []string // also the factorisation's path order
	root     uint32
	storeOff uint64 // absolute offset of the frep snapshot
	storeLen uint64
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// WriteTo serialises the catalogue, implementing io.WriterTo. The
// encoding is canonical: writing a loaded catalogue reproduces the input
// bytes.
func (c *Catalog) WriteTo(w io.Writer) (int64, error) {
	stores := make([][]byte, len(c.Relations))
	metas := make([]relMeta, len(c.Relations))
	for i, r := range c.Relations {
		if r.Fact == nil {
			return 0, fmt.Errorf("catalog: relation %q has no factorisation", r.Rel.Name)
		}
		if !slices.Equal(r.Fact.Order, r.Rel.Attrs) {
			// The file stores one list; the loader reads it as both.
			return 0, fmt.Errorf("catalog: relation %q is factorised in order %v, not its attribute order", r.Rel.Name, r.Fact.Order)
		}
		var err error
		if stores[i], err = r.Fact.Store.SnapshotBytes(); err != nil {
			return 0, fmt.Errorf("catalog: snapshotting %q: %w", r.Rel.Name, err)
		}
		metas[i] = relMeta{name: r.Rel.Name, attrs: r.Rel.Attrs, root: uint32(r.Fact.Root)}
	}

	// First pass sizes the metadata block with zeroed offsets; the
	// encoding is fixed-width where offsets appear, so sizing is exact.
	encodeMeta := func(final bool, base uint64) []byte {
		var mb metaBuf
		mb.str(c.Name)
		off := base
		for i := range metas {
			m := &metas[i]
			if final {
				// Store snapshots are whole multiples of 8, so every
				// relation's section starts aligned.
				m.storeOff = off
				m.storeLen = uint64(len(stores[i]))
				off += m.storeLen
			}
			mb.str(m.name)
			mb.strs(m.attrs)
			mb.u32(m.root)
			mb.u64(m.storeOff)
			mb.u64(m.storeLen)
		}
		return mb.b
	}
	metaLen := uint64(len(encodeMeta(false, 0)))
	dataBase := catHeaderLen + align8(metaLen)
	meta := encodeMeta(true, dataBase)
	if uint64(len(meta)) != metaLen {
		return 0, fmt.Errorf("catalog: internal error: metadata sizing mismatch")
	}

	var hdr [catHeaderLen]byte
	copy(hdr[0:8], catMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], catVersion)
	binary.LittleEndian.PutUint16(hdr[10:12], 0) // flags
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(c.Relations)))
	binary.LittleEndian.PutUint64(hdr[16:24], metaLen)
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(meta, crcTable))
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(hdr[0:28], crcTable))

	cw := &countWriter{w: w}
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(meta); err != nil {
		return cw.n, err
	}
	if err := cw.pad(align8(metaLen) - metaLen); err != nil {
		return cw.n, err
	}
	for _, st := range stores {
		if _, err := cw.Write(st); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

var zeros [8]byte

func (c *countWriter) pad(n uint64) error {
	if n == 0 {
		return nil
	}
	_, err := c.Write(zeros[:n])
	return err
}

// Read parses a complete catalogue held in one contiguous byte slice.
// With zeroCopy set, loaded stores reinterpret their slabs in place and
// strings alias b — the caller must keep b immutable and alive (Open
// wires this to the Loader's lifetime); otherwise everything is copied
// out of b.
func Read(b []byte, zeroCopy bool) (*Catalog, error) {
	if len(b) < catHeaderLen {
		return nil, fmt.Errorf("catalog: truncated header (%d bytes)", len(b))
	}
	if string(b[0:8]) != catMagic {
		return nil, fmt.Errorf("catalog: bad magic %q", b[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(b[28:32]), crc32.Checksum(b[0:28], crcTable); got != want {
		return nil, fmt.Errorf("catalog: header checksum mismatch (got %#x, want %#x)", got, want)
	}
	if v := binary.LittleEndian.Uint16(b[8:10]); v != catVersion {
		return nil, fmt.Errorf("catalog: unsupported version %d (this build reads version %d)", v, catVersion)
	}
	if f := binary.LittleEndian.Uint16(b[10:12]); f != 0 {
		return nil, fmt.Errorf("catalog: unknown flags %#x", f)
	}
	nRels := binary.LittleEndian.Uint32(b[12:16])
	if nRels > maxRels {
		return nil, fmt.Errorf("catalog: implausible relation count %d", nRels)
	}
	metaLen := binary.LittleEndian.Uint64(b[16:24])
	// Compare against the remaining bytes, not catHeaderLen+metaLen,
	// which a crafted metaLen near MaxUint64 would wrap past the check.
	if metaLen > uint64(len(b))-catHeaderLen {
		return nil, fmt.Errorf("catalog: metadata length %d exceeds file of %d bytes", metaLen, len(b))
	}
	meta := b[catHeaderLen : catHeaderLen+metaLen]
	if got, want := binary.LittleEndian.Uint32(b[24:28]), crc32.Checksum(meta, crcTable); got != want {
		return nil, fmt.Errorf("catalog: metadata checksum mismatch (got %#x, want %#x)", got, want)
	}

	rd := &metaRd{b: meta}
	name := rd.str(1 << 16)
	c := &Catalog{Name: name}
	seen := map[string]bool{}
	for i := uint32(0); i < nRels && rd.err == nil; i++ {
		m := relMeta{name: rd.str(1 << 16), attrs: rd.strs()}
		m.root = rd.u32()
		m.storeOff = rd.u64()
		m.storeLen = rd.u64()
		if rd.err != nil {
			break
		}
		r, err := loadRelation(b, &m, zeroCopy)
		if err != nil {
			return nil, err
		}
		if seen[r.Rel.Name] {
			return nil, fmt.Errorf("catalog: duplicate relation %q", r.Rel.Name)
		}
		seen[r.Rel.Name] = true
		c.Relations = append(c.Relations, r)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("catalog: metadata: %w", rd.err)
	}
	return c, nil
}

// section bounds-checks [off, off+n) within b and returns the slice.
func section(b []byte, off, n uint64, what string) ([]byte, error) {
	end := off + n
	if end < off || end > uint64(len(b)) {
		return nil, fmt.Errorf("catalog: %s section [%d,%d) outside file of %d bytes", what, off, end, len(b))
	}
	return b[off:end], nil
}

// loadRelation loads one relation's factorisation and flattens it.
func loadRelation(b []byte, m *relMeta, zeroCopy bool) (*Relation, error) {
	if len(m.attrs) == 0 {
		return nil, fmt.Errorf("catalog: relation %q has no attributes", m.name)
	}
	storeB, err := section(b, m.storeOff, m.storeLen, m.name+" store")
	if err != nil {
		return nil, err
	}
	st, err := frep.LoadSnapshot(storeB, zeroCopy)
	if err != nil {
		return nil, fmt.Errorf("catalog: relation %q: %w", m.name, err)
	}
	root := frep.NodeID(m.root)
	if int(m.root) >= st.NodeCount() {
		return nil, fmt.Errorf("catalog: relation %q: root %d outside store of %d nodes", m.name, m.root, st.NodeCount())
	}
	if err := checkLinearShape(st, root, len(m.attrs)); err != nil {
		return nil, fmt.Errorf("catalog: relation %q: %w", m.name, err)
	}
	f := ftree.New()
	f.NewRelationPath(m.attrs...)
	rel, err := frep.FlattenStore(f, st, []frep.NodeID{root})
	if err != nil {
		return nil, fmt.Errorf("catalog: relation %q: %w", m.name, err)
	}
	rel.Name = m.name
	return &Relation{
		Rel:  rel,
		Fact: &Fact{Order: m.attrs, Store: st, Root: root},
	}, nil
}

// checkLinearShape verifies that the factorisation rooted at root has
// the shape of a linear path of depth levels: every node at depth d <
// levels-1 has arity 1, leaves have arity 0, and no node is reached
// twice. The shape makes the engine's enumerators and operators — which
// index kid rows by the f-tree's child count — panic-free on loaded
// data; the tree rule bounds the represented tuples by the values in
// the store, so flattening a small crafted file cannot exhaust memory.
// The walk is iterative and visits each node at most once.
func checkLinearShape(st *frep.Store, root frep.NodeID, levels int) error {
	if root == frep.EmptyNode {
		return nil // empty relation
	}
	if levels == 0 {
		return fmt.Errorf("non-empty factorisation for an empty path")
	}
	// depths[id] holds depth+1 (0 = unvisited); a dense slice because
	// this walk is on the cold-start critical path and a map memo
	// dominates the whole load.
	depths := make([]int32, st.NodeCount())
	depths[root] = 1
	stack := []frep.NodeID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		depth := int(depths[id]) - 1
		wantArity := 1
		if depth == levels-1 {
			wantArity = 0
		}
		n := st.Len(id)
		if got := st.Arity(id); n > 0 && got != wantArity {
			return fmt.Errorf("node %d at depth %d has arity %d, want %d", id, depth, got, wantArity)
		}
		if depth > 0 && n == 0 {
			return fmt.Errorf("empty union below the top level at node %d", id)
		}
		for i := 0; i < n; i++ {
			for _, k := range st.KidRow(id, i) {
				if depths[k] != 0 {
					return fmt.Errorf("node %d reached twice", k)
				}
				depths[k] = int32(depth) + 2
				stack = append(stack, k)
			}
		}
	}
	return nil
}

// WriteFile writes the catalogue to path atomically: the bytes go to a
// temporary file in the same directory, are fsynced, and replace path
// with a rename, so readers never observe a partial snapshot and a
// crash mid-write leaves the previous snapshot intact.
func WriteFile(path string, c *Catalog) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := c.WriteTo(tmp); err != nil {
		return fmt.Errorf("catalog: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("catalog: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		return fmt.Errorf("catalog: closing %s: %w", path, err)
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// Open loads the catalogue at path through the loader (FileLoader or
// MmapLoader; nil means FileLoader). The zero-copy fast path is used
// whenever the loader's bytes are stable, and the returned catalogue
// owns the loader: Close releases it.
func Open(path string, l Loader) (*Catalog, error) {
	if l == nil {
		l = FileLoader(path)
	}
	b, err := l.Load()
	if err != nil {
		l.Close()
		return nil, err
	}
	c, err := Read(b, true)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c.loader = l
	return c, nil
}
