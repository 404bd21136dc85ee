package engine

// Base factorisations and catalogue persistence. Every relation a query
// reads carries its own base factorisations, attached on first use, so
// they go when it goes: one frozen store — ranked and column-indexed —
// per path order a plan has asked for (a bounded number of orders),
// made on first demand and shared by every execution. The order a
// catalogue stores is the catalogue's own store, never copied. A write
// publishes a new relation, with bases of its own, so no base is ever
// stale. The rest of the file saves a database as a disk snapshot and
// loads it back without re-sorting or re-factorising the base data.

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
)

// Catalog is a loaded (or built) catalogue: the factorised base
// relations plus the flat database flattened from them. Obtain one with LoadCatalog /
// LoadCatalogFile, query Catalog.DB, and Close it when the data is no
// longer needed (required for mmap-backed catalogues).
type Catalog struct {
	// Name is the catalogue's self-declared name.
	Name string
	// DB is the loaded database; its relations must not be modified.
	DB DB

	cat  *catalog.Catalog
	once sync.Once
}

// baseBuilds counts bases factorised from flat tuples, for tests.
var baseBuilds atomic.Int64

// maxBaseOrders bounds the bases a relation keeps. Clients' ORDER BY
// and GROUP BY lists choose the orders, so past the bound the base
// unused longest is dropped.
const maxBaseOrders = 8

// baseSet is what a relation carries once a query has read it
// (relation.Share): the factorisation its catalogue stores (nil when
// none) and the bases made so far, published copy-on-write under mu. It
// lives exactly as long as the relation.
type baseSet struct {
	stored *catalog.Fact
	mu     sync.Mutex
	built  atomic.Pointer[[]*base]
	epoch  atomic.Int64 // counts builds
}

// base is one frozen factorisation of a relation, ranked and
// column-indexed, with the epoch of its last use.
type base struct {
	*catalog.Fact
	in   input // the store and its one root, as executions read them
	used atomic.Int64
}

// register attaches to rel the base set of a catalogue that stores the
// factorisation stored. It builds nothing, and must run before any
// query reads rel.
func register(rel *relation.Relation, stored *catalog.Fact) *baseSet {
	s := &baseSet{stored: stored}
	s.built.Store(new([]*base))
	return rel.Share(s).(*baseSet)
}

// baseFor returns rel's base in the given path order, attaching an
// empty base set to rel on its first use. A missing base is made under
// the set's lock: the stored order from the catalogue's own store, any
// other by factorising the flat tuples. A cancelled or failed build is
// not kept.
func baseFor(ctx context.Context, rel *relation.Relation, order []string) (*base, error) {
	s, _ := rel.Shared().(*baseSet)
	if s == nil {
		s = register(rel, nil)
	}
	if b := s.find(order); b != nil {
		return b, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.find(order); b != nil {
		return b, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := &base{Fact: &catalog.Fact{Order: order}}
	if s.stored != nil && slices.Equal(s.stored.Order, order) {
		b.Store, b.Root = s.stored.Store.Snapshot(), s.stored.Root
	} else {
		b.Store = frep.NewStore()
		f := ftree.New()
		f.NewRelationPath(order...)
		roots, err := frep.BuildStoreUnchecked(b.Store, rel, f)
		if err != nil {
			return nil, err
		}
		b.Root = roots[0]
		baseBuilds.Add(1)
	}
	if !b.Store.HasRanks() {
		if err := b.Store.BuildRanks(); err != nil {
			return nil, err
		}
	}
	b.Store.BuildCols()
	b.in = input{store: b.Store, roots: []frep.NodeID{b.Root}}
	b.used.Store(s.epoch.Add(1))
	next := append(slices.Clip(*s.built.Load()), b)
	if len(next) > maxBaseOrders {
		lru := slices.MinFunc(next, func(x, y *base) int { return cmp.Compare(x.used.Load(), y.used.Load()) })
		next = slices.DeleteFunc(next, func(x *base) bool { return x == lru })
	}
	s.built.Store(&next)
	return b, nil
}

// find returns the base made in the given order, or nil, and marks it
// used in the current epoch.
func (s *baseSet) find(order []string) *base {
	for _, b := range *s.built.Load() {
		if slices.Equal(b.Order, order) {
			if e := s.epoch.Load(); b.used.Load() != e {
				b.used.Store(e)
			}
			return b
		}
	}
	return nil
}

// SaveCatalog factorises every relation of db over its attribute path
// and writes the catalogue snapshot (schemas and factorised stores) to
// w. It implements the "save" half of catalogue persistence;
// the written bytes are canonical (byte-identical across saves of the
// same data).
func SaveCatalog(w io.Writer, name string, db DB) (int64, error) {
	c, err := catalog.Build(name, db)
	if err != nil {
		return 0, err
	}
	return c.WriteTo(w)
}

// SaveCatalogFile is SaveCatalog writing atomically to path (temp file
// in the same directory, fsync, rename), so a crash mid-write never
// leaves a partial snapshot and concurrent readers keep the old one.
func SaveCatalogFile(path, name string, db DB) error {
	c, err := catalog.Build(name, db)
	if err != nil {
		return err
	}
	return catalog.WriteFile(path, c)
}

// LoadCatalog reads a catalogue snapshot from r and returns the loaded
// database, each relation serving its stored order from the snapshot's
// own factorisation. Each relation's tuples are flattened from its
// factorisation, so they come back in path order with duplicates
// collapsed.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: reading catalogue: %w", err)
	}
	c, err := catalog.Read(b, true)
	if err != nil {
		return nil, err
	}
	return wrapCatalog(c), nil
}

// LoadCatalogFile loads the catalogue snapshot at path. With mmap set
// the file is memory-mapped and slabs and strings are used in place
// (zero-copy: load time is O(metadata), data pages fault in on demand);
// otherwise the file is read into private memory with one contiguous
// read. In both cases Close releases the backing bytes.
func LoadCatalogFile(path string, mmap bool) (*Catalog, error) {
	var l catalog.Loader
	if mmap {
		l = catalog.MmapLoader(path)
	}
	c, err := catalog.Open(path, l)
	if err != nil {
		return nil, err
	}
	return wrapCatalog(c), nil
}

func wrapCatalog(c *catalog.Catalog) *Catalog {
	for _, r := range c.Relations {
		register(r.Rel, r.Fact)
	}
	return &Catalog{Name: c.Name, DB: c.DB(), cat: c}
}

// Close releases the snapshot's backing bytes (the mmap, when one is
// used). The catalogue's relations — and any query results still
// aliasing its strings — must not be used afterwards. Close is
// idempotent.
func (c *Catalog) Close() error {
	var err error
	c.once.Do(func() { err = c.cat.Close() })
	return err
}
