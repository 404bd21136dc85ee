package engine

// Catalogue persistence: saving a database as a disk snapshot and
// loading it back without re-sorting or re-factorising the base data.
// A loaded catalogue also registers its factorised base relations in a
// process-wide fact registry keyed by relation identity, so the first
// ExecShared of a prepared statement whose chosen path order matches a
// stored factorisation grafts the prebuilt slabs instead of rebuilding
// from flat tuples.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/frep"
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

// facts is the process-wide registry of prebuilt base-relation
// factorisations, keyed by relation identity (pointer) — unambiguous
// across databases even when names collide. Entries are added when a
// catalogue is loaded and dropped when it is closed; the stores are
// frozen and read-only, so any number of queries may graft from one
// entry concurrently.
var facts sync.Map // *relation.Relation → *catalog.Fact

// factFor returns the registered factorisation of rel in the given path
// order, or nil.
func factFor(rel *relation.Relation, order []string) *catalog.Fact {
	v, ok := facts.Load(rel)
	if !ok {
		return nil
	}
	f := v.(*catalog.Fact)
	if len(f.Order) != len(order) {
		return nil
	}
	for i := range order {
		if f.Order[i] != order[i] {
			return nil
		}
	}
	return f
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
// database with its factorised base relations registered for ExecShared
// reuse. Each relation's tuples are flattened from its factorisation,
// so they come back in path order with duplicates collapsed.
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
	out := &Catalog{Name: c.Name, DB: DB{}, cat: c}
	for _, r := range c.Relations {
		out.DB[r.Rel.Name] = r.Rel
		if r.Fact != nil {
			facts.Store(r.Rel, r.Fact)
		}
	}
	return out
}

// Close unregisters the catalogue's factorisations and releases the
// snapshot's backing bytes (the mmap, when one is used). The catalogue's
// relations — and any query results still aliasing its strings — must
// not be used afterwards. Close is idempotent.
func (c *Catalog) Close() error {
	var err error
	c.once.Do(func() {
		for _, r := range c.cat.Relations {
			facts.Delete(r.Rel)
		}
		err = c.cat.Close()
	})
	return err
}

// factGrafts counts base-relation builds served by grafting a prebuilt
// catalogue factorisation instead of re-sorting flat tuples; tests (and
// FactGrafts) observe it.
var factGrafts atomic.Int64

// FactGrafts returns the cumulative number of base-relation builds
// served from catalogue factorisations.
func FactGrafts() int64 { return factGrafts.Load() }

// graftFact appends the prebuilt factorisation into st and returns the
// remapped root.
func graftFact(st *frep.Store, f *catalog.Fact) frep.NodeID {
	factGrafts.Add(1)
	remap := st.Graft(f.Store)
	return remap(f.Root)
}
