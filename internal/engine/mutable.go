package engine

// Mutable catalogues: the durable write path. A MutableCatalog is a
// directory holding an immutable catalogue snapshot (the base), a
// write-ahead log of the mutations applied since that snapshot, and a
// MANIFEST naming which snapshot is authoritative. Reads stay lock-free:
// View() returns an immutable database map whose unmutated relations are
// served exactly as a frozen catalogue would serve them (same pointers,
// same registered factorisations — zero overhead), while a mutated
// relation is its factorisation, kept in the writer's private overlay
// (Store.Overlay) of the frozen base factorisation:
//
//   - inserts are factorised into the overlay and folded into the
//     relation's current root with an incremental linear-path merge;
//   - deletes enumerate the current factorisation for the matching rows
//     and remove their paths structurally (RemoveTuples); an upsert
//     finds its key's rows by binary search on the root union;
//   - each write bumps the catalogue generation and the next View()
//     publishes the relation in the catalogue's own form: the live
//     nodes copied out of the overlay (Store.CopyReachable) and ranked,
//     byte-identical to what catalog.Build stores, and registered as
//     the stored factorisation of a fresh relation flattened from it.
//     Queries read only live nodes, a new relation carries bases of its
//     own, so no base is ever stale, and no overlay leaves the writer.
//
// Durability: every acknowledged mutation is appended to the WAL and
// group-committed before Apply returns. Crash anywhere, reopen the
// directory, and replaying snapshot + log reproduces the acknowledged
// state byte-identically. Compact (see compact.go) folds the log into a
// fresh snapshot and truncates it.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wal"
)

const (
	manifestName = "MANIFEST"
	snapPattern  = "snap-%06d.fdbcat"
	walPattern   = "wal-%06d.log"
)

// manifest is the durable pointer to the authoritative snapshot: replay
// starts from Snapshot and applies every WAL segment with an epoch
// greater than Epoch, in epoch order. It is replaced atomically
// (temp + fsync + rename), so a crashed compaction leaves the previous
// snapshot authoritative.
type manifest struct {
	Name     string `json:"name"`
	Snapshot string `json:"snapshot"`
	Epoch    uint64 `json:"epoch"`
}

// mrel is the per-relation write state.
type mrel struct {
	// base is the relation as the current snapshot holds it (loaded, or
	// published and then compacted): View serves it while unwritten, it
	// is registered as a base, and its factorisation backs ov.
	base *catalog.Relation
	// ov is the writer's private overlay over the base factorisation;
	// every node a write creates is appended here, so it also keeps the
	// nodes later writes made dead.
	ov *frep.Store
	// root is the relation's current factorisation root in ov's address
	// space, maintained incrementally by MergeLinear / RemoveTuples.
	root frep.NodeID
	// forest is the relation's linear-path f-tree, reused for batch
	// factorisations and enumerations.
	forest *ftree.Forest
	// inserted and deleted count the rows written since base.
	inserted, deleted int64
	// gen is the catalogue generation of the relation's last mutation;
	// 0 means unmutated (View serves base directly).
	gen uint64
	// pub is the relation published at generation pubGen, in catalogue
	// form, registered as a base.
	pub    *catalog.Relation
	pubGen uint64
}

// viewState is one published immutable database view.
type viewState struct {
	gen uint64
	db  DB
}

// MutableStats is a point-in-time snapshot of a mutable catalogue's
// write-path gauges.
type MutableStats struct {
	// Generation counts applied mutations (and compaction rebases) since
	// open; it bumps on every acknowledged write.
	Generation uint64 `json:"generation"`
	// InsertRows / DeleteRows / UpsertRows count rows affected per verb.
	InsertRows int64 `json:"insert_rows"`
	DeleteRows int64 `json:"delete_rows"`
	UpsertRows int64 `json:"upsert_rows"`
	// DeltaRows / TombstoneRows count the rows inserted / deleted since
	// the last compaction rebase, summed over relations; the rebase
	// zeroes them.
	DeltaRows     int64 `json:"delta_rows"`
	TombstoneRows int64 `json:"tombstone_rows"`
	// WALEpoch is the active segment number; WALBytes / WALRecords /
	// WALSyncs describe the active segment (syncs gauge group-commit
	// batching: records per sync is the effectiveness ratio).
	WALEpoch   uint64 `json:"wal_epoch"`
	WALBytes   int64  `json:"wal_bytes"`
	WALRecords int64  `json:"wal_records"`
	WALSyncs   int64  `json:"wal_syncs"`
	// Compactions counts completed compactions; Compacting reports one
	// in flight.
	Compactions int64 `json:"compactions"`
	Compacting  bool  `json:"compacting"`
}

// MutableCatalog is a durable, queryable, mutable database: a catalogue
// snapshot plus a write-ahead log and per-relation factorised overlays.
// Apply and Compact may be called concurrently with any number of
// View-based readers; writes are serialised internally.
type MutableCatalog struct {
	name string
	dir  string

	mu     sync.Mutex
	rels   map[string]*mrel
	log    *wal.Log
	epoch  uint64 // active WAL segment number
	gen    uint64
	closed bool

	genA atomic.Uint64
	view atomic.Pointer[viewState]

	compacting  atomic.Bool
	compactions atomic.Int64
	insertRows  atomic.Int64
	deleteRows  atomic.Int64
	upsertRows  atomic.Int64

	stopAuto chan struct{}
	autoDone chan struct{}
}

// CreateMutable initialises dir (created if needed, must not already
// hold a catalogue) with a snapshot of db and an empty WAL, and returns
// the opened catalogue.
func CreateMutable(dir, name string, db DB) (*MutableCatalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("engine: %s already holds a mutable catalogue", dir)
	}
	cat, err := catalog.Build(name, db)
	if err != nil {
		return nil, err
	}
	snap := fmt.Sprintf(snapPattern, 0)
	if err := catalog.WriteFile(filepath.Join(dir, snap), cat); err != nil {
		return nil, err
	}
	if err := writeManifest(dir, manifest{Name: name, Snapshot: snap, Epoch: 0}); err != nil {
		return nil, err
	}
	log, err := wal.Create(filepath.Join(dir, fmt.Sprintf(walPattern, 1)))
	if err != nil {
		return nil, err
	}
	m := newMutable(name, dir, cat, log, 1)
	return m, nil
}

// OpenMutable opens the mutable catalogue at dir: loads the manifest's
// snapshot, replays every WAL segment after it in order (torn tails are
// truncated by the framing layer), and resumes appending to the newest
// segment. The recovered state is byte-identical to the acknowledged
// pre-crash state.
func OpenMutable(dir string) (*MutableCatalog, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	// Buffered (non-mmap) load: compaction replaces the snapshot file
	// while queries may still alias the old bytes, so the backing must
	// be plain GC-managed memory.
	cat, err := catalog.Open(filepath.Join(dir, man.Snapshot), nil)
	if err != nil {
		return nil, err
	}
	epochs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	m := newMutable(man.Name, dir, cat, nil, 0)
	replay := func(seq uint64, payload []byte) error {
		mut, err := decodeMutation(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		if _, _, err := m.applyLocked(mut); err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		return nil
	}
	live := epochs[:0]
	for _, e := range epochs {
		if e > man.Epoch {
			live = append(live, e)
			continue
		}
		// A segment at or below the manifest epoch is fully covered by
		// the snapshot — a leftover from a compaction that crashed
		// between manifest write and GC.
		os.Remove(filepath.Join(dir, fmt.Sprintf(walPattern, e)))
	}
	for i, e := range live {
		path := filepath.Join(dir, fmt.Sprintf(walPattern, e))
		if i < len(live)-1 {
			if err := wal.Replay(path, replay); err != nil {
				return nil, err
			}
			continue
		}
		log, err := wal.Open(path, replay)
		if err != nil {
			return nil, err
		}
		m.log, m.epoch = log, e
	}
	if m.log == nil {
		e := man.Epoch + 1
		log, err := wal.Create(filepath.Join(dir, fmt.Sprintf(walPattern, e)))
		if err != nil {
			return nil, err
		}
		m.log, m.epoch = log, e
	}
	return m, nil
}

func newMutable(name, dir string, cat *catalog.Catalog, log *wal.Log, epoch uint64) *MutableCatalog {
	m := &MutableCatalog{
		name:  name,
		dir:   dir,
		rels:  make(map[string]*mrel, len(cat.Relations)),
		log:   log,
		epoch: epoch,
	}
	for _, cr := range cat.Relations {
		m.rels[cr.Rel.Name] = newMrel(cr)
	}
	return m
}

// newMrel wires one catalogued relation into the write path: it is
// registered as a base, and its frozen factorisation becomes the base
// tier of the writer's overlay, which never leaves the mrel.
func newMrel(cr *catalog.Relation) *mrel {
	register(cr.Rel, cr.Fact)
	forest := ftree.New()
	forest.NewRelationPath(cr.Rel.Attrs...)
	return &mrel{
		base:   cr,
		ov:     cr.Fact.Store.Overlay(),
		root:   cr.Fact.Root,
		forest: forest,
	}
}

// Name returns the catalogue's name.
func (m *MutableCatalog) Name() string { return m.name }

// Dir returns the catalogue's directory.
func (m *MutableCatalog) Dir() string { return m.dir }

// Generation returns the catalogue generation: it bumps on every
// acknowledged mutation and on compaction rebases, so equal generations
// imply identical View contents.
func (m *MutableCatalog) Generation() uint64 { return m.genA.Load() }

// View returns an immutable database snapshot at the current
// generation. Unmutated relations are the frozen base pointers (no
// write-path overhead whatsoever); mutated relations are flattened from
// their current factorisations, which are registered as bases. The
// map and its relations must not be modified; they stay valid (and
// consistent) however many writes follow.
func (m *MutableCatalog) View() DB {
	if v := m.view.Load(); v != nil && v.gen == m.genA.Load() {
		return v.db
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

func (m *MutableCatalog) viewLocked() DB {
	if v := m.view.Load(); v != nil && v.gen == m.gen {
		return v.db
	}
	db := make(DB, len(m.rels))
	for name, mr := range m.rels {
		db[name] = mr.current().Rel
	}
	m.view.Store(&viewState{gen: m.gen, db: db})
	return db
}

// current returns the relation in catalogue form at the current
// generation, publishing it first when a write has outdated the last
// publication. The caller holds m.mu.
func (mr *mrel) current() *catalog.Relation {
	if mr.gen == 0 {
		return mr.base
	}
	if mr.pub == nil || mr.pubGen != mr.gen {
		mr.publish()
	}
	return mr.pub
}

// publish copies the relation's live factorisation out of the overlay
// into the form catalog.Build stores — the reachable nodes in
// post-order, ranked — flattens it into a new relation and registers
// it as that relation's stored factorisation.
func (mr *mrel) publish() {
	name := mr.base.Rel.Name
	st, roots := mr.ov.CopyReachable([]frep.NodeID{mr.root})
	// The forest is the relation's own path and the copy a tree of
	// distinct values, so failures here are programming errors, not
	// data errors.
	if err := st.BuildRanks(); err != nil {
		panic(fmt.Sprintf("engine: ranking %s: %v", name, err))
	}
	rel, err := frep.FlattenStore(mr.forest, st, roots)
	if err != nil {
		panic(fmt.Sprintf("engine: publishing %s: %v", name, err))
	}
	rel.Name = name
	mr.pub = &catalog.Relation{Rel: rel, Fact: &catalog.Fact{
		Order: append([]string(nil), mr.base.Rel.Attrs...),
		Store: st,
		Root:  roots[0],
	}}
	register(rel, mr.pub.Fact)
	mr.pubGen = mr.gen
}

// ErrMutableClosed is returned by operations on a closed catalogue.
var ErrMutableClosed = fmt.Errorf("engine: mutable catalogue closed")

// Apply executes one mutation: the factorisation is updated under the
// writer lock, the statement is appended to the WAL, and Apply returns
// the number of rows affected once the record's group commit has made
// it durable. Statements that change nothing (no-op deletes, inserts of
// already-present rows) are acknowledged without logging.
func (m *MutableCatalog) Apply(ctx context.Context, mut *query.Mutation) (int64, error) {
	if err := mut.Validate(); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrMutableClosed
	}
	n, changed, err := m.applyLocked(mut)
	if err != nil {
		m.mu.Unlock()
		return 0, err
	}
	var ticket wal.Ticket
	if changed {
		// Encode and append while still holding the lock so the log's
		// record order always equals the apply order (replay re-applies
		// records in log order); the fsync wait happens after unlock, so
		// concurrent writers share one group commit.
		payload, err := encodeMutation(mut)
		if err == nil {
			ticket, err = m.log.Append(payload)
		}
		if err != nil {
			m.mu.Unlock()
			return n, fmt.Errorf("engine: logging mutation: %w", err)
		}
	}
	m.mu.Unlock()
	if changed {
		if err := ticket.Wait(); err != nil {
			return n, fmt.Errorf("engine: wal commit: %w", err)
		}
	}
	return n, nil
}

// applyLocked applies one validated mutation to the factorisations and
// bumps the generation when anything changed. The caller holds m.mu
// (or, during open, has exclusive access).
func (m *MutableCatalog) applyLocked(mut *query.Mutation) (int64, bool, error) {
	mr := m.rels[mut.Relation]
	if mr == nil {
		return 0, false, fmt.Errorf("engine: unknown relation %q", mut.Relation)
	}
	var n int64
	var err error
	switch mut.Op {
	case query.OpInsert:
		n, err = mr.insert(mut.Rows)
		m.insertRows.Add(n)
	case query.OpDelete:
		var match func(relation.Tuple) bool
		match, err = compileWhere(mr, mut.Where)
		if err == nil {
			n = mr.remove(mr.cursor(), match)
		}
		m.deleteRows.Add(n)
	case query.OpUpsert:
		n, err = mr.upsert(mut.Rows)
		m.upsertRows.Add(n)
	default:
		err = fmt.Errorf("engine: unknown mutation op %d", mut.Op)
	}
	if err != nil {
		return 0, false, err
	}
	if n == 0 {
		return 0, false, nil
	}
	m.gen++
	mr.gen = m.gen
	m.genA.Store(m.gen)
	return n, true, nil
}

// compileWhere turns DELETE filters into a tuple predicate, validating
// the attributes against the relation's schema.
func compileWhere(mr *mrel, where []query.Filter) (func(relation.Tuple) bool, error) {
	cols := make([]int, len(where))
	for i, f := range where {
		c := -1
		for j, a := range mr.base.Rel.Attrs {
			if a == f.Attr {
				c = j
				break
			}
		}
		if c < 0 {
			return nil, fmt.Errorf("engine: relation %q has no attribute %q", mr.base.Rel.Name, f.Attr)
		}
		cols[i] = c
	}
	return func(t relation.Tuple) bool {
		for i, f := range where {
			if !f.Op.Holds(t[cols[i]], f.Const) {
				return false
			}
		}
		return true
	}, nil
}

// insert adds the rows not already present (relations are sets under
// factorisation: duplicates collapse), factorises the fresh batch into
// the overlay and merges it into the current root. Returns the number
// of rows actually inserted.
func (mr *mrel) insert(rows [][]values.Value) (int64, error) {
	arity := len(mr.base.Rel.Attrs)
	for _, r := range rows {
		if len(r) != arity {
			return 0, fmt.Errorf("engine: %s: inserting %d values into %d attributes", mr.base.Rel.Name, len(r), arity)
		}
	}
	// Sort and deduplicate the batch, then drop rows already present;
	// sorting makes replay deterministic regardless of duplicate order.
	batch := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		batch[i] = relation.Tuple(r)
	}
	sort.SliceStable(batch, func(i, j int) bool { return relation.Compare(batch[i], batch[j]) < 0 })
	fresh := batch[:0]
	for i, t := range batch {
		if i > 0 && relation.Compare(batch[i-1], t) == 0 {
			continue
		}
		if containsTuple(mr.ov, mr.root, t) {
			continue
		}
		fresh = append(fresh, t)
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	rel, err := relation.New(mr.base.Rel.Name, mr.base.Rel.Attrs, fresh)
	if err != nil {
		return 0, fmt.Errorf("engine: %s: %w", mr.base.Rel.Name, err)
	}
	roots, err := frep.BuildStoreUnchecked(mr.ov, rel, mr.forest)
	if err != nil {
		return 0, fmt.Errorf("engine: %s: %w", mr.base.Rel.Name, err)
	}
	mr.root = frep.MergeLinear(mr.ov, mr.root, roots[0])
	mr.inserted += int64(len(fresh))
	return int64(len(fresh)), nil
}

// cursor enumerates the relation's current rows in path order.
func (mr *mrel) cursor() *frep.StoreEnumerator {
	e, err := frep.NewStoreEnumerator(mr.forest, mr.ov, []frep.NodeID{mr.root}, nil)
	if err != nil {
		// The forest is the relation's own path; a failure here is a
		// programming error, not a data error.
		panic(fmt.Sprintf("engine: enumerating %s: %v", mr.base.Rel.Name, err))
	}
	return e
}

// remove deletes the rows of the cursor that match the predicate (all of
// them for a nil predicate) from the factorisation. Returns the number
// of rows removed.
func (mr *mrel) remove(e *frep.StoreEnumerator, match func(relation.Tuple) bool) int64 {
	// Rows arrive in path order, the order RemoveTuples takes.
	var removed [][]values.Value
	for e.Next() {
		if t := e.Tuple(); match == nil || match(t) {
			removed = append(removed, t.Clone())
		}
	}
	if len(removed) == 0 {
		return 0
	}
	mr.root = frep.RemoveTuples(mr.ov, mr.root, removed)
	mr.deleted += int64(len(removed))
	return int64(len(removed))
}

// upsert replaces rows keyed on the first attribute: per new row, every
// current row whose first attribute compares equal is removed, then the
// row is inserted. Returns rows removed plus rows inserted.
func (mr *mrel) upsert(rows [][]values.Value) (int64, error) {
	arity := len(mr.base.Rel.Attrs)
	var n int64
	for _, r := range rows {
		if len(r) != arity {
			return n, fmt.Errorf("engine: %s: upserting %d values into %d attributes", mr.base.Rel.Name, len(r), arity)
		}
		// The key's rows are the subtree of its value in the root
		// union, if it holds the key.
		vals := mr.ov.Vals(mr.root)
		i := sort.Search(len(vals), func(i int) bool { return values.Compare(vals[i], r[0]) >= 0 })
		if i < len(vals) && values.Compare(vals[i], r[0]) == 0 {
			e := mr.cursor()
			e.Restrict(i, i+1)
			n += mr.remove(e, nil)
		}
		ins, err := mr.insert([][]values.Value{r})
		if err != nil {
			return n, err
		}
		n += ins
	}
	return n, nil
}

// containsTuple walks a linear-path factorisation by binary search per
// level, reporting whether the tuple is represented.
func containsTuple(s *frep.Store, root frep.NodeID, t relation.Tuple) bool {
	node := root
	for d := 0; d < len(t); d++ {
		if node == frep.EmptyNode {
			return false
		}
		vals := s.Vals(node)
		i := sort.Search(len(vals), func(i int) bool {
			return values.Compare(vals[i], t[d]) >= 0
		})
		if i == len(vals) || values.Compare(vals[i], t[d]) != 0 {
			return false
		}
		if d < len(t)-1 {
			node = s.Kid(node, i, 0)
		}
	}
	return true
}

// Stats returns the catalogue's write-path gauges.
func (m *MutableCatalog) Stats() MutableStats {
	m.mu.Lock()
	s := MutableStats{
		Generation: m.gen,
		WALEpoch:   m.epoch,
	}
	for _, mr := range m.rels {
		s.DeltaRows += mr.inserted
		s.TombstoneRows += mr.deleted
	}
	log := m.log
	m.mu.Unlock()
	if log != nil {
		s.WALBytes = log.Size()
		s.WALRecords = log.Records()
		s.WALSyncs = log.Syncs()
	}
	s.InsertRows = m.insertRows.Load()
	s.DeleteRows = m.deleteRows.Load()
	s.UpsertRows = m.upsertRows.Load()
	s.Compactions = m.compactions.Load()
	s.Compacting = m.compacting.Load()
	return s
}

// Close stops background compaction and flushes and closes the WAL.
// Relations from earlier Views stay readable (their memory, bases
// included, is GC-managed), but no further writes are accepted.
func (m *MutableCatalog) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	stop, done := m.stopAuto, m.autoDone
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log != nil {
		return m.log.Close()
	}
	return nil
}

func writeManifest(dir string, man manifest) error {
	b, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	b = append(b, '\n')
	path := filepath.Join(dir, manifestName)
	tmp, err := os.CreateTemp(dir, manifestName+".tmp*")
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(b); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		return fmt.Errorf("engine: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("engine: %w", err)
	}
	return syncDir(dir)
}

func readManifest(dir string) (manifest, error) {
	var man manifest
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return man, fmt.Errorf("engine: %w", err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return man, fmt.Errorf("engine: %s manifest: %w", dir, err)
	}
	if man.Snapshot == "" || filepath.Base(man.Snapshot) != man.Snapshot {
		return man, fmt.Errorf("engine: %s manifest: bad snapshot name %q", dir, man.Snapshot)
	}
	return man, nil
}

// walSegments lists the WAL segment epochs present in dir, ascending.
func walSegments(dir string) ([]uint64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	var epochs []uint64
	for _, p := range matches {
		var e uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%06d.log", &e); err == nil {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("engine: syncing %s: %w", dir, err)
	}
	return nil
}
