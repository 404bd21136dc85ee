package engine

// Compaction folds the WAL and the per-relation overlays back into an
// immutable catalogue snapshot, then truncates the log. The state
// machine:
//
//	1. seal    — under the writer lock: fsync and close the active WAL
//	             segment (epoch E), create segment E+1, capture every
//	             relation's current catalogue form (the loaded one if
//	             unwritten, else its publication) and generation. New
//	             writes land in E+1 from here on.
//	2. rewrite — without the lock: write the captured relations as
//	             snap-E via the snapshot path's temp + fsync + rename.
//	             Nothing is re-sorted: each form already is what
//	             catalog.Build would store.
//	3. commit  — atomically replace MANIFEST to point at snap-E with
//	             epoch E. This is the linearisation point: replay now
//	             starts from snap-E and applies only segments > E.
//	4. gc      — delete segments ≤ E and superseded snapshots.
//	5. rebase  — under the lock: every relation written before the
//	             capture and not since takes its publication, already
//	             registered, as its base and swaps its overlay for a
//	             fresh one over it (write counters zeroed, generation
//	             reset). Relations written during the rewrite keep their
//	             overlays — their new writes are safely in segment E+1
//	             and the next compaction picks them up.
//
// Crashing (or cancelling) anywhere before step 3 leaves the previous
// manifest authoritative; both the sealed and the new segment replay on
// top of the old snapshot, so no acknowledged write is lost and the
// recovered state is byte-identical.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/wal"
)

// ErrCompactionRunning is returned by Compact when another compaction is
// already in flight.
var ErrCompactionRunning = errors.New("engine: compaction already running")

// Compact folds the current state into a fresh snapshot and truncates
// the WAL. Writers are blocked only for the seal and rebase steps (two
// short critical sections); readers never block. On context
// cancellation the catalogue stays fully consistent: the sealed segment
// simply remains part of the replay set until the next compaction.
func (m *MutableCatalog) Compact(ctx context.Context) error {
	if !m.compacting.CompareAndSwap(false, true) {
		return ErrCompactionRunning
	}
	defer m.compacting.Store(false)

	// Step 1: seal. The old segment is fully durable (Close fsyncs)
	// before the first append to the new one, so sealed segments never
	// have torn tails that matter.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrMutableClosed
	}
	sealed := m.epoch
	sealedPath := filepath.Join(m.dir, fmt.Sprintf(walPattern, sealed))
	if err := m.log.Close(); err != nil {
		m.mu.Unlock()
		return fmt.Errorf("engine: sealing %s: %w", sealedPath, err)
	}
	next, err := wal.Create(filepath.Join(m.dir, fmt.Sprintf(walPattern, sealed+1)))
	if err != nil {
		// Reopen the sealed segment so the catalogue stays writable; its
		// records are already applied, so no replay handler is needed.
		reopened, rerr := wal.Open(sealedPath, nil)
		if rerr != nil {
			m.mu.Unlock()
			return fmt.Errorf("engine: compaction failed (%v) and WAL reopen failed: %w", err, rerr)
		}
		m.log = reopened
		m.mu.Unlock()
		return fmt.Errorf("engine: creating segment %d: %w", sealed+1, err)
	}
	m.log = next
	m.epoch = sealed + 1
	cat := &catalog.Catalog{Name: m.name}
	gens := make(map[string]uint64, len(m.rels))
	for name, mr := range m.rels {
		cat.Relations = append(cat.Relations, mr.current())
		gens[name] = mr.gen
	}
	m.mu.Unlock()
	// The catalogue's canonical relation order, as catalog.Build sorts.
	slices.SortFunc(cat.Relations, func(a, b *catalog.Relation) int {
		return strings.Compare(a.Rel.Name, b.Rel.Name)
	})

	// Step 2: rewrite.
	if err := ctx.Err(); err != nil {
		return err
	}
	snap := fmt.Sprintf(snapPattern, sealed)
	if err := catalog.WriteFile(filepath.Join(m.dir, snap), cat); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		os.Remove(filepath.Join(m.dir, snap))
		return err
	}

	// Step 3: commit.
	if err := writeManifest(m.dir, manifest{Name: m.name, Snapshot: snap, Epoch: sealed}); err != nil {
		return err
	}

	// Step 4: gc. Best effort — leftovers are cleaned on the next open
	// or compaction.
	if epochs, err := walSegments(m.dir); err == nil {
		for _, e := range epochs {
			if e <= sealed {
				os.Remove(filepath.Join(m.dir, fmt.Sprintf(walPattern, e)))
			}
		}
	}
	if snaps, err := filepath.Glob(filepath.Join(m.dir, "snap-*.fdbcat")); err == nil {
		for _, p := range snaps {
			if filepath.Base(p) != snap {
				os.Remove(p)
			}
		}
	}

	// Step 5: rebase.
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, mr := range m.rels {
		if mr.gen == 0 || mr.gen != gens[name] {
			continue // unmutated, or written during the rewrite
		}
		// The publication is what snap-E holds for the relation and is
		// already registered.
		mr.base, mr.pub, mr.pubGen = mr.pub, nil, 0
		mr.ov = mr.base.Fact.Store.Overlay()
		mr.root = mr.base.Fact.Root
		mr.inserted, mr.deleted = 0, 0
		mr.gen = 0
	}
	m.gen++
	m.genA.Store(m.gen)
	m.compactions.Add(1)
	return nil
}

// AutoCompactConfig tunes the background compactor. Zero thresholds are
// ignored; a compaction triggers when any configured threshold is
// exceeded at a check interval.
type AutoCompactConfig struct {
	// Interval between threshold checks (default 10s).
	Interval time.Duration
	// MaxWALBytes triggers a compaction when the active segment exceeds
	// this size.
	MaxWALBytes int64
}

// StartAutoCompact launches the background compactor; it stops when the
// catalogue is closed. Calling it more than once is an error.
func (m *MutableCatalog) StartAutoCompact(cfg AutoCompactConfig) error {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrMutableClosed
	}
	if m.stopAuto != nil {
		m.mu.Unlock()
		return errors.New("engine: auto-compaction already started")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stopAuto, m.autoDone = stop, done
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if m.shouldCompact(cfg) {
				// Losing the race with a manual Compact is fine.
				if err := m.Compact(context.Background()); err != nil &&
					!errors.Is(err, ErrCompactionRunning) && !errors.Is(err, ErrMutableClosed) {
					// Thresholds remain exceeded; the next tick retries.
					continue
				}
			}
		}
	}()
	return nil
}

func (m *MutableCatalog) shouldCompact(cfg AutoCompactConfig) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed && cfg.MaxWALBytes > 0 && m.log.Size() > cfg.MaxWALBytes
}
