// Package driver provides a database/sql driver for the FDB factorised
// query engine, registered under the name "fdb". It serves an
// in-process catalogue: the data lives in this process's memory as
// fdb.Relations, and queries execute on the factorised representation
// and stream through the engine's constant-delay cursors — rows are
// produced one at a time off the factorisation, never buffered.
//
// There are three DSN/opening forms:
//
//	// 1. Register a named catalogue, then open by that name as the DSN.
//	driver.Register("shop", fdb.Database{"Orders": orders, ...})
//	db, err := sql.Open("fdb", "shop")
//
//	// 2. A "file:" DSN loads a catalogue snapshot from disk once per
//	// sql.Open — schema, tuples and prebuilt factorisations, no
//	// registration needed; the snapshot is released when db closes.
//	db, err := sql.Open("fdb", "file:/var/lib/fdb/shop.fdbcat")
//
//	// 3. Wrap a catalogue in a Connector (no global state at all).
//	db := sql.OpenDB(driver.NewConnector(fdb.Database{...}))
//
// The catalogue's relations must not be modified once a query has read
// them: each is factorised once per path order, on first use, and
// shared by every connection. Statements are the engine's SELECT
// subset — joins, filters, aggregates, GROUP BY, HAVING, ORDER BY,
// LIMIT and OFFSET; placeholder parameters are not supported.
// Registered catalogues are read-only: ExecContext and transactions
// return errors.
//
// To write, serve a mutable catalogue (fdb.OpenMutable) instead:
//
//	mut, _ := fdb.OpenMutable("/var/lib/fdb/shop")
//	driver.RegisterMutable("shop", mut)      // or driver.NewMutableConnector(mut)
//	db, _ := sql.Open("fdb", "shop")
//	res, _ := db.ExecContext(ctx, `INSERT INTO Orders VALUES (5, 'capri', 20)`)
//	n, _ := res.RowsAffected()
//
// ExecContext accepts INSERT INTO ... VALUES, DELETE FROM ... WHERE and
// UPSERT INTO ... VALUES; it returns once the statement's WAL record is
// group-committed, and RowsAffected reports the rows actually changed.
// Queries on the same handle always see the catalogue's latest published
// view: every write publishes new relations, each carrying its own
// factorisations.
//
// Plans are cached per catalogue in an LRU keyed by the normalised
// statement text, so repeated statements skip parsing and optimisation
// — the same split that backs fdbserver. QueryContext honours its
// context throughout: cancelling stops planning, execution and row
// streaming promptly.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/server/cache"
	fdbsql "github.com/factordb/fdb/internal/sql"
)

func init() {
	sql.Register("fdb", Driver{})
}

// planCacheSize bounds the per-catalogue LRU of prepared plans.
const planCacheSize = 256

// registry holds the named catalogues that sql.Open("fdb", name)
// resolves against.
var registry sync.Map // name → *catalog

// Register makes a catalogue available to sql.Open("fdb", name),
// replacing any previous catalogue under the same name. Its relations
// must not be modified once a query has read them.
func Register(name string, db fdb.Database) {
	registry.Store(name, newCatalog(db))
}

// RegisterMutable makes a writable mutable catalogue available to
// sql.Open("fdb", name): queries run against its current view and
// ExecContext applies DML durably. The caller keeps ownership of the
// catalogue (close it after the sql.DB).
func RegisterMutable(name string, mut *fdb.MutableCatalog) {
	registry.Store(name, newMutableCatalog(mut))
}

// Unregister removes a named catalogue. Open databases keep their
// catalogue; only future Opens are affected.
func Unregister(name string) { registry.Delete(name) }

// catalog is one served database: the relations (static, or a mutable
// catalogue's live view), a shared engine, and the plan cache keyed by
// normalised SQL.
type catalog struct {
	db    fdb.Database
	mut   *fdb.MutableCatalog
	eng   *fdb.Engine
	plans *cache.LRU
}

func newCatalog(db fdb.Database) *catalog {
	return &catalog{db: db, eng: fdb.NewEngine(), plans: cache.New(planCacheSize)}
}

func newMutableCatalog(mut *fdb.MutableCatalog) *catalog {
	return &catalog{mut: mut, eng: fdb.NewEngine(), plans: cache.New(planCacheSize)}
}

// data returns the relations to query: the static map, or the mutable
// catalogue's current view.
func (c *catalog) data() fdb.Database {
	if c.mut != nil {
		return c.mut.View()
	}
	return c.db
}

// prepared returns the cached plan for the statement, compiling it on a
// miss. Concurrent misses may both compile; the results are
// interchangeable and the last Put wins.
func (c *catalog) prepared(ctx context.Context, text string) (*fdb.PreparedQuery, error) {
	key := fdbsql.Normalize(text)
	if v, ok := c.plans.Get(key); ok {
		return v.(*fdb.PreparedQuery), nil
	}
	q, err := fdb.ParseSQL(text)
	if err != nil {
		return nil, err
	}
	p, err := c.eng.PrepareContext(ctx, q, c.data())
	if err != nil {
		return nil, err
	}
	c.plans.Put(key, p)
	return p, nil
}

// query executes one statement and wraps the streaming result.
func (c *catalog) query(ctx context.Context, text string) (*rows, error) {
	p, err := c.prepared(ctx, text)
	if err != nil {
		return nil, err
	}
	res, err := p.ExecContext(ctx, c.data())
	if err != nil {
		return nil, err
	}
	rs, err := res.Rows(ctx)
	if err != nil {
		res.Close()
		return nil, err
	}
	return &rows{res: res, rs: rs}, nil
}

// exec applies one DML statement, returning the database/sql result
// once the write is durable.
func (c *catalog) exec(ctx context.Context, text string) (driver.Result, error) {
	if c.mut == nil {
		return nil, errors.New("fdb driver: Exec is not supported on a read-only catalogue; use Query (or RegisterMutable)")
	}
	stmt, err := fdb.ParseStatement(text)
	if err != nil {
		return nil, err
	}
	mut, ok := stmt.(*fdb.Mutation)
	if !ok {
		return nil, errors.New("fdb driver: Exec of a SELECT; use Query")
	}
	n, err := c.mut.Apply(ctx, mut)
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(n), nil
}

// Driver implements database/sql/driver.Driver and DriverContext over
// registered catalogues. The DSN is a catalogue name, or — with a
// "file:" prefix — the path of a catalogue snapshot written by
// fdb.SaveCatalogFile (or fdbserver's /snapshot endpoint):
//
//	db, err := sql.Open("fdb", "file:/var/lib/fdb/shop.fdbcat")
//
// A file DSN loads the snapshot once per sql.Open: schema, tuples and
// prebuilt factorisations come straight off the snapshot's slabs, so
// opening is contiguous reads, not CSV parsing and re-sorting. The
// loaded catalogue lives for the life of the sql.DB; closing the DB
// releases it.
type Driver struct{}

// filePrefix marks a DSN that names a catalogue snapshot on disk.
const filePrefix = "file:"

// Open implements driver.Driver.
func (d Driver) Open(dsn string) (driver.Conn, error) {
	cn, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return cn.Connect(context.Background())
}

// OpenConnector implements driver.DriverContext.
func (Driver) OpenConnector(dsn string) (driver.Connector, error) {
	if path, ok := strings.CutPrefix(dsn, filePrefix); ok {
		loaded, err := fdb.LoadCatalogFile(path, false)
		if err != nil {
			return nil, fmt.Errorf("fdb driver: %w", err)
		}
		return &connector{cat: newCatalog(loaded.DB), loaded: loaded}, nil
	}
	v, ok := registry.Load(dsn)
	if !ok {
		return nil, fmt.Errorf("fdb driver: no catalogue registered under %q (call driver.Register, or use a %q DSN)", dsn, filePrefix+"<path>")
	}
	return &connector{cat: v.(*catalog)}, nil
}

// NewConnector wraps an in-process catalogue as a driver.Connector for
// sql.OpenDB, bypassing the name registry. Each Connector has its own
// engine and plan cache; the relations must not be modified once a
// query has read them.
func NewConnector(db fdb.Database) driver.Connector {
	return &connector{cat: newCatalog(db)}
}

// NewMutableConnector wraps a writable mutable catalogue as a
// driver.Connector for sql.OpenDB: queries see its current view and
// ExecContext applies DML durably. The caller keeps ownership of the
// catalogue (close it after the sql.DB).
func NewMutableConnector(mut *fdb.MutableCatalog) driver.Connector {
	return &connector{cat: newMutableCatalog(mut)}
}

type connector struct {
	cat *catalog
	// loaded is the snapshot behind a "file:" DSN, nil otherwise; the
	// connector owns it and sql.DB.Close releases it through Close.
	loaded *fdb.Catalog
}

// Connect implements driver.Connector. Connections are stateless
// handles onto the shared catalogue, so this never blocks.
func (c *connector) Connect(context.Context) (driver.Conn, error) {
	return &conn{cat: c.cat}, nil
}

// Driver implements driver.Connector.
func (c *connector) Driver() driver.Driver { return Driver{} }

// Close implements io.Closer: database/sql calls it from sql.DB.Close,
// releasing a snapshot loaded through a "file:" DSN.
func (c *connector) Close() error {
	if c.loaded == nil {
		return nil
	}
	return c.loaded.Close()
}

// conn is one database/sql connection: a stateless view of the
// catalogue (all state lives in the catalogue and in open result
// cursors).
type conn struct {
	cat *catalog
}

var (
	_ driver.QueryerContext     = (*conn)(nil)
	_ driver.ExecerContext      = (*conn)(nil)
	_ driver.ConnPrepareContext = (*conn)(nil)
)

// Prepare implements driver.Conn.
func (c *conn) Prepare(text string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), text)
}

// PrepareContext compiles (or fetches from the plan cache) the
// statement's f-plan eagerly, so a prepared statement surfaces parse
// and planning errors at Prepare time and its executions skip both.
// DML statements (INSERT / DELETE / UPSERT) are parse-checked here and
// executed through Stmt.Exec.
func (c *conn) PrepareContext(ctx context.Context, text string) (driver.Stmt, error) {
	parsed, err := fdb.ParseStatement(text)
	if err != nil {
		return nil, err
	}
	if _, dml := parsed.(*fdb.Mutation); dml {
		if c.cat.mut == nil {
			return nil, errors.New("fdb driver: Exec is not supported on a read-only catalogue; use Query (or RegisterMutable)")
		}
		return &stmt{cat: c.cat, text: text, dml: true}, nil
	}
	if _, err := c.cat.prepared(ctx, text); err != nil {
		return nil, err
	}
	return &stmt{cat: c.cat, text: text}, nil
}

// Close implements driver.Conn (stateless; nothing to release).
func (c *conn) Close() error { return nil }

// Begin implements driver.Conn. Each DML statement commits on its own
// (through the WAL's group commit); multi-statement transactions are
// not supported.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, errors.New("fdb driver: transactions are not supported (each statement commits on its own)")
}

// QueryContext implements driver.QueryerContext: the fast path
// database/sql uses for un-prepared queries.
func (c *conn) QueryContext(ctx context.Context, text string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("fdb driver: placeholder parameters are not supported")
	}
	return c.cat.query(ctx, text)
}

// ExecContext implements driver.ExecerContext: DML against a mutable
// catalogue, acknowledged after the WAL commit.
func (c *conn) ExecContext(ctx context.Context, text string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, errors.New("fdb driver: placeholder parameters are not supported")
	}
	return c.cat.exec(ctx, text)
}

// stmt is a prepared statement: a SELECT whose plan sits in the
// catalogue's cache, or a parse-checked DML statement.
type stmt struct {
	cat  *catalog
	text string
	dml  bool
}

var (
	_ driver.StmtQueryContext = (*stmt)(nil)
	_ driver.StmtExecContext  = (*stmt)(nil)
)

// Close implements driver.Stmt (the cached plan stays for other users).
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt: no placeholder support.
func (s *stmt) NumInput() int { return 0 }

// Exec implements driver.Stmt.
func (s *stmt) Exec([]driver.Value) (driver.Result, error) {
	if !s.dml {
		return nil, errors.New("fdb driver: Exec of a SELECT; use Query")
	}
	return s.cat.exec(context.Background(), s.text)
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, errors.New("fdb driver: placeholder parameters are not supported")
	}
	if !s.dml {
		return nil, errors.New("fdb driver: Exec of a SELECT; use Query")
	}
	return s.cat.exec(ctx, s.text)
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("fdb driver: placeholder parameters are not supported")
	}
	if s.dml {
		return nil, errors.New("fdb driver: Query of a DML statement; use Exec")
	}
	return s.cat.query(context.Background(), s.text)
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("fdb driver: placeholder parameters are not supported")
	}
	if s.dml {
		return nil, errors.New("fdb driver: Query of a DML statement; use Exec")
	}
	return s.cat.query(ctx, s.text)
}

// rows adapts the engine's streaming cursor to driver.Rows. It owns the
// underlying Result: Close recycles the query's pooled arena store.
type rows struct {
	res *fdb.Result
	rs  *fdb.Rows
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.rs.Columns() }

// Close implements driver.Rows, releasing the cursor and recycling the
// result's pooled store. It is idempotent.
func (r *rows) Close() error {
	err := r.rs.Close()
	r.res.Close()
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// Next implements driver.Rows: one constant-delay enumerator step per
// row, converted to driver values.
func (r *rows) Next(dest []driver.Value) error {
	if !r.rs.Next() {
		if err := r.rs.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	t := r.rs.Tuple()
	for i, v := range t {
		switch gv := fdb.GoValue(v).(type) {
		case []any:
			// Composite aggregate vectors render as text; they only
			// surface when a query exposes a raw (sum, count) pair.
			dest[i] = v.String()
		default:
			dest[i] = gv
		}
	}
	return nil
}
