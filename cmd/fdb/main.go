// Command fdb is an interactive SQL shell over CSV data, evaluating
// queries with the factorised-database engine (and optionally comparing
// against the relational baseline).
//
// Usage:
//
//	fdb -data ./data            # loads every *.csv as a relation
//	fdb -data ./data -check     # cross-checks each query against RDB
//
// Every *.csv file in the data directory becomes a relation named after
// the file (header row = attribute names). Statements are read from
// stdin, one per line:
//
//	SELECT customer, SUM(price) AS revenue FROM Orders, Packages, Items
//	  WHERE package = package2 AND item = item2
//	  GROUP BY customer ORDER BY revenue DESC LIMIT 10;
//
//	EXPLAIN SELECT ...;         -- show the f-plan and result f-tree
//	.materialize V SELECT ...;  -- store a factorised view named V
//	.save V view.fdb            -- serialise a view to disk
//	.load V view.fdb            -- load a serialised view
//	.views                      -- list materialised views
//
// A query whose FROM clause names a single materialised view runs
// directly on the factorisation (the paper's read-optimised scenario).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
)

type shell struct {
	db      fdb.Database
	views   map[string]*fdb.Factorisation
	engine  *fdb.Engine
	check   bool
	maxRows int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdb: ")
	dataDir := flag.String("data", ".", "directory of *.csv relations")
	check := flag.Bool("check", false, "cross-check every result against the relational baseline")
	maxRows := flag.Int("rows", 20, "max rows to print per result")
	flag.Parse()

	db, err := loadDir(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	sh := &shell{
		db:      db,
		views:   map[string]*fdb.Factorisation{},
		engine:  fdb.NewEngine(),
		check:   *check,
		maxRows: *maxRows,
	}
	names := make([]string, 0, len(db))
	for n, r := range db {
		names = append(names, fmt.Sprintf("%s(%s)[%d]", n, strings.Join(r.Attrs, ","), r.Cardinality()))
	}
	fmt.Printf("loaded: %s\n", strings.Join(names, "  "))
	fmt.Println(`enter SQL, "EXPLAIN <sql>", or ".help"; Ctrl-D to quit`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("fdb> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sc.Text()), ";"))
		if line == "" {
			continue
		}
		if err := sh.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func (sh *shell) exec(line string) error {
	switch {
	case line == ".help":
		fmt.Println("SQL | EXPLAIN <sql> | .materialize <name> <sql> | .save <name> <file> | .load <name> <file> | .views")
		return nil
	case line == ".views":
		for name, v := range sh.views {
			fmt.Printf("%s: %d singletons, f-tree:\n%s", name, v.Singletons(), v.Tree)
		}
		return nil
	case strings.HasPrefix(line, ".materialize "):
		rest := strings.TrimPrefix(line, ".materialize ")
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 {
			return fmt.Errorf("usage: .materialize <name> <sql>")
		}
		q, err := fdb.ParseSQL(parts[1])
		if err != nil {
			return err
		}
		view, err := fdb.MaterialiseView(sh.engine, q, sh.db)
		if err != nil {
			return err
		}
		sh.views[parts[0]] = view
		fmt.Printf("view %s materialised: %d singletons\n", parts[0], view.Singletons())
		return nil
	case strings.HasPrefix(line, ".save "):
		var name, file string
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, ".save "), "%s %s", &name, &file); err != nil {
			return fmt.Errorf("usage: .save <name> <file>")
		}
		v, ok := sh.views[name]
		if !ok {
			return fmt.Errorf("no view %q", name)
		}
		fh, err := os.Create(file)
		if err != nil {
			return err
		}
		if err := errors.Join(fdb.WriteView(fh, v), fh.Close()); err != nil {
			return err
		}
		fmt.Printf("saved %s to %s\n", name, file)
		return nil
	case strings.HasPrefix(line, ".load "):
		var name, file string
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, ".load "), "%s %s", &name, &file); err != nil {
			return fmt.Errorf("usage: .load <name> <file>")
		}
		fh, err := os.Open(file)
		if err != nil {
			return err
		}
		defer fh.Close()
		v, err := fdb.ReadView(fh)
		if err != nil {
			return err
		}
		sh.views[name] = v
		fmt.Printf("loaded %s from %s (%d singletons)\n", name, file, v.Singletons())
		return nil
	case strings.HasPrefix(strings.ToUpper(line), "EXPLAIN "):
		res, _, err := sh.run(line[len("EXPLAIN "):])
		if err != nil {
			return err
		}
		defer res.Close()
		fmt.Print(res.Explain())
		return nil
	default:
		start := time.Now()
		res, q, err := sh.run(line)
		if err != nil {
			return err
		}
		defer res.Close()
		rel, err := res.Relation()
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		printRelation(rel, q.OutputAttrs(), sh.maxRows)
		fmt.Printf("%d rows in %v (factorised result: %d singletons)\n",
			rel.Cardinality(), elapsed, res.Singletons())
		if sh.check {
			sh.crossCheck(q, rel)
		}
		return nil
	}
}

// run parses and evaluates a query, against a materialised view when the
// FROM clause names exactly one.
func (sh *shell) run(sqlText string) (*fdb.Result, *fdb.Query, error) {
	q, err := fdb.ParseSQL(sqlText)
	if err != nil {
		return nil, nil, err
	}
	if len(q.Relations) == 1 {
		if v, ok := sh.views[q.Relations[0]]; ok {
			res, err := sh.engine.RunOnView(q, v, nil)
			return res, q, err
		}
	}
	res, err := sh.engine.Run(q, sh.db)
	return res, q, err
}

func (sh *shell) crossCheck(q *fdb.Query, rel *fdb.Relation) {
	if len(q.Relations) == 1 {
		if _, isView := sh.views[q.Relations[0]]; isView {
			fmt.Println("check: skipped (query ran on a materialised view)")
			return
		}
	}
	ref, err := rdb.New().Run(q, rdb.DB(sh.db))
	if err != nil {
		fmt.Println("check error:", err)
		return
	}
	if relation.EqualAsSets(rel, ref) {
		fmt.Println("check: OK (matches relational baseline)")
	} else {
		fmt.Printf("check: MISMATCH (baseline has %d rows)\n", ref.Cardinality())
	}
}

func loadDir(dir string) (fdb.Database, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no *.csv files in %s", dir)
	}
	db := fdb.Database{}
	for _, path := range matches {
		name := strings.TrimSuffix(filepath.Base(path), ".csv")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rel, err := fdb.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		db[name] = rel
	}
	return db, nil
}

func printRelation(rel *fdb.Relation, attrs []string, maxRows int) {
	if len(attrs) == 0 {
		attrs = rel.Attrs
	}
	fmt.Println(strings.Join(attrs, "\t"))
	for i, t := range rel.Tuples {
		if i >= maxRows {
			fmt.Printf("… %d more rows\n", rel.Cardinality()-maxRows)
			return
		}
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
}
