// Command skg-query is an interactive query shell over a persisted
// knowledge graph: Cypher-subset statements run against the graph engine
// and stream row by row; lines starting with "/" run keyword search
// over report nodes. Queries are parameterized with $name placeholders
// bound via \set, so hunted values (IOC strings, report titles) are
// never spliced into query text — and every execution of the same
// statement text reuses one cached plan.
//
// -data-dir names the directory the shell opens: one `skg -out` or
// skg-server -data-dir wrote, or a new one. The shell is a durable
// client: CREATE/MERGE/SET/DELETE statements persist across sessions —
// every write is logged before its counts print, and quitting
// checkpoints the store.
//
// Usage:
//
//	skg-query -data-dir ./data
//	> \set ioc wannacry
//	> match (n) where n.name = $ioc return n
//	> merge (m:Malware {name: $ioc}) set m.triaged = "true"
//	> match (m {name: $ioc})-[:CONNECT*1..3]-(x) return x.name
//	> optional match (m:Malware)-[:USE]->(t) with m, collect(t.name) as tools return m.name, tools
//	> explain match (m:Malware)-[*1..2]-(x) return x.name limit 5
//	> begin
//	> set m.reviewed = "true" ... (several statements, then) commit
//	> rollback
//	> \params
//	> /wannacry ransomware
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"securitykg/internal/connector"
	"securitykg/internal/cypher"
	"securitykg/internal/storage"
)

func main() {
	dataDir := flag.String("data-dir", "", "durable data directory (required): writes are WAL-logged and survive across sessions")
	fsyncFlag := flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
	explain := flag.Bool("explain", false, "print the query plan before each result (EXPLAIN <query> also works per statement)")
	flag.Parse()

	if *dataDir == "" {
		log.Fatalf("skg-query: -data-dir is required")
	}
	policy, err := storage.ParseSyncPolicy(*fsyncFlag)
	if err != nil {
		log.Fatalf("skg-query: %v", err)
	}
	db, err := storage.Open(*dataDir, storage.Options{Sync: policy})
	if err != nil {
		log.Fatalf("skg-query: %v", err)
	}
	store := db.Store()
	gs := store.Stats()
	fmt.Printf("skg-query: recovered %d nodes, %d edges from %s (snapshot seq %d, %d WAL records replayed)\n",
		gs.Nodes, gs.Edges, *dataDir, db.Recovered.SnapshotSeq, db.Recovered.Replayed)
	defer func() {
		if err := db.Checkpoint(); err != nil {
			log.Printf("skg-query: checkpoint: %v", err)
		}
		if err := db.Close(); err != nil {
			log.Printf("skg-query: close: %v", err)
		}
	}()
	fmt.Println(`skg-query: enter Cypher (reads and writes, e.g. merge (m:Malware {name: $ioc}) set m.triaged = "true"),`)
	fmt.Println(`  BEGIN / COMMIT / ROLLBACK for multi-statement transactions,`)
	fmt.Println(`  \set name value / \unset name / \params to manage $parameters,`)
	fmt.Println(`  explain <query> for plans, \analyze <query> (or explain analyze <query>) for`)
	fmt.Println(`  profiled execution with per-operator rows and timings, /keyword search, or "quit"`)

	idx := connector.RebuildIndex(store)
	eng := cypher.NewEngine(store, cypher.DefaultOptions())
	params := map[string]any{}
	var tx *cypher.Tx // open multi-statement transaction, if any

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "quit" || line == "exit":
			// An open transaction must not outlive the shell: roll it
			// back so the exit checkpoint can take the writer lock.
			if tx != nil {
				tx.Rollback()
				fmt.Println("(open transaction rolled back)")
			}
			return
		case line == `\analyze` || strings.HasPrefix(line, `\analyze `):
			stmt := strings.TrimSpace(strings.TrimPrefix(line, `\analyze`))
			if stmt == "" {
				fmt.Println(`usage: \analyze <statement>`)
				break
			}
			if tx != nil {
				fmt.Println(`error: \analyze runs as its own statement — COMMIT or ROLLBACK the open transaction first`)
				break
			}
			runAnalyze(eng, stmt, params)
		case strings.HasPrefix(line, `\`):
			runMeta(line, params)
		case strings.HasPrefix(line, "/"):
			hits := idx.Search(strings.TrimPrefix(line, "/"), 10)
			if len(hits) == 0 {
				fmt.Println("no hits")
			}
			for _, h := range hits {
				fmt.Printf("  %8s  score=%.3f\n", h.ID, h.Score)
			}
		default:
			// An inline "explain ..." statement already prints its plan as
			// rows; don't duplicate it under -explain.
			if *explain && !strings.HasPrefix(strings.ToLower(line), "explain") {
				if plan, err := eng.Explain(line); err == nil {
					fmt.Print(plan)
				}
			}
			tx = runStatement(eng, tx, line, params)
			if db != nil {
				if err := db.Err(); err != nil {
					fmt.Printf("WARNING: writes are not durable right now: %v (a checkpoint will re-base once the directory is writable)\n", err)
				}
			}
		}
		fmt.Print("> ")
	}
	if tx != nil {
		tx.Rollback()
	}
}

// runStatement routes BEGIN/COMMIT/ROLLBACK and runs everything else —
// inside the open transaction when there is one (reads then see the
// transaction's snapshot plus its own uncommitted writes), otherwise as
// an autocommit statement. Returns the still-open transaction, if any.
func runStatement(eng *cypher.Engine, tx *cypher.Tx, line string, params map[string]any) *cypher.Tx {
	op, err := cypher.TxOpOf(line)
	if err != nil {
		fmt.Println("error:", err)
		return tx
	}
	switch op {
	case cypher.TxBegin:
		if tx != nil {
			fmt.Println("error: a transaction is already open (COMMIT or ROLLBACK first)")
			return tx
		}
		t, err := eng.Begin()
		if err != nil {
			fmt.Println("error:", err)
			return nil
		}
		fmt.Println("transaction open: writes are invisible to other clients until COMMIT")
		return t
	case cypher.TxCommit:
		if tx == nil {
			fmt.Println("error: no open transaction")
			return nil
		}
		if err := tx.Commit(); err != nil {
			tx.Rollback()
			fmt.Println("error:", err)
		} else {
			fmt.Println("committed")
		}
		return nil
	case cypher.TxRollback:
		if tx == nil {
			fmt.Println("error: no open transaction")
			return nil
		}
		if err := tx.Rollback(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("rolled back")
		}
		return nil
	}
	if tx != nil {
		runQuery(tx, line, params)
		return tx
	}
	runQuery(eng, line, params)
	return nil
}

// rowQuerier is the streaming surface runQuery needs — satisfied by
// both the engine (autocommit) and an open transaction.
type rowQuerier interface {
	QueryRows(src string, args map[string]any) (*cypher.Rows, error)
}

// runQuery streams the statement's rows as the executor produces them,
// so the first match of a long hunt prints immediately.
func runQuery(q rowQuerier, line string, params map[string]any) {
	rows, err := q.QueryRows(line, params)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if cols := rows.Columns(); len(cols) > 0 {
		fmt.Println(strings.Join(cols, " | "))
	}
	n := 0
	err = rows.Drain(func(vals []cypher.Value) error {
		cells := make([]string, len(vals))
		for i, v := range vals {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
		n++
		return nil
	})
	if err != nil {
		fmt.Printf("(%d rows, then error: %v)\n", n, err)
		return
	}
	if ws := rows.Writes(); ws != nil {
		fmt.Printf("(%d rows; %s)\n", n, ws)
		return
	}
	fmt.Printf("(%d rows)\n", n)
}

// runAnalyze executes the statement fully and prints the profiled plan:
// per-operator actual rows, input rows, iterator calls, and wall time
// next to the planner's estimates. The statement's effects (including
// writes) are real — ANALYZE executes, it does not simulate.
func runAnalyze(eng *cypher.Engine, stmt string, params map[string]any) {
	res, plan, err := eng.QueryAnalyze(stmt, params)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(plan)
	if ws := res.Writes; ws != nil {
		fmt.Printf("(%d rows; %s)\n", len(res.Rows), ws)
		return
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

// runMeta handles the backslash commands that manage the shell's
// $parameter bindings. Values parse as number/true/false/null when they
// look like one; everything else (or anything quoted) is a string.
func runMeta(line string, params map[string]any) {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\set`:
		if len(fields) < 3 {
			fmt.Println(`usage: \set name value`)
			return
		}
		params[fields[1]] = parseParamValue(strings.Join(fields[2:], " "))
	case `\unset`:
		if len(fields) != 2 {
			fmt.Println(`usage: \unset name`)
			return
		}
		delete(params, fields[1])
	case `\params`:
		if len(params) == 0 {
			fmt.Println("(no parameters set)")
			return
		}
		names := make([]string, 0, len(params))
		for k := range params {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  $%s = %v\n", k, params[k])
		}
	default:
		fmt.Printf("unknown command %s (try \\set, \\unset, \\params, \\analyze)\n", fields[0])
	}
}

func parseParamValue(s string) any {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') && s[len(s)-1] == s[0] {
		return s[1 : len(s)-1]
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	case "null":
		return nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}
