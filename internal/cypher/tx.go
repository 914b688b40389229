package cypher

import (
	"fmt"
	"strings"

	"securitykg/internal/graph"
)

// This file scopes statement execution onto the store's MVCC layer
// (internal/graph/mvcc.go) and exposes explicit multi-statement
// transactions.
//
// Every statement executes against a consistent view taken when its
// cursor opens:
//
//   - A read statement pins a Snap; long streaming reads never observe
//     concurrent commits, and never block writers.
//   - A write statement opens an implicit graph.Tx: its reads see the
//     transaction's snapshot, its writes buffer in the transaction, and
//     a drain to the end commits (or, on any error — a stopped drain's
//     included — rolls back: the whole statement is atomic, including
//     its WAL group).
//   - Engine.Begin opens an explicit transaction: a scoped engine whose
//     statements all run against one graph.Tx until Commit/Rollback. A
//     failed statement aborts the transaction wholesale.
//
// BEGIN / COMMIT / ROLLBACK parse as TxOp statements and are run by a
// session owner through Tx.QueryRows (the shell, the HTTP session
// route); the Engine's entry points reject them with errTxControl.

// errTxControl is returned when BEGIN/COMMIT/ROLLBACK reaches a plain
// query entry point; transaction control belongs to a session.
var errTxControl = fmt.Errorf("cypher: BEGIN/COMMIT/ROLLBACK are transaction-control statements — run them through Engine.Begin / a transaction session, not Query")

// beginScope opens the execution scope for one statement and returns
// the engine the statement runs on plus a finish hook the caller must
// invoke exactly once with the statement's final error:
//
//   - pinned engine (explicit transaction): the statement runs on the
//     transaction's view as-is; finish reports an error to the
//     transaction's abort hook (poisoning it) but neither commits nor
//     releases anything.
//   - write statement: an implicit graph.Tx; finish(nil) commits,
//     finish(err) rolls back. The whole statement — an UNWIND batch of
//     any size included — lands as one WAL tx group.
//   - read statement: a pinned Snap; finish releases it.
func (e *Engine) beginScope(writes bool) (*Engine, func(error) error, error) {
	if e.pinned {
		fail := e.failTx
		return e, func(err error) error {
			if err != nil && fail != nil {
				fail(err)
			}
			return err
		}, nil
	}
	if writes {
		gtx := e.store.BeginTx()
		ex := *e
		ex.view, ex.w = gtx.Snap(), gtx
		finish := func(err error) error {
			if err != nil {
				gtx.Rollback()
				return err
			}
			return gtx.Commit()
		}
		return &ex, finish, nil
	}
	snap := e.store.Snapshot()
	ex := *e
	ex.view = snap
	finish := func(err error) error {
		snap.Release()
		return err
	}
	return &ex, finish, nil
}

// Tx is an explicit multi-statement transaction over one engine: every
// statement run through it sees one consistent snapshot plus the
// transaction's own writes, and nothing is visible to other sessions
// (or the WAL) until Commit. A statement error aborts the transaction —
// its writes are rolled back immediately, subsequent statements fail,
// and only Rollback ends it cleanly.
type Tx struct {
	e    *Engine
	gtx  *graph.Tx
	done bool
	err  error // abort cause; non-nil after a failed statement
}

// Begin opens an explicit transaction. The engine itself stays usable
// for other (autocommit) statements; writes on them will block until
// this transaction commits or rolls back once it has written (the store
// is single-writer).
func (e *Engine) Begin() (*Tx, error) {
	if e.pinned {
		return nil, fmt.Errorf("cypher: nested BEGIN — a transaction is already open")
	}
	t := &Tx{gtx: e.store.BeginTx()}
	ex := *e
	ex.pinned = true
	ex.view, ex.w = t.gtx.Snap(), t.gtx
	ex.failTx = t.abort
	t.e = &ex
	return t, nil
}

// abort poisons the transaction after a failed statement: its writes
// are rolled back now, and everything but Rollback errors from here on.
func (t *Tx) abort(err error) {
	if t.done || t.err != nil {
		return
	}
	t.err = err
	t.gtx.Rollback()
}

// state gates a new statement on the transaction still being live.
func (t *Tx) state() error {
	if t.done {
		return fmt.Errorf("cypher: transaction already finished")
	}
	if t.err != nil {
		return fmt.Errorf("cypher: transaction aborted by earlier error: %w — ROLLBACK to end it", t.err)
	}
	return nil
}

// Query executes one statement inside the transaction, materialized.
// COMMIT and ROLLBACK statements finish the transaction; BEGIN errors
// (no nesting).
func (t *Tx) Query(src string, args map[string]any) (*Result, error) {
	rows, err := t.QueryRows(src, args)
	if err != nil {
		return nil, err
	}
	return materialize(rows)
}

// QueryRows executes one statement inside the transaction as a cursor.
// COMMIT and ROLLBACK finish the transaction and return an empty
// exhausted cursor; BEGIN errors (no nesting).
func (t *Tx) QueryRows(src string, args map[string]any) (*Rows, error) {
	op, err := TxOpOf(src)
	if err != nil {
		return nil, err
	}
	switch op {
	case TxBegin:
		return nil, fmt.Errorf("cypher: nested BEGIN — a transaction is already open")
	case TxCommit:
		if err := t.Commit(); err != nil {
			return nil, err
		}
		return rowsFromResult(&Result{}), nil
	case TxRollback:
		if err := t.Rollback(); err != nil {
			return nil, err
		}
		return rowsFromResult(&Result{}), nil
	}
	if err := t.state(); err != nil {
		return nil, err
	}
	return t.e.QueryRows(src, args)
}

// Done reports whether the transaction has finished (committed or
// rolled back). An aborted transaction is not done until Rollback.
func (t *Tx) Done() bool { return t.done }

// Commit makes the transaction's writes visible and durable (the WAL
// group lands here). Committing an aborted transaction errors; the
// writes are already gone.
func (t *Tx) Commit() error {
	if err := t.state(); err != nil {
		return err
	}
	t.done = true
	return t.gtx.Commit()
}

// Rollback discards the transaction's writes. Safe (and the only clean
// end) after an abort; errors only if already finished.
func (t *Tx) Rollback() error {
	if t.done {
		return fmt.Errorf("cypher: transaction already finished")
	}
	t.done = true
	if t.err != nil {
		return nil // aborted: the store tx is already rolled back
	}
	return t.gtx.Rollback()
}

// TxOpOf classifies a statement as transaction control (BEGIN / COMMIT /
// ROLLBACK) without planning it, so session owners can route before
// execution. Statements whose first word is not a transaction keyword
// return TxNone with no parse; ones that are get fully parsed, so
// malformed control statements ("BEGIN MATCH ...") error here.
func TxOpOf(src string) (TxOp, error) {
	switch firstWord(src) {
	case "begin", "commit", "rollback":
		q, err := Parse(src)
		if err != nil {
			return TxNone, err
		}
		return q.TxOp, nil
	}
	return TxNone, nil
}

// firstWord returns the statement's leading identifier, lowercased.
func firstWord(src string) string {
	s := strings.TrimSpace(src)
	end := 0
	for end < len(s) {
		c := s[end]
		if (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') {
			break
		}
		end++
	}
	return strings.ToLower(s[:end])
}
