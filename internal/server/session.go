package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"securitykg/internal/cypher"
)

// Transaction sessions: a BEGIN statement on /api/cypher opens an
// explicit multi-statement transaction and returns an opaque token;
// subsequent requests carrying {"tx": token} run inside it until COMMIT
// or ROLLBACK. Sessions idle past txSessionIdle are rolled back and
// reaped (a client that went away must not hold the store's writer lock
// forever), and at most txSessionMax may be open at once.

const (
	txSessionIdle = 5 * time.Minute
	txSessionMax  = 32
)

// txSession is one open transaction bound to a token. mu serializes
// requests on the same token (a cypher.Tx is single-goroutine).
type txSession struct {
	mu   sync.Mutex
	tx   *cypher.Tx
	last time.Time
}

// beginTxSession opens a transaction and registers it under a fresh
// random token.
func (s *Server) beginTxSession() (string, error) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	s.sweepTxLocked(time.Now())
	if len(s.txs) >= txSessionMax {
		return "", fmt.Errorf("too many open transactions (%d); COMMIT or ROLLBACK one first", len(s.txs))
	}
	tx, err := s.eng.Begin()
	if err != nil {
		return "", err
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		tx.Rollback()
		return "", err
	}
	token := hex.EncodeToString(buf[:])
	if s.txs == nil {
		s.txs = map[string]*txSession{}
	}
	s.txs[token] = &txSession{tx: tx, last: time.Now()}
	return token, nil
}

// lookupTx resolves a token (sweeping expired sessions on the way).
func (s *Server) lookupTx(token string) *txSession {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	s.sweepTxLocked(time.Now())
	return s.txs[token]
}

// dropTx removes a finished session.
func (s *Server) dropTx(token string) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	delete(s.txs, token)
}

// sweepTxLocked rolls back and reaps sessions idle past txSessionIdle.
// A session currently executing a request (mu held) is skipped — its
// last-use time refreshes when the request finishes.
//
// The TryLock comes FIRST: sess.last is written by the request path
// under sess.mu (not txMu), so judging idleness before acquiring
// sess.mu is a data race — and a session whose statement is still
// executing (a long streaming drain included) could be reaped off a
// stale timestamp it was about to refresh. Busy is never idle, however
// old the last-use time reads.
func (s *Server) sweepTxLocked(now time.Time) {
	for token, sess := range s.txs {
		if !sess.mu.TryLock() {
			continue // a statement is executing right now
		}
		if now.Sub(sess.last) < txSessionIdle {
			sess.mu.Unlock()
			continue
		}
		sess.tx.Rollback() // aborted/finished rollbacks are no-ops or errors we don't care about
		sess.mu.Unlock()
		delete(s.txs, token)
	}
}
