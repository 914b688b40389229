package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"securitykg/internal/graph"
)

// This file is the record codec and the one group fold. A record's
// payload is the same bytes everywhere: in a WAL frame (wal.go), in the
// replication tail and on the wire (tail.go), where a run of records is
// `uvarint len · payload` each. Recovery and a follower both cut such runs
// into atomic units (NextUnit) and decode and apply each unit once
// (UnitApplier).

// Codec is an inert one-value stub held for bench/corpus.go, which names
// Options.Codec and CodecBinary; a [benchmark] PR drops all three.
type Codec int

// CodecBinary is the only on-disk format there is.
const CodecBinary Codec = 0

// walMagic opens a log file.
const walMagic = "skgwal3\n"

// Binary record payload layout (inside the standard length+CRC frame):
//
//	seq    uvarint
//	op     1 byte (opcode table below)
//	fields per op, in order, from:
//	  id      uvarint (node/edge IDs; non-negative by construction)
//	  string  uvarint len + raw bytes (names, attr values)
//	  symbol  uvarint 0, then a string (types, attr keys)
//	  attrs   uvarint count, then count × (symbol key · string val),
//	          sorted by key so identical mutations encode identically
//
// A symbol's leading 0 is where a skgwal2 log could instead refer (n>0)
// to a string of its in-band dictionary; such a reference does not
// decode.

const (
	opMergeNode byte = iota + 1
	opAddEdge
	opSetAttr
	opDeleteNode
	opDeleteEdge
	opMigrateEdges
	// Transaction markers: opcode only, no fields after it. tx_begin /
	// tx_commit bracket a committed multi-mutation transaction; recovery
	// replays a group only once its tx_commit is seen, and a tx_rollback
	// (never written by this code, but accepted) discards the open group.
	opTxBegin
	opTxCommit
	opTxRollback
)

func opcodeOf(op graph.MutationOp) (byte, bool) {
	switch op {
	case graph.OpMergeNode:
		return opMergeNode, true
	case graph.OpAddEdge:
		return opAddEdge, true
	case graph.OpSetAttr:
		return opSetAttr, true
	case graph.OpDeleteNode:
		return opDeleteNode, true
	case graph.OpDeleteEdge:
		return opDeleteEdge, true
	case graph.OpMigrateEdges:
		return opMigrateEdges, true
	case graph.OpTxBegin:
		return opTxBegin, true
	case graph.OpTxCommit:
		return opTxCommit, true
	case graph.OpTxRollback:
		return opTxRollback, true
	}
	return 0, false
}

func mutationOpOf(b byte) (graph.MutationOp, bool) {
	switch b {
	case opMergeNode:
		return graph.OpMergeNode, true
	case opAddEdge:
		return graph.OpAddEdge, true
	case opSetAttr:
		return graph.OpSetAttr, true
	case opDeleteNode:
		return graph.OpDeleteNode, true
	case opDeleteEdge:
		return graph.OpDeleteEdge, true
	case opMigrateEdges:
		return graph.OpMigrateEdges, true
	case opTxBegin:
		return graph.OpTxBegin, true
	case opTxCommit:
		return graph.OpTxCommit, true
	case opTxRollback:
		return graph.OpTxRollback, true
	}
	return "", false
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendSymbol(buf []byte, s string) []byte { return appendStr(append(buf, 0), s) }

// encodeRecord appends the payload of m, numbered seq, to buf. keys is a
// reusable key-sorting buffer (returned so the caller can keep it).
func encodeRecord(buf []byte, seq uint64, m graph.Mutation, keys []string) ([]byte, []string) {
	buf = binary.AppendUvarint(buf, seq)
	code, _ := opcodeOf(m.Op)
	buf = append(buf, code)
	emitAttrs := func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, uint64(len(m.Attrs)))
		keys = keys[:0]
		for k := range m.Attrs {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			buf = appendSymbol(buf, k)
			buf = appendStr(buf, m.Attrs[k])
		}
		return buf
	}
	switch code {
	case opMergeNode:
		buf = appendSymbol(buf, m.Type)
		buf = appendStr(buf, m.Name)
		buf = emitAttrs(buf)
	case opAddEdge:
		buf = appendSymbol(buf, m.Type)
		buf = binary.AppendUvarint(buf, uint64(m.From))
		buf = binary.AppendUvarint(buf, uint64(m.To))
		buf = emitAttrs(buf)
	case opSetAttr:
		buf = binary.AppendUvarint(buf, uint64(m.Node))
		buf = appendSymbol(buf, m.Key)
		buf = appendStr(buf, m.Val)
	case opDeleteNode:
		buf = binary.AppendUvarint(buf, uint64(m.Node))
	case opDeleteEdge:
		buf = binary.AppendUvarint(buf, uint64(m.Edge))
	case opMigrateEdges:
		buf = binary.AppendUvarint(buf, uint64(m.From))
		buf = binary.AppendUvarint(buf, uint64(m.To))
	}
	return buf, keys
}

// insertion sort: attr maps are tiny and the keys are nearly sorted in
// practice; avoids sort.Strings' interface allocation on the hot path.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// peekRecord reads a payload's seq and operation without decoding its
// fields.
func peekRecord(payload []byte) (seq uint64, op graph.MutationOp, ok bool) {
	seq, w := binary.Uvarint(payload)
	if w <= 0 || w >= len(payload) {
		return 0, "", false
	}
	op, ok = mutationOpOf(payload[w])
	return seq, op, ok
}

// binPayload walks one binary payload during decode.
type binPayload struct {
	p   []byte
	off int
}

func (b *binPayload) uvarint() (uint64, error) {
	v, n := binary.Uvarint(b.p[b.off:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: binary record: bad varint at %d", b.off)
	}
	b.off += n
	return v, nil
}

func (b *binPayload) str() (string, error) {
	n, err := b.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(b.p)-b.off) {
		return "", fmt.Errorf("storage: binary record: string length %d past payload end", n)
	}
	s := string(b.p[b.off : b.off+int(n)])
	b.off += int(n)
	return s, nil
}

// symbol reads a symbol: 0, then an inline string.
func (b *binPayload) symbol() (string, error) {
	r, err := b.uvarint()
	if err != nil {
		return "", err
	}
	if r != 0 {
		return "", fmt.Errorf("storage: binary record: symbol reference %d, not an inline string", r)
	}
	return b.str()
}

func (b *binPayload) id() (int64, error) {
	v, err := b.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<62 {
		return 0, fmt.Errorf("storage: binary record: id %d overflows", v)
	}
	return int64(v), nil
}

// DecodeWire decodes one payload into *rec. A non-nil scratch map is
// cleared and used for the record's attributes instead of allocating a
// fresh map per record — pass one only when each record is consumed
// before the next is decoded (Apply copies attributes, so the reuse never
// leaks into the store).
func DecodeWire(p []byte, rec *Record, scratch map[string]string) error {
	b := &binPayload{p: p}
	*rec = Record{}
	seq, err := b.uvarint()
	if err != nil {
		return err
	}
	rec.Seq = seq
	if b.off >= len(p) {
		return fmt.Errorf("storage: binary record: truncated before opcode")
	}
	code := p[b.off]
	b.off++
	op, ok := mutationOpOf(code)
	if !ok {
		return fmt.Errorf("storage: binary record: unknown opcode %d", code)
	}
	rec.Op = op
	readAttrs := func() error {
		n, err := b.uvarint()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if n > uint64(len(p)) { // each attr costs ≥2 bytes; cheap sanity bound
			return fmt.Errorf("storage: binary record: attr count %d past payload size", n)
		}
		if scratch != nil {
			clear(scratch)
			rec.Attrs = scratch
		} else {
			rec.Attrs = make(map[string]string, n)
		}
		for i := uint64(0); i < n; i++ {
			k, err := b.symbol()
			if err != nil {
				return err
			}
			v, err := b.str()
			if err != nil {
				return err
			}
			rec.Attrs[k] = v
		}
		return nil
	}
	switch code {
	case opMergeNode:
		if rec.Type, err = b.symbol(); err != nil {
			return err
		}
		if rec.Name, err = b.str(); err != nil {
			return err
		}
		if err = readAttrs(); err != nil {
			return err
		}
	case opAddEdge:
		if rec.Type, err = b.symbol(); err != nil {
			return err
		}
		var from, to int64
		if from, err = b.id(); err != nil {
			return err
		}
		if to, err = b.id(); err != nil {
			return err
		}
		rec.From, rec.To = graph.NodeID(from), graph.NodeID(to)
		if err = readAttrs(); err != nil {
			return err
		}
	case opSetAttr:
		var node int64
		if node, err = b.id(); err != nil {
			return err
		}
		rec.Node = graph.NodeID(node)
		if rec.Key, err = b.symbol(); err != nil {
			return err
		}
		if rec.Val, err = b.str(); err != nil {
			return err
		}
	case opDeleteNode:
		var node int64
		if node, err = b.id(); err != nil {
			return err
		}
		rec.Node = graph.NodeID(node)
	case opDeleteEdge:
		var edge int64
		if edge, err = b.id(); err != nil {
			return err
		}
		rec.Edge = graph.EdgeID(edge)
	case opMigrateEdges:
		var from, to int64
		if from, err = b.id(); err != nil {
			return err
		}
		if to, err = b.id(); err != nil {
			return err
		}
		rec.From, rec.To = graph.NodeID(from), graph.NodeID(to)
	}
	if b.off != len(p) {
		return fmt.Errorf("storage: binary record: %d trailing bytes", len(p)-b.off)
	}
	return nil
}

// --- Runs of records, and the atomic units in them ---

// appendWire appends one record to a run: its length, then its payload.
func appendWire(run, payload []byte) []byte {
	return append(binary.AppendUvarint(run, uint64(len(payload))), payload...)
}

// NextWire cuts the first record off a run, naming its operation
// without decoding its fields.
func NextWire(run []byte) (payload, rest []byte, op graph.MutationOp, err error) {
	n, w := binary.Uvarint(run)
	if w <= 0 || n == 0 || n > uint64(len(run)-w) {
		return nil, nil, "", errors.New("storage: wire batch: record length out of range")
	}
	payload, rest = run[w:w+int(n)], run[w+int(n):]
	if _, op, ok := peekRecord(payload); ok {
		return payload, rest, op, nil
	}
	return nil, nil, "", errors.New("storage: wire batch: record has no known opcode")
}

// UnitEnd says how the unit NextUnit cut off a run ends.
type UnitEnd int

const (
	// UnitBare is one record outside any group (a stray marker included).
	UnitBare UnitEnd = iota
	// UnitGroup is a group's last piece, through its tx_commit: the group
	// is whole.
	UnitGroup
	// UnitOpen is a group's piece that the run ends inside: its next
	// records come in a later run.
	UnitOpen
	// UnitAborted ends a group that never commits: at its tx_rollback,
	// which the unit holds, or before another tx_begin, which heads rest.
	UnitAborted
)

// NextUnit cuts the next atomic unit — a bare record, or a whole
// tx_begin…tx_commit group — off run, a sequence of `uvarint len ·
// payload` records. open says the caller holds the head of a group that
// run continues: the unit is then the group's next piece. An error is
// damage to the run's framing.
func NextUnit(run []byte, open bool) (unit, rest []byte, end UnitEnd, err error) {
	for rest = run; len(rest) > 0; {
		_, next, op, err := NextWire(rest)
		switch {
		case err != nil:
			return nil, nil, 0, err
		case !open && op != graph.OpTxBegin:
			return run[:len(run)-len(next)], next, UnitBare, nil
		case open && op == graph.OpTxBegin:
			return run[:len(run)-len(rest)], rest, UnitAborted, nil
		case op == graph.OpTxCommit:
			return run[:len(run)-len(next)], next, UnitGroup, nil
		case op == graph.OpTxRollback:
			return run[:len(run)-len(next)], next, UnitAborted, nil
		}
		open, rest = true, next
	}
	return run, nil, UnitOpen, nil
}

// ErrBadRecord marks a record whose payload does not decode.
var ErrBadRecord = errors.New("storage: undecodable record")

// UnitApplier decodes records into one reused slot. The zero value is
// ready to use.
type UnitApplier struct {
	rec   Record
	attrs map[string]string
}

// Apply decodes a whole unit — a bare record, or a group as NextUnit
// cut it and its pieces joined — once, record by record, and applies
// each mutation to dst in order: not a group's markers, and not a record
// at or below skip, which a snapshot already holds. The records must be
// numbered prev+1, prev+2, …; a record out of that order, one that does
// not decode (ErrBadRecord) or one dst refuses ends the unit with an
// error. It returns the last record's seq and how many mutations were
// applied.
func (u *UnitApplier) Apply(dst interface{ Apply(graph.Mutation) error }, unit []byte, prev, skip uint64) (last uint64, applied int, err error) {
	if u.attrs == nil {
		u.attrs = make(map[string]string, 8)
	}
	rec := &u.rec
	for last = prev; len(unit) > 0; {
		payload, rest, _, err := NextWire(unit)
		if err == nil {
			err = DecodeWire(payload, rec, u.attrs)
		}
		if err != nil {
			return last, applied, fmt.Errorf("%w after seq %d: %v", ErrBadRecord, last, err)
		}
		if rec.Seq != last+1 {
			return last, applied, fmt.Errorf("storage: record seq %d where %d is due", rec.Seq, last+1)
		}
		last, unit = rec.Seq, rest
		if rec.Seq <= skip || rec.Op == graph.OpTxBegin || rec.Op == graph.OpTxCommit || rec.Op == graph.OpTxRollback {
			continue
		}
		if err := dst.Apply(rec.Mutation()); err != nil {
			return last, applied, fmt.Errorf("storage: replay seq %d (%s): %w", rec.Seq, rec.Op, err)
		}
		applied++
	}
	return last, applied, nil
}
