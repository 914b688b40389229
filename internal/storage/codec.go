package storage

import (
	"encoding/binary"
	"fmt"

	"securitykg/internal/graph"
)

// This file is the record codec: the payload of a WAL frame (wal.go) and
// of a replication wire record (tail.go). It is the only codec this
// package writes. The JSON payloads that came before it (PR 4) are read
// once more — by the scanner in wal.go, when Open meets a log without
// the magic below — and Open rewrites that directory before it returns.

// Codec is an inert one-value stub held for bench/corpus.go, which names
// Options.Codec and CodecBinary; a [benchmark] PR drops all three.
type Codec int

// CodecBinary is the only on-disk format there is.
const CodecBinary Codec = 0

// walMagic opens a log file. A JSON-era log has no file header — its
// first bytes are a record length prefix — so recovery tells the two
// apart by this prefix alone.
const walMagic = "skgwal2\n"

// Binary record payload layout (inside the standard length+CRC frame):
//
//	seq    uvarint
//	op     1 byte (opcode table below)
//	fields per op, in order, from:
//	  id      uvarint (node/edge IDs; non-negative by construction)
//	  string  uvarint len + raw bytes (names, attr values)
//	  dictref uvarint: 0 = new string (uvarint len + bytes) that also
//	          appends to the dictionary; n>0 = the n-th string ever
//	          added (types, attr keys — the small repeated vocabulary)
//	  attrs   uvarint count, then count × (dictref key · string val),
//	          sorted by key so identical mutations encode identically
//
// The dictionary is in-band and cumulative over the life of the log
// file: the writer adds a string the first time it appears, the reader
// reconstructs the same table by replaying adds during the scan. A
// truncation resets both sides along with the file, and append errors
// are sticky (nothing further is written), so writer and reader tables
// can never diverge from the bytes actually on disk.

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

// walDict is the encode-side in-band dictionary.
type walDict struct {
	ids map[string]uint64
	n   uint64
}

func newWALDict(seed []string) *walDict {
	d := &walDict{ids: make(map[string]uint64, len(seed)+16)}
	for _, s := range seed {
		d.n++
		d.ids[s] = d.n
	}
	return d
}

// emit appends s as a dictref, registering it when new. A nil dictionary
// never remembers: every string goes inline — the wire form (tail.go).
func (d *walDict) emit(buf []byte, s string) []byte {
	if d == nil {
		return appendStr(append(buf, 0), s)
	}
	if id, ok := d.ids[s]; ok {
		return binary.AppendUvarint(buf, id)
	}
	buf = binary.AppendUvarint(buf, 0)
	buf = appendStr(buf, s)
	d.n++
	d.ids[s] = d.n
	return buf
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeRecordBinary appends rec's binary payload to buf. scratch is a
// reusable key-sorting buffer (returned so the caller can keep it).
func encodeRecordBinary(buf []byte, rec Record, dict *walDict, scratch []string) ([]byte, []string) {
	buf = binary.AppendUvarint(buf, rec.Seq)
	code, _ := opcodeOf(rec.Op)
	buf = append(buf, code)
	emitAttrs := func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Attrs)))
		scratch = scratch[:0]
		for k := range rec.Attrs {
			scratch = append(scratch, k)
		}
		sortStrings(scratch)
		for _, k := range scratch {
			buf = dict.emit(buf, k)
			buf = appendStr(buf, rec.Attrs[k])
		}
		return buf
	}
	switch code {
	case opMergeNode:
		buf = dict.emit(buf, rec.Type)
		buf = appendStr(buf, rec.Name)
		buf = emitAttrs(buf)
	case opAddEdge:
		buf = dict.emit(buf, rec.Type)
		buf = binary.AppendUvarint(buf, uint64(rec.From))
		buf = binary.AppendUvarint(buf, uint64(rec.To))
		buf = emitAttrs(buf)
	case opSetAttr:
		buf = binary.AppendUvarint(buf, uint64(rec.Node))
		buf = dict.emit(buf, rec.Key)
		buf = appendStr(buf, rec.Val)
	case opDeleteNode:
		buf = binary.AppendUvarint(buf, uint64(rec.Node))
	case opDeleteEdge:
		buf = binary.AppendUvarint(buf, uint64(rec.Edge))
	case opMigrateEdges:
		buf = binary.AppendUvarint(buf, uint64(rec.From))
		buf = binary.AppendUvarint(buf, uint64(rec.To))
	}
	return buf, scratch
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

// binPayload walks one binary payload during decode.
type binPayload struct {
	p    []byte
	off  int
	dict *[]string
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

// dictStr reads a dictref, appending to the dictionary on a new string.
// A nil dictionary (the wire form's) stays empty: only inline resolves.
func (b *binPayload) dictStr() (string, error) {
	r, err := b.uvarint()
	if err != nil {
		return "", err
	}
	if r == 0 {
		s, err := b.str()
		if err == nil && b.dict != nil {
			*b.dict = append(*b.dict, s)
		}
		return s, err
	}
	if b.dict == nil || r > uint64(len(*b.dict)) {
		return "", fmt.Errorf("storage: binary record: dict ref %d out of range", r)
	}
	return (*b.dict)[r-1], nil
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

// decodeRecordBinaryInto decodes one payload into *rec, mutating dict
// exactly as the writer did when encoding it (nil: a self-contained wire
// payload, nothing to remember). A non-nil scratch map is
// cleared and used for the record's attributes instead of allocating a
// fresh map per record — safe only for callers that fully consume each
// record before decoding the next (the streaming recovery scanner:
// Apply copies attributes, so the reuse never leaks into the store).
func decodeRecordBinaryInto(p []byte, dict *[]string, rec *Record, scratch map[string]string) error {
	b := &binPayload{p: p, dict: dict}
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
			k, err := b.dictStr()
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
		if rec.Type, err = b.dictStr(); err != nil {
			return err
		}
		if rec.Name, err = b.str(); err != nil {
			return err
		}
		if err = readAttrs(); err != nil {
			return err
		}
	case opAddEdge:
		if rec.Type, err = b.dictStr(); err != nil {
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
		if rec.Key, err = b.dictStr(); err != nil {
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
