package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Binary graph codec: the compact on-disk form the durability layer uses
// for checkpoints. Layout (all integers unsigned varints unless noted):
//
//	magic   8 raw bytes "skggrf1\n"
//	version uvarint (currently 1)
//	strings uvarint count, then count strings (uvarint len + raw bytes) —
//	        the sorted set of every label, edge type, and attribute key
//	        in the graph. References below are 1-based indexes into this
//	        section; ref 0 means "".
//	nextNode, nextEdge uvarint ID allocators
//	nodes   uvarint count, then per node (ascending ID):
//	        uvarint id · uvarint typeRef · string name ·
//	        uvarint attrCount · attrCount × (uvarint keyRef · string val)
//	        with attrs sorted by key
//	edges   uvarint count, then per edge (ascending ID):
//	        uvarint id · uvarint typeRef · uvarint from · uvarint to ·
//	        attrs as for nodes
//	crc     4 raw bytes, little-endian CRC-32 (IEEE) of everything above
//
// Dictionary references replace every repeated vocabulary string with a
// 1–2 byte varint; names and attribute values (high-cardinality) stay
// inline. Because the string section is sorted and nodes/edges/attrs are
// emitted in sorted order, the bytes are a pure function of the logical
// graph content — independent of insertion or intern order — which is
// what keeps recovery byte-for-byte reproducible (see TestBinaryDeterminism).
const binaryMagic = "skggrf1\n"

const (
	binaryVersion = 1
	// maxBinaryStr bounds one string in the stream so a corrupt length
	// prefix cannot demand a multi-gigabyte allocation. It must stay far
	// above the WAL's per-record bound: a snapshot has to represent any
	// in-memory store, including attr values too large to ever log
	// (durability re-bases over failed oversize appends via snapshots).
	maxBinaryStr = 1 << 30
)

// --- writer ---

type binWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	tmp [binary.MaxVarintLen64]byte
	err error
}

func newBinWriter(w io.Writer) *binWriter {
	return &binWriter{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
}

func (b *binWriter) bytes(p []byte) {
	if b.err != nil {
		return
	}
	if _, err := b.w.Write(p); err != nil {
		b.err = err
		return
	}
	b.crc.Write(p)
}

func (b *binWriter) uvarint(v uint64) {
	n := binary.PutUvarint(b.tmp[:], v)
	b.bytes(b.tmp[:n])
}

func (b *binWriter) str(s string) {
	b.uvarint(uint64(len(s)))
	if b.err != nil {
		return
	}
	if _, err := b.w.WriteString(s); err != nil {
		b.err = err
		return
	}
	b.crc.Write([]byte(s))
}

// finish appends the CRC trailer (not itself summed) and flushes.
func (b *binWriter) finish() error {
	if b.err != nil {
		return b.err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], b.crc.Sum32())
	if _, err := b.w.Write(tail[:]); err != nil {
		return err
	}
	return b.w.Flush()
}

// --- reader ---

type binReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func newBinReader(r *bufio.Reader) *binReader {
	return &binReader{r: r, crc: crc32.NewIEEE()}
}

// ReadByte feeds the running CRC; it is what binary.ReadUvarint consumes.
func (b *binReader) ReadByte() (byte, error) {
	c, err := b.r.ReadByte()
	if err == nil {
		b.crc.Write([]byte{c})
	}
	return c, err
}

func (b *binReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(b)
}

func (b *binReader) str() (string, error) {
	n, err := b.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxBinaryStr {
		return "", fmt.Errorf("graph: load binary: string length %d exceeds limit", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(b.r, p); err != nil {
		return "", err
	}
	b.crc.Write(p)
	return string(p), nil
}

func (b *binReader) id() (int64, error) {
	v, err := b.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("graph: load binary: id %d overflows", v)
	}
	return int64(v), nil
}

// checkCRC reads the raw 4-byte trailer and compares it to the running
// sum over everything decoded so far.
func (b *binReader) checkCRC() error {
	var tail [4]byte
	if _, err := io.ReadFull(b.r, tail[:]); err != nil {
		return fmt.Errorf("graph: load binary: crc trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != b.crc.Sum32() {
		return fmt.Errorf("graph: load binary: crc mismatch")
	}
	return nil
}

// --- save ---

// SaveBinary writes the graph in the binary codec, the one Load reads.
// The output is deterministic for identical logical content (see the
// format comment).
func (s *Store) SaveBinary(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.saveBinaryLocked(w)
}

// SaveBinaryWithHeader writes hdr's output, then the SaveBinary stream,
// all under one read lock — so whatever the header records (the
// durability layer's WAL sequence number) observes exactly the state the
// snapshot captures: no mutation can slip between the two.
func (s *Store) SaveBinaryWithHeader(w io.Writer, hdr func(io.Writer) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if hdr != nil {
		if err := hdr(w); err != nil {
			return err
		}
	}
	return s.saveBinaryLocked(w)
}

func (s *Store) saveBinaryLocked(w io.Writer) error {
	// Collect the live vocabulary. Sorting (not intern order) is what
	// makes the byte stream reproducible across differently-built stores.
	vocab := make(map[string]struct{})
	for _, rec := range s.nodes {
		if rec.n == nil {
			continue
		}
		vocab[rec.n.Type] = struct{}{}
		for _, kv := range rec.n.Attrs {
			vocab[kv.Key] = struct{}{}
		}
	}
	for _, rec := range s.edges {
		if rec.e == nil {
			continue
		}
		vocab[rec.e.Type] = struct{}{}
		for _, kv := range rec.e.Attrs {
			vocab[kv.Key] = struct{}{}
		}
	}
	delete(vocab, "") // ref 0 is implicit
	strs := make([]string, 0, len(vocab))
	for v := range vocab {
		strs = append(strs, v)
	}
	sort.Strings(strs)
	refs := make(map[string]uint64, len(strs)+1)
	refs[""] = 0
	for i, v := range strs {
		refs[v] = uint64(i + 1)
	}

	b := newBinWriter(w)
	b.bytes([]byte(binaryMagic))
	b.uvarint(binaryVersion)
	b.uvarint(uint64(len(strs)))
	for _, v := range strs {
		b.str(v)
	}
	b.uvarint(uint64(s.nextNode))
	b.uvarint(uint64(s.nextEdge))

	writeAttrs := func(attrs Attrs) {
		b.uvarint(uint64(len(attrs)))
		for _, kv := range attrs {
			b.uvarint(refs[kv.Key])
			b.str(kv.Val)
		}
	}

	b.uvarint(uint64(s.nNodes))
	for _, rec := range s.nodes {
		if n := rec.n; n != nil {
			b.uvarint(uint64(n.ID))
			b.uvarint(refs[n.Type])
			b.str(n.Name)
			writeAttrs(n.Attrs)
		}
	}
	b.uvarint(uint64(s.nEdges))
	for _, rec := range s.edges {
		if e := rec.e; e != nil {
			b.uvarint(uint64(e.ID))
			b.uvarint(refs[e.Type])
			b.uvarint(uint64(e.From))
			b.uvarint(uint64(e.To))
			writeAttrs(e.Attrs)
		}
	}
	if b.err != nil {
		return fmt.Errorf("graph: save binary: %w", b.err)
	}
	if err := b.finish(); err != nil {
		return fmt.Errorf("graph: save binary: %w", err)
	}
	return nil
}

// --- load ---

// Load reads a graph SaveBinary wrote into a new store. storage.Open
// loads every snapshot through it.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	b := newBinReader(br)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: load binary: bad magic")
	}
	b.crc.Write(magic)
	ver, err := b.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph: load binary: version: %w", err)
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", ver)
	}
	nstrs, err := b.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph: load binary: string count: %w", err)
	}
	strs := make([]string, 1, min(nstrs, 4095)+1)
	strs[0] = ""
	for i := uint64(0); i < nstrs; i++ {
		v, err := b.str()
		if err != nil {
			return nil, fmt.Errorf("graph: load binary: string %d/%d: %w", i, nstrs, err)
		}
		strs = append(strs, v)
	}
	ref := func(r uint64) (string, error) {
		if r >= uint64(len(strs)) {
			return "", fmt.Errorf("graph: load binary: string ref %d out of range", r)
		}
		return strs[r], nil
	}
	readAttrs := func() (Attrs, error) {
		n, err := b.uvarint()
		if err != nil || n == 0 {
			return nil, err
		}
		attrs := make(Attrs, 0, min(n, 256))
		for i := uint64(0); i < n; i++ {
			kr, err := b.uvarint()
			if err != nil {
				return nil, err
			}
			k, err := ref(kr)
			if err != nil {
				return nil, err
			}
			if i > 0 && attrs[i-1].Key >= k {
				return nil, fmt.Errorf("graph: load binary: attribute keys out of order")
			}
			v, err := b.str()
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, Attr{Key: k, Val: v})
		}
		return attrs, nil
	}

	nextNode, err := b.id()
	if err != nil {
		return nil, fmt.Errorf("graph: load binary: next node: %w", err)
	}
	nextEdge, err := b.id()
	if err != nil {
		return nil, fmt.Errorf("graph: load binary: next edge: %w", err)
	}

	s := New()
	if err := s.loadAllocators(NodeID(nextNode), EdgeID(nextEdge)); err != nil {
		return nil, err
	}
	nNodes, err := b.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph: load binary: node count: %w", err)
	}
	for i := uint64(0); i < nNodes; i++ {
		var n Node
		id, err := b.id()
		if err == nil {
			n.ID = NodeID(id)
			var tr uint64
			if tr, err = b.uvarint(); err == nil {
				if n.Type, err = ref(tr); err == nil {
					if n.Name, err = b.str(); err == nil {
						n.Attrs, err = readAttrs()
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("graph: load binary: node %d/%d: %w", i, nNodes, err)
		}
		if err := s.loadNode(n); err != nil {
			return nil, err
		}
	}
	nEdges, err := b.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph: load binary: edge count: %w", err)
	}
	for i := uint64(0); i < nEdges; i++ {
		var e Edge
		id, err := b.id()
		if err == nil {
			e.ID = EdgeID(id)
			var tr uint64
			if tr, err = b.uvarint(); err == nil {
				if e.Type, err = ref(tr); err == nil {
					var from, to int64
					if from, err = b.id(); err == nil {
						if to, err = b.id(); err == nil {
							e.From, e.To = NodeID(from), NodeID(to)
							e.Attrs, err = readAttrs()
						}
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("graph: load binary: edge %d/%d: %w", i, nEdges, err)
		}
		if err := s.loadEdge(e); err != nil {
			return nil, err
		}
	}
	if err := b.checkCRC(); err != nil {
		return nil, err
	}
	s.finishLoad()
	return s, nil
}
