// Package replication ships the write-ahead log from a leader to
// read-only followers over HTTP, turning N processes into N× read
// throughput for the same graph.
//
// The WAL is already everything a replication stream needs — CRC-
// checked, strictly sequenced, deterministically replayable, with
// transaction groups recovery applies atomically — so the protocol is
// thin: a follower bootstraps from a binary snapshot transfer
// (byte-compatible with the snapshot.skg checkpoint format), then
// holds a chunked HTTP stream open from its last applied sequence
// number, applying each record through the same store machinery
// recovery uses. The leader never ships past the last transaction-
// group boundary, so a follower can never observe an uncommitted
// prefix; sequence numbers are verified on every apply, so any
// divergence tears the stream down loudly instead of proceeding
// silently.
//
// Protocol (all endpoints on the leader):
//
//	GET /replication/snapshot
//	    200: binary snapshot stream (snapshot.skg format); the
//	    X-Skg-Seq header carries the covering WAL seq.
//	GET /replication/wal?from=N
//	    200: unbounded chunked stream of frames (see below), records
//	    with seq >= N in order, pausing at transaction-group
//	    boundaries until more commits land; heartbeat frames carry
//	    the leader's committed seq while idle.
//	    409: the leader no longer has records back to N (checkpoint
//	    truncation) — re-bootstrap from a snapshot. Body is a JSON
//	    {"error": ..., "snapshot_required": true}.
//	GET /replication/status
//	    200: JSON Status.
//
// Frame wire format mirrors the WAL's own framing:
//
//	uint32  length of kind + body (little-endian)
//	uint32  CRC-32 (IEEE) of kind + body
//	byte    kind
//	[]byte  body
//
// A records frame (kind 1) is one storage.TailCursor batch: each
// record's length, then its payload — the bytes the leader's log file
// holds for it (storage/codec.go) — for everything committed past the
// follower's position, ending on a transaction-group boundary unless
// that is over frameCap. The follower cuts and applies it with the
// functions recovery uses (storage.NextUnit, storage.UnitApplier). A
// heartbeat frame (kind 2) is two uvarints: the leader's committed seq
// and log size; a follower reads only the seq.
//
// One wire format, no negotiation: leader and followers upgrade
// together. Frames of the earlier format — a JSON envelope per record —
// put '{' where the kind byte is, and are refused by name.
package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// maxFrameLen bounds one frame so a corrupt length prefix cannot ask
	// the reader to allocate gigabytes; the largest WAL record fits.
	maxFrameLen = 32 << 20
	// frameCap is the most a leader puts in one records frame, short of
	// a single larger record.
	frameCap = 256 << 10

	frameHdrLen          = 9 // length, CRC, kind
	frameRecords    byte = 1
	frameHeartbeat  byte = 2
	frameJSONLegacy byte = '{'
)

// sealFrame fills in the header of a frame built in place: frameHdrLen
// reserved bytes, then the body.
func sealFrame(buf []byte, kind byte) []byte {
	buf[8] = kind
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// heartbeatFrame keeps an idle stream alive and carries the leader's
// watermarks, so followers report lag without extra round trips.
func heartbeatFrame(buf []byte, committed uint64, walBytes int64) []byte {
	var hdr [frameHdrLen]byte
	buf = binary.AppendUvarint(append(buf[:0], hdr[:]...), committed)
	buf = binary.AppendUvarint(buf, uint64(walBytes))
	return sealFrame(buf, frameHeartbeat)
}

// errBadFrame marks stream damage (length, CRC, kind or body). Framing is
// how boundaries are known, so the connection is torn down and re-dialed.
var errBadFrame = errors.New("replication: damaged frame")

// frameReader decodes one stream of frames.
type frameReader struct {
	br  *bufio.Reader
	hdr [8]byte
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// next reads one frame; body is valid until the following call. io.EOF
// means the stream ended, between frames or inside one: re-dial.
func (fr *frameReader) next() (kind byte, body []byte, err error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.EOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	want := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if n == 0 || n > maxFrameLen {
		return 0, nil, errBadFrame
	}
	if cap(fr.buf) < int(n) {
		// Headroom, so a stream whose frames creep up in size settles.
		fr.buf = make([]byte, n, min(n+n/4, maxFrameLen))
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		return 0, nil, io.EOF
	}
	if crc32.ChecksumIEEE(fr.buf) != want {
		return 0, nil, errBadFrame
	}
	switch kind = fr.buf[0]; kind {
	case frameRecords, frameHeartbeat:
		return kind, fr.buf[1:], nil
	case frameJSONLegacy:
		return 0, nil, fmt.Errorf("%w: the peer speaks the JSON-envelope stream format this build replaced; upgrade leader and followers together", errBadFrame)
	}
	return 0, nil, fmt.Errorf("%w: unknown frame kind %d", errBadFrame, kind)
}

// parseHeartbeat reads a heartbeat body.
func parseHeartbeat(body []byte) (committed uint64, walBytes int64, err error) {
	committed, n := binary.Uvarint(body)
	if n > 0 {
		if wal, m := binary.Uvarint(body[n:]); m > 0 && n+m == len(body) {
			return committed, int64(wal), nil
		}
	}
	return 0, 0, fmt.Errorf("%w: heartbeat body", errBadFrame)
}

// Status is the /replication/status payload, shared by both roles.
type Status struct {
	Role         string `json:"role"`                 // "primary" | "replica"
	State        string `json:"state,omitempty"`      // replica: bootstrap | snapshot | tail | reconnect | stale
	Leader       string `json:"leader,omitempty"`     // replica: leader base URL; primary: advertise URL
	LastSeq      uint64 `json:"last_seq"`             // local WAL last seq
	CommittedSeq uint64 `json:"committed_seq"`        // primary: group-boundary watermark; replica: applied seq
	WALBytes     int64  `json:"wal_bytes"`            // local log size
	LeaderSeq    uint64 `json:"leader_seq,omitempty"` // replica: leader committed seq as of the last frame
	LagRecords   int64  `json:"lag_records"`          // replica: leader_seq - committed_seq (0 on primary)
	LagBytes     int64  `json:"lag_bytes"`            // replica: estimated bytes behind (lag × mean size of the records it applied)
	Snapshot     bool   `json:"snapshot_catchup"`     // replica: currently in snapshot transfer
	LastError    string `json:"last_error,omitempty"` // replica: most recent stream error
	Reconnects   uint64 `json:"reconnects,omitempty"` // replica: times the tail stream was re-dialed
}
