package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary wire framing (docs/PROTOCOL.md is the canonical spec).
//
// A connection upgrades from the newline-delimited JSON protocol to
// binary framing when the client's first four bytes are the magic
// "ODE2"; the server consumes them and echoes the same four bytes back.
// Anything else falls through to the JSON protocol untouched.
//
// After the handshake, both directions carry frames:
//
//	0        4       5        9               17
//	+--------+-------+--------+---------------+----------------+
//	| length | type  |  sid   |  request id   |    payload     |
//	| u32 BE | u8    | u32 BE |    u64 BE     | length-13 bytes|
//	+--------+-------+--------+---------------+----------------+
//
// length counts everything after the length field itself (the 13-byte
// fixed header plus the payload). The payload is a JSON-encoded Request
// (client→server) or Response (server→client): framing is binary, op
// semantics are byte-for-byte the JSON protocol's, which is what makes
// the two transports provably equivalent.
//
// sid names a session (one open transaction) within the connection;
// the single-session Client uses sid 0, a Mux allocates one per
// MuxSession. Requests within one sid complete in order; requests on
// different sids complete out of order.

const (
	// protoMagic upgrades a fresh connection to binary framing. The
	// bytes never collide with the JSON protocol: every JSON request
	// line starts with '{'.
	protoMagic = "ODE2"

	// frameHeaderLen is the fixed header after the length prefix:
	// type (1) + sid (4) + request id (8).
	frameHeaderLen = 13

	frameReq   byte = 0x01 // client→server: payload is a JSON Request
	frameResp  byte = 0x02 // server→client: payload is a JSON Response
	frameClose byte = 0x03 // client→server: end session sid (abort its txn); empty payload
)

// frameHeader is the decoded fixed part of one frame; the payload (n
// bytes) follows on the wire and is read — or skipped — by the caller.
type frameHeader struct {
	typ byte
	sid uint32
	id  uint64
	n   int // payload length
}

// errFraming marks a malformed frame header: the stream can no longer
// be trusted and the connection must close. Contrast ErrRequestTooLarge
// over binary framing, where the header is sound and the connection
// survives.
var errFraming = errors.New("server: malformed binary frame")

// readFrameHeader decodes the length prefix and fixed header. It does
// NOT read the payload, so the caller can enforce its own size cap and
// skip an oversized payload without allocating it.
func readFrameHeader(br *bufio.Reader) (frameHeader, error) {
	var hdr [4 + frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frameHeader{}, err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length < frameHeaderLen {
		return frameHeader{}, fmt.Errorf("%w: length %d < header %d", errFraming, length, frameHeaderLen)
	}
	return frameHeader{
		typ: hdr[4],
		sid: binary.BigEndian.Uint32(hdr[5:9]),
		id:  binary.BigEndian.Uint64(hdr[9:17]),
		n:   int(length - frameHeaderLen),
	}, nil
}

// readFrame reads the next frame the way a listening front consumes
// it: header, then payload. A payload over max is skipped without being
// materialized and reported as ErrRequestTooLarge beside its header —
// the stream stays in step, so the caller can answer that one request
// and read on. Any other error means the connection is done.
func readFrame(br *bufio.Reader, max int) (frameHeader, []byte, error) {
	h, err := readFrameHeader(br)
	if err != nil {
		return h, nil, err
	}
	if h.n > max {
		if _, err := io.CopyN(io.Discard, br, int64(h.n)); err != nil {
			return h, nil, err
		}
		return h, nil, ErrRequestTooLarge
	}
	payload := make([]byte, h.n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return h, nil, err
	}
	return h, payload, nil
}

// writeFrame encodes one frame. The header is assembled into a single
// buffer so a frame is at most two Write calls (header+payload); the
// caller supplies a bufio.Writer for coalescing.
func writeFrame(w io.Writer, typ byte, sid uint32, id uint64, payload []byte) error {
	var hdr [4 + frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameHeaderLen+len(payload)))
	hdr[4] = typ
	binary.BigEndian.PutUint32(hdr[5:9], sid)
	binary.BigEndian.PutUint64(hdr[9:17], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}
