package server

import (
	"bufio"
	"fmt"
	"io"
)

// Exported frame I/O for code outside this package that must speak
// byte-identical framing without being a Front or a client: the
// benchmark's codec timing and tracing relay, and the cross-package
// wire tests. Every listener — a Server's and the shard router's — reads
// frames through Front (binary.go), not through these. frame.go remains
// the canonical description of the layout.

// Frame is one decoded binary-protocol frame.
type Frame struct {
	Type    byte
	SID     uint32
	ID      uint64
	Payload []byte
}

const (
	// ProtoMagic upgrades a fresh connection to binary framing.
	ProtoMagic = protoMagic

	// FrameRequest/FrameResponse/FrameClose are the frame types.
	FrameRequest  = frameReq
	FrameResponse = frameResp
	FrameClose    = frameClose
)

// ErrFraming marks a malformed frame header: the stream can no longer
// be trusted and the connection must close.
var ErrFraming = errFraming

// ReadFrame reads one complete frame, payload included. maxPayload <= 0
// means unbounded; an oversized payload returns an ErrFraming-wrapped
// error with the payload unread, so the caller should close the
// connection. (A Front instead skips the payload, answers that one
// request with ErrRequestTooLarge, and keeps every session alive.)
func ReadFrame(br *bufio.Reader, maxPayload int) (Frame, error) {
	h, err := readFrameHeader(br)
	if err != nil {
		return Frame{}, err
	}
	if maxPayload > 0 && h.n > maxPayload {
		return Frame{}, fmt.Errorf("%w: payload %d exceeds cap %d", errFraming, h.n, maxPayload)
	}
	f := Frame{Type: h.typ, SID: h.sid, ID: h.id}
	if h.n > 0 {
		f.Payload = make([]byte, h.n)
		if _, err := io.ReadFull(br, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// WriteFrame encodes one frame. The caller supplies a bufio.Writer for
// coalescing and flushes at its own batch boundaries.
func WriteFrame(w io.Writer, f Frame) error {
	return writeFrame(w, f.Type, f.SID, f.ID, f.Payload)
}
