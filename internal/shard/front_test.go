package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ode/internal/server"
)

// rawBinary opens a connection, performs the ODE2 handshake by hand, and
// returns the frame-level read/write ends.
func rawBinary(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(server.ProtoMagic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	echo := make([]byte, len(server.ProtoMagic))
	if _, err := io.ReadFull(br, echo); err != nil || string(echo) != server.ProtoMagic {
		t.Fatalf("handshake echo = %q, %v", echo, err)
	}
	return conn, br
}

// exchange writes one frame and reads the response frame that answers it.
func exchange(t *testing.T, conn net.Conn, br *bufio.Reader, f server.Frame) server.Response {
	t.Helper()
	if err := server.WriteFrame(conn, f); err != nil {
		t.Fatal(err)
	}
	got, err := server.ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != server.FrameResponse || got.SID != f.SID || got.ID != f.ID {
		t.Fatalf("response frame type=%#x sid=%d id=%d answers sid=%d id=%d", got.Type, got.SID, got.ID, f.SID, f.ID)
	}
	var resp server.Response
	if err := json.Unmarshal(got.Payload, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFrontHardening runs the connection layer's misbehaving-client
// cases against both fronts — a shard server's own listener and the
// router — which must be indistinguishable: they are one server.Front.
func TestFrontHardening(t *testing.T) {
	const streamOp = "repl.subscribe" // the op both fronts treat as a stream op
	c := startCluster(t, 2, clusterConfig{
		maxRequest: 1024,
		streamOps: map[string]server.StreamHandler{
			// Echo one line back: what the handler reads is what the
			// client sent right behind the request line.
			streamOp: func(conn net.Conn, req *server.Request) error {
				line, err := bufio.NewReader(conn).ReadString('\n')
				if err != nil {
					return err
				}
				_, err = fmt.Fprintf(conn, "echo %d %s", req.LSN, line)
				return err
			},
		},
	})
	oversized := &server.Request{Op: "begin", Class: strings.Repeat("x", 2048)}

	cases := []struct {
		name string
		run  func(t *testing.T, addr string)
	}{
		// Over binary framing an oversized request costs one typed error,
		// not the connection — the frame header still delimits it exactly.
		{"oversized binary keeps conn", func(t *testing.T, addr string) {
			cl, err := server.DialOptions(addr, server.ClientOptions{Binary: true})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Call(oversized); !errors.Is(err, server.ErrRequestTooLarge) {
				t.Fatalf("err = %v, want ErrRequestTooLarge", err)
			}
			if err := cl.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := cl.Commit(); err != nil {
				t.Fatal(err)
			}
			if cl.Reconnects() != 0 {
				t.Fatalf("client redialed %d times; binary oversized must keep the conn", cl.Reconnects())
			}
		}},
		// Over JSON the client sees the typed error (not a silent
		// disconnect) before the front hangs up: line framing is gone.
		{"oversized JSON typed error then close", func(t *testing.T, addr string) {
			cl, err := server.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Call(oversized); !errors.Is(err, server.ErrRequestTooLarge) {
				t.Fatalf("err = %v, want ErrRequestTooLarge", err)
			}
			if err := cl.Begin(); err == nil {
				t.Fatal("connection still open after a JSON oversize")
			}
		}},
		// A frame whose payload is not JSON earns a per-request error and
		// the connection keeps serving; closing a sid the front never saw
		// is acknowledged, idempotently.
		{"malformed payload binary keeps conn", func(t *testing.T, addr string) {
			conn, br := rawBinary(t, addr)
			resp := exchange(t, conn, br, server.Frame{Type: server.FrameRequest, SID: 1, ID: 7, Payload: []byte("not json")})
			if resp.OK || !strings.Contains(resp.Error, "malformed request") {
				t.Fatalf("malformed payload answered %+v", resp)
			}
			if resp = exchange(t, conn, br, server.Frame{Type: server.FrameRequest, SID: 1, ID: 8, Payload: []byte(`{"op":"proto"}`)}); !resp.OK {
				t.Fatalf("follow-up request answered %+v", resp)
			}
			if resp = exchange(t, conn, br, server.Frame{Type: server.FrameClose, SID: 99, ID: 9}); !resp.OK {
				t.Fatalf("close of an unknown sid answered %+v", resp)
			}
		}},
		// An unknown frame type means a different dialect: answer, then
		// hang up rather than guess at framing.
		{"unknown frame type hangs up", func(t *testing.T, addr string) {
			conn, br := rawBinary(t, addr)
			resp := exchange(t, conn, br, server.Frame{Type: 0x7f, SID: 1, ID: 3})
			if resp.OK || !strings.Contains(resp.Error, "unknown frame type 0x7f") {
				t.Fatalf("unknown frame type answered %+v", resp)
			}
			if _, err := br.ReadByte(); err == nil {
				t.Fatal("connection still open after an unknown frame type")
			}
		}},
		// Stream ops own the raw connection and cannot nest inside
		// frames: typed refusal, connection survives.
		{"stream op over binary rejected", func(t *testing.T, addr string) {
			cl, err := server.DialOptions(addr, server.ClientOptions{Binary: true})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			_, err = cl.Call(&server.Request{Op: streamOp})
			if err == nil || !strings.Contains(err.Error(), server.ErrStreamOverBinary.Error()) {
				t.Fatalf("stream over binary = %v, want %v", err, server.ErrStreamOverBinary)
			}
			if err := cl.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := cl.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		// Over JSON the stream handler takes the connection over,
		// including whatever the client already sent behind the request
		// line (one write here, so both lines land in the front's read
		// buffer together).
		{"stream op over JSON sees buffered bytes", func(t *testing.T, addr string) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := fmt.Fprintf(conn, "{\"op\":%q,\"lsn\":7}\nhello\n", streamOp); err != nil {
				t.Fatal(err)
			}
			got, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil || got != "echo 7 hello\n" {
				t.Fatalf("stream handler answered %q, %v; want %q", got, err, "echo 7 hello\n")
			}
		}},
	}
	fronts := []struct{ name, addr string }{{"server", c.addrs[0]}, {"router", c.raddr}}
	for _, front := range fronts {
		for _, tc := range cases {
			t.Run(front.name+"/"+tc.name, func(t *testing.T) { tc.run(t, front.addr) })
		}
	}
}
