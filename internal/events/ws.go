package events

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// A minimal RFC 6455 WebSocket implementation — the module carries no
// dependencies, so the transport is hand-rolled on net/http's Hijacker.
// It supports exactly what the event bus needs: text frames, ping/pong,
// close, client-side masking, and no fragmentation (every event fits a
// single frame; the reader still rejects oversized payloads rather than
// trusting the peer).

// Frame opcodes.
const (
	opText  = 0x1
	opClose = 0x8
	opPing  = 0x9
	opPong  = 0xa
)

// maxFrame bounds an accepted payload; anything larger is a protocol
// error (events are a few hundred bytes).
const maxFrame = 1 << 20

// wsGUID is the fixed handshake GUID from RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

func acceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// WSConn is one WebSocket connection. Reads and writes may proceed
// concurrently (one reader, any writers — writes serialize on wmu, so
// the reader's pong and close replies never race the event writer).
type WSConn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // client side masks outgoing frames

	wmu  sync.Mutex
	wbuf []byte // under wmu
}

// Upgrade hijacks an HTTP request into a WebSocket connection,
// completing the server side of the RFC 6455 handshake.
func Upgrade(w http.ResponseWriter, r *http.Request) (*WSConn, error) {
	if !headerHas(r.Header, "Connection", "upgrade") || !headerHas(r.Header, "Upgrade", "websocket") {
		http.Error(w, "websocket upgrade required", http.StatusBadRequest)
		return nil, errors.New("events: not a websocket upgrade request")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("events: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket unsupported", http.StatusInternalServerError)
		return nil, errors.New("events: response writer cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("events: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("events: handshake write: %w", err)
	}
	return &WSConn{conn: conn, br: rw.Reader}, nil
}

func headerHas(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Dial opens a WebSocket connection to rawURL (ws://, or http:// which
// is treated the same) and completes the client handshake.
func Dial(ctx context.Context, rawURL string) (*WSConn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("events: parsing url: %w", err)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, fmt.Errorf("events: dialing %s: %w", host, err)
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(nonce[:])
	path := u.RequestURI()
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("events: handshake write: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("events: handshake read: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("events: handshake rejected: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != acceptKey(key) {
		conn.Close()
		return nil, fmt.Errorf("events: bad Sec-WebSocket-Accept %q", got)
	}
	conn.SetDeadline(time.Time{})
	return &WSConn{conn: conn, br: br, client: true}, nil
}

// SetWriteDeadline bounds subsequent writes; a stalled peer surfaces as
// a timeout error from WriteText, which the server treats as a
// slow-consumer disconnect.
func (c *WSConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// SetReadDeadline bounds subsequent reads.
func (c *WSConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// writeFrame assembles one complete frame in c.wbuf and writes it with
// a single Write call under wmu, so concurrent writers cannot interleave
// frame bytes.
func (c *WSConn) writeFrame(op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := len(payload)
	buf := c.wbuf[:0]
	buf = append(buf, 0x80|op) // FIN set: no fragmentation
	maskBit := byte(0)
	if c.client {
		maskBit = 0x80
	}
	switch {
	case n < 126:
		buf = append(buf, maskBit|byte(n))
	case n < 1<<16:
		buf = append(buf, maskBit|126)
		buf = binary.BigEndian.AppendUint16(buf, uint16(n))
	default:
		buf = append(buf, maskBit|127)
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	}
	if c.client {
		var mask [4]byte
		rand.Read(mask[:])
		buf = append(buf, mask[:]...)
		at := len(buf)
		buf = append(buf, payload...)
		for i := range buf[at:] {
			buf[at+i] ^= mask[i&3]
		}
	} else {
		buf = append(buf, payload...)
	}
	c.wbuf = buf
	_, err := c.conn.Write(buf)
	return err
}

// WriteText sends one text frame.
func (c *WSConn) WriteText(payload []byte) error { return c.writeFrame(opText, payload) }

// ReadMessage reads the next data frame's payload, transparently
// answering pings. A close frame (or a closed connection) returns
// io.EOF.
func (c *WSConn) ReadMessage() ([]byte, error) {
	for {
		var hdr [2]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			return nil, err
		}
		op := hdr[0] & 0x0f
		masked := hdr[1]&0x80 != 0
		n := uint64(hdr[1] & 0x7f)
		switch n {
		case 126:
			var ext [2]byte
			if _, err := io.ReadFull(c.br, ext[:]); err != nil {
				return nil, err
			}
			n = uint64(binary.BigEndian.Uint16(ext[:]))
		case 127:
			var ext [8]byte
			if _, err := io.ReadFull(c.br, ext[:]); err != nil {
				return nil, err
			}
			n = binary.BigEndian.Uint64(ext[:])
		}
		if n > maxFrame {
			return nil, fmt.Errorf("events: frame of %d bytes exceeds limit", n)
		}
		var mask [4]byte
		if masked {
			if _, err := io.ReadFull(c.br, mask[:]); err != nil {
				return nil, err
			}
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, err
		}
		if masked {
			for i := range payload {
				payload[i] ^= mask[i&3]
			}
		}
		switch op {
		case opPing:
			if err := c.writeFrame(opPong, payload); err != nil {
				return nil, err
			}
		case opPong:
			// ignore
		case opClose:
			c.writeFrame(opClose, nil)
			return nil, io.EOF
		default:
			return payload, nil
		}
	}
}

// Close sends a close frame (best effort) and closes the connection.
func (c *WSConn) Close() error {
	c.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	c.writeFrame(opClose, nil)
	return c.conn.Close()
}

// ServeOptions tunes one ServeWS subscription.
type ServeOptions struct {
	// Job filters the stream to one job id ("" = firehose).
	Job string
	// Buffer bounds the subscriber channel (<= 0 = DefaultBuffer).
	Buffer int
	// WriteTimeout bounds each frame write; a consumer that stalls
	// longer is disconnected (<= 0 = 10s).
	WriteTimeout time.Duration
}

// ErrSlowConsumer is returned by ServeWS when the peer stalled past
// WriteTimeout (or failed a write) and was disconnected; callers count
// it against their stream-error metric.
var ErrSlowConsumer = errors.New("events: slow consumer disconnected")

// ServeWS upgrades the request and streams matching hub events to the
// peer, one deterministic JSON text frame per event, until the peer
// closes, the request context ends, or a write stalls past
// WriteTimeout. It returns nil on a clean client close and
// ErrSlowConsumer (wrapping the write error) on a stall — the
// subscription is torn down either way, so a dead browser can never
// pin hub resources.
func ServeWS(h *Hub, w http.ResponseWriter, r *http.Request, opt ServeOptions) error {
	timeout := opt.WriteTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := Upgrade(w, r)
	if err != nil {
		return err
	}
	sub := h.Subscribe(opt.Job, opt.Buffer)
	defer sub.Close()
	defer conn.Close()

	// The reader goroutine exists to notice the peer going away (close
	// frame or dropped TCP) and to answer pings; data frames from the
	// peer are discarded.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			if _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()

	ctxDone := r.Context().Done()
	var buf []byte
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return nil
			}
			buf = ev.AppendJSON(buf[:0])
			conn.SetWriteDeadline(time.Now().Add(timeout))
			if err := conn.WriteText(buf); err != nil {
				return fmt.Errorf("%w: %w", ErrSlowConsumer, err)
			}
		case <-readerDone:
			return nil
		case <-ctxDone:
			return nil
		}
	}
}
