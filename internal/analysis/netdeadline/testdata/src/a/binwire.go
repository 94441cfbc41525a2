// The binary wire shape: framed reads and writes and the version
// handshake need the same deadline coverage as raw conn I/O.
package a

import (
	"net"
	"time"

	"transport"
)

type binWire struct {
	conn net.Conn
	fw   *transport.FrameWriter
	fr   *transport.FrameReader
}

// badFrameRead demultiplexes replies but never arms a read deadline: a
// stalled peer wedges the loop forever.
func (w *binWire) badFrameRead() {
	for {
		_, _, err := w.fr.ReadFrame() // want "conn-backed ReadFrame"
		if err != nil {
			w.conn.Close()
			return
		}
	}
}

// goodFrameRead arms the read deadline before each frame read.
func (w *binWire) goodFrameRead(timeout time.Duration) {
	for {
		w.conn.SetReadDeadline(time.Now().Add(timeout))
		_, _, err := w.fr.ReadFrame()
		if err != nil {
			w.conn.Close()
			return
		}
	}
}

// badFrameWrite emits a frame with no write deadline.
func (w *binWire) badFrameWrite(id uint64) error {
	defer w.conn.Close()
	return w.fw.WriteFrame(id, nil) // want "conn-backed WriteFrame"
}

// goodHandshake covers both handshake directions with one deadline.
func (w *binWire) goodHandshake(timeout time.Duration) error {
	w.conn.SetDeadline(time.Now().Add(timeout))
	if err := transport.WriteHello(w.conn, 1); err != nil {
		return err
	}
	_, err := transport.ReadHello(w.conn)
	return err
}

// badHandshake never arms one.
func (w *binWire) badHandshake() error {
	return transport.WriteHello(w.conn, 1) // want "conn-backed WriteHello"
}

// fileFrames write frames to something that is not a connection: no
// conn in scope, no finding.
func fileFrames(fw *transport.FrameWriter, id uint64) error {
	return fw.WriteFrame(id, nil)
}

// writeUnderReadDeadline arms only the read direction: the hello it
// writes is still unbounded.
func (w *binWire) writeUnderReadDeadline(timeout time.Duration) error {
	w.conn.SetReadDeadline(time.Now().Add(timeout))
	if _, err := transport.ReadHello(w.conn); err != nil {
		return err
	}
	return transport.WriteHello(w.conn, 1) // want "conn-backed WriteHello with no SetDeadline or SetWriteDeadline"
}

// readUnderWriteDeadline arms only the write direction: the frame it
// reads is still unbounded.
func (w *binWire) readUnderWriteDeadline(timeout time.Duration) error {
	w.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := w.fw.WriteFrame(1, nil); err != nil {
		return err
	}
	_, _, err := w.fr.ReadFrame() // want "conn-backed ReadFrame with no SetDeadline or SetReadDeadline"
	return err
}

// bothUnderOneDeadline: SetDeadline bounds a write and a read alike.
func (w *binWire) bothUnderOneDeadline(timeout time.Duration) error {
	w.conn.SetDeadline(time.Now().Add(timeout))
	if err := w.fw.WriteFrame(1, nil); err != nil {
		return err
	}
	_, _, err := w.fr.ReadFrame()
	return err
}
