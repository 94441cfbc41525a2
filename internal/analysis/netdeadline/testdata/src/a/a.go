// Package a is golden input for the netdeadline analyzer.
package a

import (
	"encoding/json"
	"io"
	"net"
	"time"
)

func badRead(c net.Conn, buf []byte) {
	c.Read(buf) // want "conn.Read with no Set"
}

func badWrite(c net.Conn, buf []byte) {
	c.Write(buf) // want "conn.Write with no Set"
}

func goodRead(c net.Conn, buf []byte, timeout time.Duration) {
	if timeout > 0 {
		c.SetReadDeadline(time.Now().Add(timeout))
	}
	c.Read(buf) // guarded anchor earlier in the function: ok
}

func goodWrite(c net.Conn, buf []byte, timeout time.Duration) {
	c.SetWriteDeadline(time.Now().Add(timeout))
	c.Write(buf)
}

func badCodec(c net.Conn) error {
	var v int
	return json.NewDecoder(c).Decode(&v) // want "conn-backed"
}

func goodCodec(c net.Conn, timeout time.Duration) error {
	c.SetDeadline(time.Now().Add(timeout))
	var v int
	return json.NewDecoder(c).Decode(&v)
}

func fileCodec(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v) // no conn in scope: ok
}

type wrapped struct {
	net.Conn
}

func wrapperOK(w *wrapped, buf []byte) {
	w.Read(buf) // named wrapper owns its deadlines: exempt
}

func suppressed(c net.Conn, buf []byte) {
	//lint:ignore sharingvet/netdeadline the caller set the deadline
	c.Read(buf)
}
