package main

import (
	"bufio"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderClientIsDisconnected: a client that trickles its request
// headers one byte at a time must be cut off once the header timeout
// passes, instead of pinning a server goroutine for as long as it keeps
// sending.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	srv := newHTTPServer(mux)
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server timeouts unset: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	// Shrink the header budget so the test runs in well under a second;
	// everything else is the production server.
	srv.ReadHeaderTimeout = 200 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	closed := make(chan struct{})
	go func() {
		// Whatever the server sends (a 408 or nothing), the read ends when
		// it closes the connection.
		bufio.NewReader(conn).ReadString(0)
		close(closed)
	}()

	const trickle = "GET /healthz HTTP/1.1\r\nHost: localhost\r\nX-Slow: "
	start := time.Now()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-closed:
			if el := time.Since(start); el < srv.ReadHeaderTimeout {
				t.Fatalf("connection closed after %v, before the %v header timeout", el, srv.ReadHeaderTimeout)
			}
			return
		case <-tick.C:
			if time.Since(start) > 5*time.Second {
				t.Fatal("server kept a trickling client connected for 5s")
			}
			b := byte('a')
			if i < len(trickle) {
				b = trickle[i]
			}
			conn.Write([]byte{b}) // fails once the server hangs up; the read sees it
		}
	}
}
