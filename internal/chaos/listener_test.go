package chaos_test

import (
	"net"
	"testing"

	"repro/internal/chaos"
)

// TestFlakyListenerCountsBeforeReset pins the sever ordering: a
// connection is counted before its socket is reset, so a peer that has
// already seen its read fail always finds the cut in Severed. Both cut
// paths are covered — an exhausted write budget and a partition.
func TestFlakyListenerCountsBeforeReset(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
		// serve writes on the accepted connection; cut severs from outside.
		serve func(net.Conn)
		cut   func(*chaos.FlakyListener)
	}{
		{"write budget", 4, func(c net.Conn) { c.Write([]byte("response past the budget")) }, func(*chaos.FlakyListener) {}},
		{"partition", 0, func(net.Conn) {}, (*chaos.FlakyListener).Partition},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			flaky := chaos.NewFlakyListener(inner, tc.budget, 0)
			defer flaky.Close()
			// Dial before accepting: the handshake completes in the backlog,
			// so the cut cannot race the peer's connect.
			peer, err := net.Dial("tcp", inner.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			c, err := flaky.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// Cut from another goroutine, as a serving goroutine would: the
			// peer may see the reset before that goroutine runs on.
			done := make(chan struct{})
			go func() {
				defer close(done)
				tc.serve(c)
				tc.cut(flaky)
			}()

			buf := make([]byte, 64)
			got := 0
			for {
				n, err := peer.Read(buf)
				got += n
				if err != nil {
					break
				}
			}
			severed := flaky.Severed()
			<-done
			if severed != 1 {
				t.Fatalf("peer read failed but Severed() = %d, want 1", severed)
			}
			if int64(got) > tc.budget {
				t.Errorf("peer read %d bytes past a %d-byte budget", got, tc.budget)
			}
		})
	}
}
