package chaos

import (
	"net"
	"sync"
	"sync/atomic"
)

// FlakyListener wraps a net.Listener with connection-level fault
// injection: every accepted connection may only write a budget of
// response bytes before the connection is severed abruptly (the socket
// is closed mid-write, so the peer sees a response cut off — unexpected
// EOF or connection reset, not a clean close). It models a server dying
// or a middlebox cutting connections mid-response, the failure shape
// network clients must surface as a typed transport error rather than a
// truncated "success".
//
// Partition models a network split instead of a dying responder: every
// live connection — parked replication long-polls included — is cut
// abruptly, and new connections are refused until Heal, while the
// listener keeps its address so service resumes on the same URL. The
// wrapped server itself keeps running the whole time, which is exactly
// the split-brain hazard: a partitioned-away primary that still thinks
// it is the primary.
//
// A zero budget leaves writes unlimited (accept-only wrapping); Heal
// ends an outage at an exact point, like Accessor.Heal. skipConns lets
// the first N connections through untouched, so a test can establish a
// healthy exchange before the fault fires. All knobs are safe to adjust
// while the listener serves.
type FlakyListener struct {
	net.Listener

	budget      atomic.Int64 // per-connection response byte budget; 0 = off
	skip        atomic.Int64 // connections exempted from injection
	accepted    atomic.Int64
	severed     atomic.Int64
	partitioned atomic.Bool

	mu   sync.Mutex
	live map[*trackedConn]struct{}
}

// NewFlakyListener wraps inner: each accepted connection past the first
// skipConns may write at most writeBudget response bytes before being
// severed (0 disables injection).
func NewFlakyListener(inner net.Listener, writeBudget, skipConns int64) *FlakyListener {
	l := &FlakyListener{Listener: inner, live: make(map[*trackedConn]struct{})}
	l.budget.Store(writeBudget)
	l.skip.Store(skipConns)
	return l
}

// Partition cuts the node off: every live connection is severed
// abruptly (a TCP RST where supported) and new connections are refused
// until Heal. The listener keeps accepting at the socket level — its
// address stays stable — but every accepted connection is closed before
// a byte is exchanged, so peers see resets, not a vanished endpoint.
func (l *FlakyListener) Partition() {
	l.partitioned.Store(true)
	l.mu.Lock()
	conns := make([]*trackedConn, 0, len(l.live))
	for c := range l.live {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.sever()
	}
}

// Heal ends the outage: the partition lifts and future connections are
// untouched.
func (l *FlakyListener) Heal() {
	l.budget.Store(0)
	l.partitioned.Store(false)
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.partitioned.Load() {
		// Refuse: close abruptly before any exchange. The dead conn is
		// still handed to the server, whose first read fails — returning an
		// error here would make net/http stop serving entirely.
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = conn.Close()
		return conn, nil
	}
	n := l.accepted.Add(1)
	budget := l.budget.Load()
	c := &trackedConn{
		Conn:    conn,
		limited: budget > 0 && n > l.skip.Load(),
		budget:  budget,
		onSever: func() { l.severed.Add(1) },
		onClose: l.drop,
	}
	l.mu.Lock()
	l.live[c] = struct{}{}
	l.mu.Unlock()
	return c, nil
}

func (l *FlakyListener) drop(c *trackedConn) {
	l.mu.Lock()
	delete(l.live, c)
	l.mu.Unlock()
}

// Severed reports how many connections were cut mid-response or by a
// partition.
func (l *FlakyListener) Severed() int64 { return l.severed.Load() }

// trackedConn is one accepted connection: severable at any moment (the
// partition path) and, when limited, cut once its write budget is
// spent. The budget is only charged for writes (responses); reads are
// untouched, so the request always arrives intact — the fault is a
// dying responder.
type trackedConn struct {
	net.Conn
	mu      sync.Mutex
	limited bool
	budget  int64
	dead    bool
	onSever func()
	onClose func(*trackedConn)
}

func (c *trackedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	if !c.limited {
		// The lock is NOT held across the write: a Partition must be able
		// to sever a connection that is blocked mid-write.
		c.mu.Unlock()
		return c.Conn.Write(p)
	}
	if int64(len(p)) <= c.budget {
		c.budget -= int64(len(p))
		c.mu.Unlock()
		return c.Conn.Write(p)
	}
	// Spend what remains, then sever abruptly: SetLinger(0) makes the
	// close a TCP RST where supported, the hardest version of the fault.
	rem := c.budget
	c.budget = 0
	c.dead = true
	c.mu.Unlock()
	n := 0
	if rem > 0 {
		n, _ = c.Conn.Write(p[:rem])
	}
	c.cut()
	return n, net.ErrClosed
}

// sever cuts the connection abruptly; idempotent.
func (c *trackedConn) sever() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.mu.Unlock()
	c.cut()
}

// cut counts the sever, then closes the underlying socket with linger
// disabled (RST). The count comes first: the peer can observe the reset
// the moment the socket closes, and by then Severed must include it.
func (c *trackedConn) cut() {
	if c.onSever != nil {
		c.onSever()
	}
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
}

// Close implements net.Conn, untracking the connection from its
// listener's live set.
func (c *trackedConn) Close() error {
	if c.onClose != nil {
		c.onClose(c)
	}
	return c.Conn.Close()
}
