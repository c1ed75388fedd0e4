package temporal

import (
	"errors"
	"math"
	"sync"
	"time"
)

// Clock issues strictly monotonically increasing transaction timestamps.
// Stores use it to stamp sys_period bounds: two updates that arrive within
// the same wall-clock instant must still receive distinct, ordered
// transaction times so that history intervals never collapse to empty.
//
// Timestamps are Unix nanoseconds. The zero Clock is ready to use and
// follows the system wall clock. Tests and deterministic workload replays
// install a fixed base time and step with SetNow/Advance.
type Clock struct {
	mu sync.Mutex
	// last is the newest reading issued, fenced or ensured past; it holds
	// one once issued is set.
	last   int64
	issued bool
	manual bool
	now    int64
}

// NewManualClock returns a Clock pinned at start that only moves when
// Advance or SetNow is called (plus the minimal tick Next applies to stay
// strictly monotonic).
func NewManualClock(start time.Time) *Clock {
	return &Clock{manual: true, now: Nanos(start)}
}

// read returns the manual reading or the wall clock, in Unix ns.
func (c *Clock) read() int64 {
	if c.manual {
		return c.now
	}
	return time.Now().UnixNano()
}

// ErrExhausted is Next's answer once no timestamp is left below Forever:
// the clock reads or has issued a time at the end of the int64 range.
var ErrExhausted = errors.New("temporal: clock exhausted: no transaction time left before Forever")

// Next returns the next transaction timestamp. Successive calls always
// return strictly increasing times, a microsecond apart when the reading
// has not moved past the last one. A timestamp is below Forever, so the
// version it opens is never empty; where none is left Next issues
// nothing and returns ErrExhausted.
func (c *Clock) Next() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.read()
	if c.issued && t <= c.last {
		t = Add(c.last, time.Microsecond)
	}
	if t == Forever {
		return 0, ErrExhausted
	}
	c.last, c.issued = t, true
	return t, nil
}

// Now reports the clock's current reading without consuming a timestamp.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.read(); !c.issued || t > c.last {
		return t
	}
	return c.last
}

// Fence returns the clock's current reading and guarantees that every
// subsequently issued timestamp lies strictly after it. Unlike Now, the
// reading is a safe coverage watermark: no future Next can return a time
// at or before a fenced reading, so "everything at or before this time"
// is a closed set the moment Fence returns.
func (c *Clock) Fence() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.read()
	if c.issued && t < c.last {
		t = c.last
	}
	c.last, c.issued = t, true
	return t
}

// Latest returns the newest timestamp the clock has issued or been fenced
// or ensured past, math.MinInt64 before the first. It never advances the
// clock.
func (c *Clock) Latest() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.issued {
		return math.MinInt64
	}
	return c.last
}

// EnsureAfter guarantees that subsequently issued timestamps lie strictly
// after t — used when restoring persisted history so new writes never
// collide with stored transaction times. Works on both wall and manual
// clocks.
func (c *Clock) EnsureAfter(t int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.issued || c.last < t {
		c.last, c.issued = t, true
	}
}

// Advance moves a manual clock forward by d. It panics on a wall clock.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.manual {
		panic("temporal: Advance on wall clock")
	}
	c.now = Add(c.now, d)
}

// SetNow pins a manual clock at t. It panics on a wall clock.
func (c *Clock) SetNow(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.manual {
		panic("temporal: SetNow on wall clock")
	}
	c.now = Nanos(t)
}
