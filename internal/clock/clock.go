// Package clock provides a clock abstraction so that measurement runs can
// execute against a virtual timeline. The paper watched each channel for
// 900-1000 seconds of wall time; the virtual clock compresses those windows
// into microseconds while keeping every timestamp-dependent analysis (cookie
// expiry, Unix-timestamp ID heuristics, the "5 pm to 6 am" policy window)
// exact.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the measurement
// framework. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant on this clock's timeline.
	Now() time.Time
	// Sleep advances the timeline by d. A real clock blocks; a virtual
	// clock advances instantly.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the system clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a deterministic Clock that only moves when Sleep or Set is
// called. The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock by advancing the timeline by d without blocking.
// Negative durations are ignored.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}

// Set moves the clock to t. Moving backwards is allowed; the measurement
// framework uses this to pin run start dates (e.g. the five runs of the
// study took place on fixed dates between August and December 2023).
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = t
}
