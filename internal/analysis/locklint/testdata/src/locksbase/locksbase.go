// Package locksbase is the guarded half of the locklint golden fixture: a
// counter whose fields are guarded by an exported mutex, *Locked helpers
// with interprocedural contracts, critical-section escapes, and lock-order
// seeds completed by the importing locks package.
package locksbase

import "sync"

// Counter is a tiny guarded state machine. The mutex is exported so the
// sibling fixture package can exercise cross-package holding.
type Counter struct {
	Mu    sync.Mutex
	N     int   // guarded by Mu
	Items []int // guarded by Mu
}

// BumpLocked requires Mu: its contract is inferred from the guarded access.
func (c *Counter) BumpLocked() {
	c.N++
}

// Bump locks in its own body, satisfying BumpLocked's contract directly.
func (c *Counter) Bump() {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	c.BumpLocked()
}

// Careless has no callers, so nothing proves the lock is held.
func Careless(c *Counter) {
	c.BumpLocked() // want "without holding"
}

// Process satisfies the contract interprocedurally: every one of its call
// sites (in the locks package) holds Mu, so the call below is clean.
func Process(c *Counter) {
	c.BumpLocked()
}

// Grab acquires Mu on behalf of its callers. Its only call site (in the
// locks package) already holds locks.Wrapper.mu, which the declared order
// puts after Counter.Mu — the inversion surfaces here.
func Grab(c *Counter) {
	c.Mu.Lock() // want "lock order violation"
	c.N++
	c.Mu.Unlock()
}

// Value copies guarded state out under the lock: no escape.
func (c *Counter) Value() int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.N
}

// Snapshot leaks the guarded slice itself.
func (c *Counter) Snapshot() []int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.Items // want "escape"
}

// SnapshotCopy returns a copy, which is the sanctioned shape.
func (c *Counter) SnapshotCopy() []int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return append([]int(nil), c.Items...)
}

// Steal leaks too, but the suppression documents a considered exception.
func (c *Counter) Steal() []int {
	return c.Items //eflint:ignore locklint fixture: snapshot handed to a test helper that owns the lock
}

// Addr publishes a pointer into the critical section.
func (c *Counter) Addr() *int {
	return &c.N // want "taking the address" "N is guarded by Mu, but Addr neither locks it"
}

// SpawnBad touches guarded state from a goroutine that never locks.
func (c *Counter) SpawnBad() {
	go func() {
		c.N++ // want "goroutine captures N" "N is guarded by Mu, but SpawnBad neither locks it"
	}()
}

// SpawnGood locks inside the goroutine, so the capture is safe.
func (c *Counter) SpawnGood() {
	go func() {
		c.Mu.Lock()
		defer c.Mu.Unlock()
		c.N++
	}()
}

// Twice self-deadlocks within one body.
func (c *Counter) Twice() {
	c.Mu.Lock()
	c.Mu.Lock() // want "may already be held"
	c.N += 2
	c.Mu.Unlock()
	c.Mu.Unlock()
}

// Outer holds Mu across a call to relock, which acquires it again: the
// self-deadlock is only visible through the call graph.
func (c *Counter) Outer() {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	c.relock()
}

func (c *Counter) relock() {
	c.Mu.Lock() // want "may already be held"
	c.N++
	c.Mu.Unlock()
}

//eflint:lockorder scratch // want "malformed //eflint:lockorder mutex"
