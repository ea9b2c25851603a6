// Package guard is locklint's guarded-access (L0) fixture: annotated shared
// state accessed with and without its mutex.
package guard

import "sync"

type store struct {
	mu sync.Mutex
	// items maps keys to counts. guarded by mu
	items map[string]int
	name  string // unguarded: free to read anywhere
}

// Get locks the guarding mutex: compliant.
func (s *store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items[k]
}

// sizeLocked follows the *Locked naming convention: the caller holds mu.
func (s *store) sizeLocked() int { return len(s.items) }

// Broken touches guarded state with no lock in sight.
func (s *store) Broken(k string, v int) {
	s.items[k] = v // want "items is guarded by mu, but Broken neither locks it"
}

// BrokenRead shows reads are reported too.
func (s *store) BrokenRead(k string) int {
	return s.items[k] // want "items is guarded by mu, but BrokenRead neither locks it"
}

// Name reads unguarded state: fine.
func (s *store) Name() string { return s.name }

// Suppressed demonstrates a documented exception.
func (s *store) Suppressed() int {
	//eflint:ignore locklint fixture demonstrating a documented exception
	return len(s.items)
}

type rwstore struct {
	mu sync.RWMutex
	// guarded by mu
	snapshot []int
}

// Read takes the read lock: compliant.
func (r *rwstore) Read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.snapshot)
}

type misannotated struct {
	// guarded by nosuch
	x int // want "names no field of this struct"
}

func (m *misannotated) X() int { return m.x }
