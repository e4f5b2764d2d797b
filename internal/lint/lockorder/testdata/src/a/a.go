// Package a exercises the locksafe family: failpoint sites and channel
// sends under a held mutex are flagged; release-first, annotated, and
// closure-local sites are not.
package a

import (
	"sync"

	"fail"
)

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
}

func (s *S) deferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = fail.Hit(fail.Registered) // want `failpoint fail\.Hit hit while holding s\.mu`
	s.ch <- 1                     // want `channel send while holding s\.mu`
}

func (s *S) reader() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_ = fail.Drop(fail.Registered, "peer") // want `failpoint fail\.Drop hit while holding s\.rw`
}

func (s *S) releaseFirst() int {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	_ = fail.Hit(fail.Registered) // lock already released: fine
	s.ch <- v
	return v
}

func (s *S) annotated() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = fail.HitTag(fail.Registered, "tag") //nezha:locksafe-ok the injected delay models a slow store stalling every caller
}

func (s *S) closure() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1 // the goroutine does not hold s.mu; scanned with a fresh stack
	}()
}

func (s *S) unlocked() {
	_ = fail.Hit(fail.Registered) // no lock anywhere: fine
	s.ch <- 1
}

func (s *S) earlyUnlock(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	_ = fail.Hit(fail.Registered) // want `failpoint fail\.Hit hit while holding s\.mu`
	s.mu.Unlock()
}
