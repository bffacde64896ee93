// Package lockordertest exercises lockorder: rank inversions (direct,
// interprocedural, and via locks_held entry contracts), lock-order
// cycles, same-class nesting, no_block violations, and the suppression
// directive.
package lockordertest

import (
	"sync"
	"time"
)

type A struct {
	mu sync.Mutex // lock_rank: 10
}

type B struct {
	mu sync.Mutex // lock_rank: 20
}

// lock_rank: 30
var gmu sync.Mutex

type R1 struct {
	mu sync.Mutex // lock_rank: 5
}

type R2 struct {
	mu sync.Mutex // lock_rank: 6
}

type R3 struct {
	mu sync.Mutex // lock_rank: 7
}

type R4 struct {
	mu sync.Mutex // lock_rank: 8
}

type H struct {
	mu sync.Mutex // lock_rank: 50
}

type S1 struct {
	mu sync.Mutex // lock_rank: 100
}

type S2 struct {
	mu sync.Mutex // lock_rank: 90
}

// E and F are unranked: only cycle detection covers them.
type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }

type N struct{ mu sync.Mutex }

type FastPath struct {
	mu sync.Mutex // no_block: hot-path lock; holders must not sleep or wait
}

var ch = make(chan int)

// goodOrder acquires in strictly increasing rank: clean.
func goodOrder(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// goodVarOrder: struct-field lock before a higher-ranked package var.
func goodVarOrder(b *B) {
	b.mu.Lock()
	gmu.Lock()
	gmu.Unlock()
	b.mu.Unlock()
}

// badOrderDirect inverts two ranked classes in one body.
func badOrderDirect(r1 *R1, r2 *R2) {
	r2.mu.Lock()
	r1.mu.Lock() // want `ranks must strictly increase`
	r1.mu.Unlock()
	r2.mu.Unlock()
}

func lockR3(r *R3) {
	r.mu.Lock()
	r.mu.Unlock()
}

// badOrderInterproc inverts through a helper: the callee's transitive
// acquisitions are charged to the callsite.
func badOrderInterproc(r3 *R3, r4 *R4) {
	r4.mu.Lock()
	lockR3(r3) // want `ranks must strictly increase`
	r4.mu.Unlock()
}

// heldMethod's caller contractually holds h.mu (rank 50), so acquiring
// the rank-10 class inside is an inversion.
//
// locks_held: mu
func (h *H) heldMethod(a *A) {
	a.mu.Lock() // want `ranks must strictly increase`
	a.mu.Unlock()
}

// cycleOne and cycleTwo take the unranked E/F pair in opposite orders;
// the cycle is reported at the earliest witnessing edge.
func cycleOne(e *E, f *F) {
	e.mu.Lock()
	f.mu.Lock() // want `lock-order cycle`
	f.mu.Unlock()
	e.mu.Unlock()
}

func cycleTwo(e *E, f *F) {
	f.mu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	f.mu.Unlock()
}

// selfNest acquires two instances of one class with no instance order.
func selfNest(m1, m2 *N) {
	m1.mu.Lock()
	m2.mu.Lock() // want `same class`
	m2.mu.Unlock()
	m1.mu.Unlock()
}

// suppressedInversion is a deliberate, documented inversion: the
// directive is load-bearing (deleting it fails the build gate).
func suppressedInversion(s1 *S1, s2 *S2) {
	s1.mu.Lock()
	//lint:ignore lockorder boot path runs before any second goroutine exists
	s2.mu.Lock()
	s2.mu.Unlock()
	s1.mu.Unlock()
}

// badSendUnderFast blocks on a bare channel send inside a no_block
// critical section.
func badSendUnderFast(fp *FastPath) {
	fp.mu.Lock()
	ch <- 1 // want `channel send while holding no_block lock`
	fp.mu.Unlock()
}

// goodTrySendUnderFast uses select-with-default: non-blocking, clean.
func goodTrySendUnderFast(fp *FastPath) {
	fp.mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	fp.mu.Unlock()
}

// badRangeUnderFast drains a channel inside a no_block critical
// section.
func badRangeUnderFast(fp *FastPath) {
	fp.mu.Lock()
	for range ch { // want `ranging over a channel while holding no_block lock`
	}
	fp.mu.Unlock()
}

// badSelectUnderFast parks forever inside a no_block critical section:
// a select with no clause has no comm to report, only itself.
func badSelectUnderFast(fp *FastPath) {
	fp.mu.Lock()
	select {} // want `select without default while holding no_block lock`
}

// badSelectRecvUnderFast waits on a select without default inside a
// no_block critical section: reported once, at its comm.
func badSelectRecvUnderFast(fp *FastPath) {
	fp.mu.Lock()
	select {
	case <-ch: // want `channel receive while holding no_block lock`
	}
	fp.mu.Unlock()
}

var once sync.Once

// badOnceUnderFast runs a sync.Once inside a no_block critical section:
// Do waits for a concurrent first call to finish.
func badOnceUnderFast(fp *FastPath) {
	fp.mu.Lock()
	once.Do(func() {}) // want `call to once.Do while holding no_block lock`
	fp.mu.Unlock()
}

func blocker() {
	time.Sleep(time.Millisecond)
}

// badCallUnderFast calls a function that may block while holding the
// no_block lock.
func badCallUnderFast(fp *FastPath) {
	fp.mu.Lock()
	blocker() // want `may block while holding no_block lock`
	fp.mu.Unlock()
}
