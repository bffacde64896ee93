// Package locktest exercises lockguard against the sharded-map shapes
// from internal/service and internal/search: guarded_by fields,
// locks_held helper contracts, defer-unlock, and unlock-then-touch.
package locktest

import "sync"

type shard struct {
	mu sync.Mutex
	// guarded_by: mu
	entries map[int]int
	victim  int // guarded_by: mu
}

// goodLocked takes the shard lock around the access.
func goodLocked(sh *shard) int {
	sh.mu.Lock()
	v := sh.entries[1]
	sh.mu.Unlock()
	return v
}

// goodDeferUnlock uses the defer idiom: held state persists to the end.
func goodDeferUnlock(sh *shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.victim++
	return sh.entries[2]
}

// goodHelper relies on the caller contract, like the lru helpers in
// internal/service.
//
// locks_held: mu
func goodHelper(sh *shard) int {
	return sh.entries[3]
}

// badUnlocked reads a guarded field with no lock anywhere in sight.
func badUnlocked(sh *shard) int {
	return sh.entries[4] // want `guarded_by: mu`
}

// badAfterUnlock touches the field after releasing the mutex.
func badAfterUnlock(sh *shard) int {
	sh.mu.Lock()
	v := sh.entries[5]
	sh.mu.Unlock()
	sh.victim = v // want `guarded_by: mu`
	return v
}

// badClosure: a function literal is its own scope — the lock held in
// the enclosing function does not carry into a goroutine body.
func badClosure(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	go func() {
		sh.victim = 9 // want `guarded_by: mu`
	}()
}

// suppressedConstructor: single-threaded init is a documented exception.
func suppressedConstructor() *shard {
	sh := &shard{entries: map[int]int{}}
	//lint:ignore lockorder the shard is not yet published to other goroutines
	sh.entries[0] = 1
	return sh
}

// cleanUnguarded accesses a field with no annotation.
func cleanUnguarded(sh *shard) *sync.Mutex {
	return &sh.mu
}

// heldHelper documents the caller contract; its enclosed synchronous
// literal inherits it.
//
// locks_held: mu
func heldHelper(sh *shard) {
	run := func() {
		sh.victim = 1 // clean: synchronous literal under the contract
	}
	run()
}

// badGoFromHeld: a literal handed to `go` from a locks_held function
// runs after the caller may have released mu — the contract must not
// transfer.
//
// locks_held: mu
func badGoFromHeld(sh *shard) {
	sh.victim = 2 // clean: the contract covers the synchronous body
	go func() {
		sh.victim = 3 // want `guarded_by: mu`
	}()
}

// goodGoReacquires: the spawned literal takes the lock itself.
//
// locks_held: mu
func goodGoReacquires(sh *shard) {
	go func() {
		sh.mu.Lock()
		sh.victim = 4
		sh.mu.Unlock()
	}()
}

// goArgLiteral: a literal passed as an argument to the spawned call
// escapes to the goroutine just the same.
//
// locks_held: mu
func goArgLiteral(sh *shard, spawn func(fn func())) {
	go spawn(func() {
		sh.victim = 5 // want `guarded_by: mu`
	})
}
