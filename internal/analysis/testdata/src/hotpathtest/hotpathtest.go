// Package hotpathtest exercises the hotpath analyzer: growth, string,
// go, defer, blocking and call-discipline findings in hot_path:
// functions, blocking findings in cheap: bodies, the locks= escape,
// the deferred-unlock exemption, and the amortized-growth suppression.
package hotpathtest

import (
	"fmt"
	"sync"
	"sync/atomic"
)

type counter struct {
	mu   sync.Mutex
	n    uint64
	hits atomic.Uint64
	buf  []uint64
}

// hotOK is the clean negative: a short critical section of an allowed
// class, an atomic bump, and a hot leaf call.
// hot_path: locks=mu
func (c *counter) hotOK() uint64 {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	c.hits.Add(1)
	return n + leafHot(n)
}

// leafHot is a pure leaf.
// hot_path:
func leafHot(x uint64) uint64 { return x * 2654435761 }

// cheapFill refills the buffer; allocation is allowed in cheap bodies.
// cheap: locks=mu
func (c *counter) cheapFill() {
	c.mu.Lock()
	c.buf = append(make([]uint64, 0, 64), c.buf...)
	c.mu.Unlock()
}

// hotCallsCheap: hot may call cheap.
// hot_path:
func (c *counter) hotCallsCheap() {
	if len(c.buf) == 0 {
		c.cheapFill()
	}
}

// hotDeferUnlock uses the one allowed defer.
// hot_path: locks=mu
func (c *counter) hotDeferUnlock() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// hotPoll: a select with a default polls, not blocks.
// hot_path:
func hotPoll(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// hotGrowSuppressed documents the amortized-growth escape; the
// suppression is load-bearing (delete it and this suite fails).
// hot_path:
func (c *counter) hotGrowSuppressed(v uint64) {
	//lint:ignore hotpath amortized: capacity doubles, growth is O(1)/op
	c.buf = append(c.buf, v)
}

// hot_path:
func (c *counter) hotAppend(v uint64) {
	c.buf = append(c.buf, v) // want `append in hot path hotAppend may grow its backing array`
}

// hot_path:
func hotMapInsert(m map[int]int, s []int, k int) {
	m[k] = 1  // want `map insert in hot path hotMapInsert may grow the map`
	m[k] += 2 // want `map insert in hot path hotMapInsert`
	m[k]++    // want `map insert in hot path hotMapInsert`
	s[k] = 3  // a slice element: nothing grows
}

// hot_path:
func hotDefer(c *counter) {
	defer c.cheapFill() // want `defer in hot path hotDefer`
}

// hot_path:
func hotBlocks(ch chan int) {
	ch <- 1  // want `channel send in hot path hotBlocks blocks`
	<-ch     // want `channel receive in hot path hotBlocks blocks`
	select { // want `select without default in hot path hotBlocks blocks`
	case v := <-ch: // want `channel receive in hot path hotBlocks blocks`
		_ = v
	}
}

// hot_path:
func hotGo(c *counter) {
	go c.cheapFill() // want `go statement in hot path hotGo`
}

// hot_path:
func hotLock(c *counter) {
	c.mu.Lock() // want `acquiring mu in hot path hotLock blocks`
	c.mu.Unlock()
}

// hot_path:
func hotWG(wg *sync.WaitGroup) {
	wg.Add(1)
	wg.Done()
	wg.Wait() // want `WaitGroup.*Wait in hot path hotWG blocks`
}

// hotIIFE: an immediately-invoked literal's body is checked as hot.
// hot_path:
func hotIIFE(s []uint64) []uint64 {
	return func() []uint64 {
		return append(s, 1) // want `append in hot path func literal may grow its backing array`
	}()
}

// hot_path:
func hotString(a, b string) string {
	return a + b // want `string concatenation in hot path hotString allocates`
}

// hot_path:
func hotConv(b []byte) string {
	return string(b) // want `string conversion in hot path hotConv allocates`
}

// hot_path:
func hotSprint(v uint64) {
	_ = fmt.Sprint(v) // want `hot path hotSprint calls fmt.Sprint`
}

func plain() {}

// hot_path:
func hotCallsPlain() {
	plain() // want `hot path hotCallsPlain calls plain, which is neither hot_path: nor cheap:`
}

// hot_path:
func hotFuncValue(f func()) {
	f() // want `call through a function value in hot path hotFuncValue`
}

// cheap: locks=mu
func (c *counter) cheapBlocks(ch chan int) {
	c.mu.Lock()
	c.mu.Unlock()
	<-ch // want `channel receive in cheap function cheapBlocks blocks`
}

// cheap:
func cheapLocksWrong(c *counter) {
	c.mu.Lock() // want `acquiring mu in cheap function cheapLocksWrong blocks`
	c.mu.Unlock()
}
