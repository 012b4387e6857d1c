// Package flagged exercises both lockcheck rules: locks that escape the
// function still held, and blocking operations under a held lock (this
// fixture package is configured as a blocking-checked package in the
// test).
package flagged

import (
	"net/http"
	"sync"
	"time"
)

// Solve and SolvePotentials stand in for the solver entry points.
func Solve() {}

func SolvePotentials() {}

type cache struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

// earlyReturn leaves the mutex held on the miss path.
func (c *cache) earlyReturn(k string) int {
	c.mu.Lock() // want "c.mu.Lock.. is not released before earlyReturn returns"
	v, ok := c.data[k]
	if !ok {
		return -1
	}
	c.mu.Unlock()
	return v
}

// leaks never unlocks at all.
func (c *cache) leaks() {
	c.mu.Lock() // want "c.mu.Lock.. is not released before leaks returns"
	c.data["k"] = 1
}

// rlockLeak holds the read lock past the return.
func (c *cache) rlockLeak() int {
	c.rw.RLock() // want "c.rw.RLock.. is not released before rlockLeak returns"
	return len(c.data)
}

// double locks a mutex it already holds.
func (c *cache) double() {
	c.mu.Lock()
	c.mu.Lock() // want "c.mu.Lock.. while c.mu is already held .*self-deadlock"
	c.mu.Unlock()
}

// blockSend sends on a channel under the lock.
func (c *cache) blockSend(ch chan int) {
	c.mu.Lock()
	ch <- len(c.data) // want "channel send while c.mu is held"
	c.mu.Unlock()
}

// blockRecv receives under a deferred unlock: the lock is released
// correctly but still held across the blocking receive.
func (c *cache) blockRecv(ch chan int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-ch // want "channel receive while c.mu is held"
}

// blockWait waits on a WaitGroup under the lock.
func (c *cache) blockWait(wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want "WaitGroup.Wait while c.mu is held"
}

// blockSleep sleeps holding the read lock.
func (c *cache) blockSleep() {
	c.rw.RLock()
	defer c.rw.RUnlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while c.rw is held"
}

// blockHTTP performs a network round-trip under the lock.
func (c *cache) blockHTTP(url string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := http.Get(url) // want "net/http call Get while c.mu is held"
	return err
}

// blockSolve runs the solver under the lock.
func (c *cache) blockSolve() {
	c.mu.Lock()
	defer c.mu.Unlock()
	Solve() // want "solver call Solve while c.mu is held"
}

// blockSolvePotentials runs the library's potential solve under the lock.
func (c *cache) blockSolvePotentials() {
	c.mu.Lock()
	defer c.mu.Unlock()
	SolvePotentials() // want "solver call SolvePotentials while c.mu is held"
}
