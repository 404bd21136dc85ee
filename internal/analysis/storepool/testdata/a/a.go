// Package a is the storepool golden suite: pooled stores must be
// released exactly once on every path.
package a

import "errors"

var errFail = errors.New("fail")

type store struct{ n int }

type pool struct{}

func (pool) Get() any        { return &store{} }
func (pool) Put(s *store)    {}
func (pool) lookGet() *store { return nil }

var storePool pool
var bufPool pool
var scratchPool pool

func (s *store) unpin() {}

func getStore() *store  { return storePool.Get().(*store) }
func putStore(s *store) {}

// --- flagged cases ---

func leakOnEarlyReturn(fail bool) error {
	st := getStore() // want `pooled store may leak: not released before the return`
	if fail {
		return errFail
	}
	putStore(st)
	return nil
}

func leakAtEnd() {
	st := getStore() // want `pooled store may leak: not released before the end of this function`
	st.n++
}

func doublePut() {
	st := getStore()
	putStore(st)
	putStore(st) // want `pooled store released twice`
}

func deferThenPut() {
	st := getStore()
	defer putStore(st)
	putStore(st) // want `pooled store released twice: a defer already releases it`
}

func discarded() {
	getStore() // want `pooled store discarded`
}

func loopLeak(n int) {
	for i := 0; i < n; i++ {
		st := getStore() // want `pooled store may leak: not released before the next loop iteration`
		st.n = i
	}
}

func overwriteHeld() {
	st := getStore()
	st = getStore() // want `pooled store overwritten while still held`
	putStore(st)
}

func poolGetLeak(fail bool) error {
	b := bufPool.Get().(*store) // want `pooled store may leak: not released before the return`
	if fail {
		return errFail
	}
	bufPool.Put(b)
	return nil
}

// A per-worker scratch taken inside the goroutine: the literal's body is
// a function of its own, and the early return leaks.
func workerScratchLeak(fail bool) {
	go func() {
		sc := scratchPool.Get().(*store) // want `pooled store may leak: not released before the return`
		if fail {
			return
		}
		scratchPool.Put(sc)
	}()
}

// --- clean cases ---

// fops.parallelRebuild's shape: the worker takes its scratch, and one
// deferred closure cleans it and then releases it unconditionally.
func workerScratch(fail bool) {
	go func() {
		sc := scratchPool.Get().(*store)
		defer func() {
			sc.unpin()
			scratchPool.Put(sc)
		}()
		if fail {
			return
		}
		mayPanic()
	}()
}

func releasedOnAllPaths(fail bool) error {
	st := getStore()
	if fail {
		putStore(st)
		return errFail
	}
	putStore(st)
	return nil
}

func deferCoversPanics(fail bool) error {
	st := getStore()
	defer putStore(st)
	if fail {
		return errFail
	}
	mayPanic()
	return nil
}

type holder struct{ st *store }

// Ownership escapes into the holder, whose Close releases it later.
func escapesIntoResult(fail bool) (*holder, error) {
	st := getStore()
	if fail {
		putStore(st)
		return nil, errFail
	}
	return &holder{st: st}, nil
}

// Ownership escapes by returning the store itself.
func escapesByReturn() *store {
	st := getStore()
	return st
}

func switchReleasesEverywhere(k int) {
	st := getStore()
	switch k {
	case 1:
		putStore(st)
	default:
		putStore(st)
	}
}

// The deferred closure releases unconditionally: same as defer putStore.
func deferredClosure(fail bool) error {
	st := getStore()
	defer func() {
		putStore(st)
	}()
	if fail {
		return errFail
	}
	return nil
}

// A conditional release inside the deferred closure hands the decision
// to the closure; tracking stops without a report.
func guardedDeferredClosure(fail bool) error {
	st := getStore()
	done := false
	defer func() {
		if !done {
			putStore(st)
		}
	}()
	if fail {
		return errFail
	}
	done = true
	putStore(st)
	return nil
}

func suppressedLeak(fail bool) error {
	st := getStore() //fdbvet:ignore storepool fixture intentionally leaks to exercise the pool refill path
	if fail {
		return errFail
	}
	putStore(st)
	return nil
}

func mayPanic() {}
