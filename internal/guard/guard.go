// Package guard converts panics in worker goroutines into errors. The
// serving fan-outs (Server.MatchMany/TopKMany) run request work on pooled
// goroutines behind WaitGroup barriers; an unrecovered panic there kills
// the whole process, and a recover placed wrongly — outside the worker's
// job call — would skip the barrier's Done and deadlock every sibling. Safe wraps exactly the
// job invocation, so the enclosing worker loop (and its deferred Done)
// keeps running and one poisoned request fails alone.
package guard

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered worker panic presented as an error. Match
// with errors.As to distinguish poisoned requests from ordinary failures
// (the Server counts them in pm_panics_total and dumps the offending
// request to the slow-query log).
type PanicError struct {
	// Val is the value the worker panicked with.
	Val any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("prefmatch: worker panic: %v", e.Val)
}

// Safe runs fn, converting a panic into a *PanicError return. A nil
// return from fn stays nil.
func Safe(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
