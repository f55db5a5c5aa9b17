package prefmatch

import (
	"context"

	"prefmatch/internal/cancel"
)

// This file is the context-accepting face of the Server: every serving and
// write method has a *Context variant that honours ctx's deadline and
// cancellation cooperatively. The token distilled from ctx is checked at
// admission, immediately before every node read inside traversal, before
// every pair a matching wave emits, once before a skyline pass, after
// traversal before a read's answer is emitted, and after a write takes the
// write lock — so an abandoned request stops within about one node
// expansion without leaking its pooled searcher or snapshot.
//
// Abandoned requests fail with an error that unwraps to ErrCanceled or
// ErrDeadlineExceeded (matching ctx.Err()) and whose message names the
// stage that observed the abandonment ("admission", "topk.traverse",
// "wave.next", "skyline.compute", "topk.emit", "serve.emit",
// "write.apply").
//
// The non-context methods are exactly these with a context that never
// fires; a context.Background() ctx costs nothing on the hot path.

// MatchContext is Match honouring ctx.
func (s *Server) MatchContext(ctx context.Context, queries []Query, opts *Options) (*Result, error) {
	return s.matchReq(cancel.FromContext(ctx), queries, opts)
}

// MatchManyContext is MatchMany honouring ctx: one cancellation covers the
// whole batch, and the first worker to observe it fails the request.
func (s *Server) MatchManyContext(ctx context.Context, waves [][]Query, opts *Options, workers int) ([]*Result, error) {
	return s.matchMany(cancel.FromContext(ctx), waves, opts, workers)
}

// TopKContext is TopK honouring ctx.
func (s *Server) TopKContext(ctx context.Context, query Query, k int) ([]Assignment, error) {
	return s.topKReq(cancel.FromContext(ctx), query, k)
}

// TopKMonotoneContext is TopKMonotone honouring ctx.
func (s *Server) TopKMonotoneContext(ctx context.Context, query PreferenceQuery, k int) ([]Assignment, error) {
	return s.topKMonotone(cancel.FromContext(ctx), query, k)
}

// TopKManyContext is TopKMany honouring ctx: one cancellation covers the
// whole batch.
func (s *Server) TopKManyContext(ctx context.Context, queries []Query, k, workers int) ([][]Assignment, error) {
	return s.topKMany(cancel.FromContext(ctx), queries, k, workers)
}

// TopKManyAppendContext is TopKManyAppend honouring ctx. The cancellation
// checkpoints and the admission gate are both allocation-free, so this
// stays a zero-allocation call in steady state (the CI alloc gate pins it).
func (s *Server) TopKManyAppendContext(ctx context.Context, dst []Assignment, offsets []int, queries []Query, k int) ([]Assignment, []int, error) {
	return s.topKManyAppend(cancel.FromContext(ctx), dst, offsets, queries, k)
}

// SkylineContext is Skyline honouring ctx.
func (s *Server) SkylineContext(ctx context.Context) ([]int, error) {
	return s.skyline(cancel.FromContext(ctx))
}

// InsertContext is Insert honouring ctx: the context is checked at
// admission and again after the write lock is taken, before any mutation.
func (s *Server) InsertContext(ctx context.Context, obj Object) error {
	return s.insert(cancel.FromContext(ctx), obj)
}

// UpdateContext is Update honouring ctx.
func (s *Server) UpdateContext(ctx context.Context, obj Object) error {
	return s.update(cancel.FromContext(ctx), obj)
}

// RemoveContext is Remove honouring ctx.
func (s *Server) RemoveContext(ctx context.Context, id int) error {
	return s.remove(cancel.FromContext(ctx), id)
}

// CompactContext is Compact honouring ctx: the context can abandon the
// wait for the write lock, but once the merge itself starts it runs to
// publication (epoch rotation is not interruptible).
func (s *Server) CompactContext(ctx context.Context) error {
	return s.compact(cancel.FromContext(ctx))
}
