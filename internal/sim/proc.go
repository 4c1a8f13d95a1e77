package sim

import (
	"iter"

	"repro/internal/memmodel"
)

// simProc is a pooled process coroutine and the memmodel.Proc / sim.Proc
// handle of the program it runs. The coroutine is an iter.Pull sequence:
// every operation of the program yields its request, which suspends the
// program and switches control straight back to the runner; the runner
// applies the operation, stores the response in resp and resumes the
// program with next. Runner and program never run at the same time, so
// no channel, lock or select sits on the step path.
//
// A simProc outlives the programs it runs. When a program returns, the
// coroutine parks at a done request and the runner pools it for the next
// process it launches (see Runner.Reset).
type simProc struct {
	r     *Runner
	next  func() (request, bool)
	stop  func()
	yield func(request) bool
	// ps is the process whose program the coroutine is running; nil while
	// the coroutine is idle in the runner's pool.
	ps *procState
	// resp is the runner's reply to the request last yielded.
	resp response
}

var _ Proc = (*simProc)(nil)

// newSimProc creates an idle coroutine owned by r.
func newSimProc(r *Runner) *simProc {
	p := &simProc{r: r}
	p.next, p.stop = iter.Pull(p.loop)
	return p
}

// loop is the coroutine body: run the assigned program, then park at a
// done request until the runner resumes the coroutine with a new one. It
// returns only when stop ends the coroutine.
func (p *simProc) loop(yield func(request) bool) {
	p.yield = yield
	for {
		p.run()
		if !yield(request{done: true}) {
			return
		}
	}
}

// run executes the assigned program. An errAborted unwind ends the
// program like a normal return; any other panic propagates through next
// to the driver and kills the coroutine, which is then never pooled.
func (p *simProc) run() {
	defer func() {
		if v := recover(); v != nil && v != errAborted { //nolint:errorlint // sentinel identity
			panic(v)
		}
	}()
	p.ps.prog(p)
}

// call yields rq to the runner and returns its response. It panics with
// errAborted, which run recovers, when the runner unwinds the program:
// either stop ended the coroutine (yield reports false) or Reset resumed
// it with the aborting flag set. Checking the flag before yielding too
// keeps a deferred operation in an unwinding program from yielding.
func (p *simProc) call(rq request) response {
	if p.r.aborting || !p.yield(rq) || p.r.aborting {
		panic(errAborted)
	}
	return p.resp
}

// ID implements memmodel.Proc.
func (p *simProc) ID() int { return p.ps.id }

// Read implements memmodel.Proc.
func (p *simProc) Read(v memmodel.Var) uint64 {
	return p.call(request{kind: memmodel.OpRead, v: v}).val
}

// Write implements memmodel.Proc.
func (p *simProc) Write(v memmodel.Var, x uint64) {
	p.call(request{kind: memmodel.OpWrite, v: v, arg: x})
}

// CAS implements memmodel.Proc.
func (p *simProc) CAS(v memmodel.Var, old, newVal uint64) (uint64, bool) {
	resp := p.call(request{kind: memmodel.OpCAS, v: v, exp: old, arg: newVal})
	return resp.val, resp.swapped
}

// FetchAdd implements memmodel.Proc.
func (p *simProc) FetchAdd(v memmodel.Var, delta uint64) uint64 {
	return p.call(request{kind: memmodel.OpFetchAdd, v: v, arg: delta}).val
}

// Await implements memmodel.Proc. Single-variable awaits carry no vars
// slice: the runner keys the single/multi distinction on mpred, so the
// request is allocation-free like the other single-variable operations.
func (p *simProc) Await(v memmodel.Var, pred memmodel.Pred) uint64 {
	return p.call(request{kind: memmodel.OpAwait, v: v, pred: pred}).val
}

// AwaitMulti implements memmodel.Proc.
func (p *simProc) AwaitMulti(vars []memmodel.Var, pred memmodel.MultiPred) []uint64 {
	vs := make([]memmodel.Var, len(vars))
	copy(vs, vars)
	return p.call(request{kind: memmodel.OpAwait, vars: vs, mpred: pred}).vals
}

// Section implements memmodel.Proc.
func (p *simProc) Section(s memmodel.Section) {
	p.call(request{section: s})
}

// Barrier implements sim.Proc.
func (p *simProc) Barrier() {
	p.call(request{barrier: true})
}
