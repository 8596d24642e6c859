package engine

// SWPath is what an engine supplies to its software path: the Tx the body
// runs on and the steps around it.
type SWPath interface {
	Tx
	// Begin starts an attempt: it takes the snapshot and empties the sets.
	Begin()
	// ReadOnly reports, after the body, that it buffered no store. Every
	// software path here validates reads as they happen, so such a
	// transaction commits on the spot.
	ReadOnly() bool
	// Commit publishes the write set, or reports that the snapshot went
	// stale and the transaction must re-run; it leaves no lock behind.
	Commit() bool
	// Aborted runs after an attempt failed, before the backoff.
	Aborted()
	// Trim runs once the transaction has ended, committed or not: it lets
	// go of every set an attempt grew past scratch.Bound (scratch.Reset),
	// so one large transaction does not pin its peak for the thread's
	// lifetime.
	Trim()
}

// RunSoft drives fn to completion on software path p: attempts, each
// failure counted and followed by randomized backoff, until one commits or
// fn returns an error, which ends the transaction and is returned as-is.
func (w *Worker) RunSoft(fn func(tx Tx) error, p SWPath) error {
	defer p.Trim()
	for attempt := 0; ; attempt++ {
		p.Begin()
		err, aborted := RunBody(fn, p)
		switch {
		case aborted:
		case err != nil:
			w.Stats.UserErrors++
			return err
		case p.ReadOnly():
			w.Stats.ReadOnlyCommits++
			return nil
		case p.Commit():
			w.Stats.SlowCommits++
			return nil
		}
		w.Stats.SlowAborts++
		p.Aborted()
		Backoff(w.Rng, attempt)
	}
}
