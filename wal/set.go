package wal

// Set is the writers of one durable DB in its layout's order: one per data
// stream, then the coordinator decision log when there is one — a single
// System is one data stream and no coordinator, a cluster one data stream
// per System and the coordinator.
type Set struct {
	// Data holds one writer per data stream, in layout order (on a cluster,
	// indexed by System).
	Data []*Writer
	// Coord is the coordinator decision log, nil without one. It is always
	// fully synchronous: the decision sync is the 2PC commit point.
	Coord *Writer
}

// Writers returns every writer of the set in layout order: the data
// streams, then the coordinator when there is one.
func (s *Set) Writers() []*Writer {
	ws := s.Data[:len(s.Data):len(s.Data)]
	if s.Coord != nil {
		ws = append(ws, s.Coord)
	}
	return ws
}

// Stats sums the counters of every writer in the set (Stats.Add).
func (s *Set) Stats() Stats {
	var st Stats
	for _, w := range s.Writers() {
		st.Add(w.Stats())
	}
	return st
}

// Checkpoint writes a full-state checkpoint to every data stream in index
// order, snapshot(i) supplying stream i's body. A coordinator brackets
// them: its sync first makes every decision and resolution mark durable,
// so recovery never needs pre-checkpoint data frames to resolve an
// in-doubt transaction; its synced global mark last says everything before
// it is resolved and folded into the checkpoints. The cluster runs this
// under its 2PC drain lock, so no decision falls in between.
func (s *Set) Checkpoint(snapshot func(i int) ([]Op, error)) error {
	if s.Coord != nil {
		if err := s.Coord.Sync(); err != nil {
			return err
		}
	}
	for i, w := range s.Data {
		if err := w.Checkpoint(func() ([]Op, error) { return snapshot(i) }); err != nil {
			return err
		}
	}
	if s.Coord == nil {
		return nil
	}
	if err := s.Coord.Mark(0, FlagGlobal); err != nil {
		return err
	}
	return s.Coord.Sync()
}
