package obs

// RecorderState is a deep copy of a recorder's ring buffer. The buffer
// contents must be copied (not truncated): once the ring is full, Emit
// overwrites rows in place.
type RecorderState struct {
	buf     []Record
	start   int
	n       int
	seq     uint64
	dropped uint64
}

// Snapshot captures the recorder's state; nil on a nil recorder.
func (r *Recorder) Snapshot() *RecorderState {
	if r == nil {
		return nil
	}
	return &RecorderState{
		buf:     append([]Record(nil), r.buf...),
		start:   r.start,
		n:       r.n,
		seq:     r.seq,
		dropped: r.dropped,
	}
}

// Restore rewinds the recorder. A nil recorder ignores a nil state; the
// buffer is copied back into the recorder's own backing array, which grows
// only if the snapshot holds more records than it has room for.
func (r *Recorder) Restore(s *RecorderState) {
	if r == nil || s == nil {
		return
	}
	r.buf = append(r.buf[:0], s.buf...)
	r.start = s.start
	r.n = s.n
	r.seq = s.seq
	r.dropped = s.dropped
}
