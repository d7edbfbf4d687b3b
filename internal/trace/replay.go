package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// ReplaySource streams a recorded JSONL trace through the service path
// open-loop: it satisfies the driver-side JobSource interface, decoding one
// job per NextJob call so multi-million-task traces replay in bounded
// memory. Arrival times are compressed by the rate multiplier (2.0 replays
// the trace twice as fast; durations are untouched), letting live-service
// studies sweep load on a real arrival process instead of a synthetic one.
// The source is finite: NextJob reports false at end of trace, which the
// service driver maps to closing admission and draining.
type ReplaySource struct {
	dec    *json.Decoder
	closer io.Closer
	h      header
	rate   float64

	emitted int
	prev    simulation.Time
	// lastTask is the last emitted task ID (-1 before the first job), for
	// Job.Validate's strictly-increasing task-ID check.
	lastTask int
	err      error
}

// NewReplaySource streams the phoenix-trace-v1 JSONL on r at the given
// arrival-rate multiplier (0 defaults to 1.0). The header is decoded
// eagerly so configuration errors surface before the run starts; job
// records are decoded lazily, one per NextJob.
func NewReplaySource(r io.Reader, rate float64) (*ReplaySource, error) {
	if rate == 0 {
		rate = 1
	}
	if rate < 0 {
		return nil, fmt.Errorf("trace: replay rate %v must be positive", rate)
	}
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: replay header: %w", err)
	}
	if h.Format != formatID {
		return nil, fmt.Errorf("trace: replay: unknown format %q, want %q", h.Format, formatID)
	}
	if h.ShortCutoff <= 0 {
		return nil, fmt.Errorf("trace: replay: non-positive short cutoff %v", h.ShortCutoff)
	}
	return &ReplaySource{dec: dec, h: h, rate: rate, lastTask: -1}, nil
}

// OpenReplay opens a trace file for streaming replay; Close releases the
// underlying file once the run has drained.
func OpenReplay(path string, rate float64) (*ReplaySource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	s, err := NewReplaySource(f, rate)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// NextJob decodes and returns the next recorded job with its arrival time
// divided by the rate multiplier. It reports false once the trace is
// exhausted (or on a decode error, retrievable via Err), after which the
// service driver closes admission.
func (s *ReplaySource) NextJob() (*Job, bool) {
	if s.err != nil {
		return nil, false
	}
	var j Job
	if err := s.dec.Decode(&j); err == io.EOF {
		if s.emitted < s.h.NumJobs {
			s.err = fmt.Errorf("trace: replay: header promises %d jobs, found %d", s.h.NumJobs, s.emitted)
		}
		return nil, false
	} else if err != nil {
		s.err = fmt.Errorf("trace: replay job %d: %w", s.emitted, err)
		return nil, false
	}
	// The driver requires dense IDs and per-job structural invariants but
	// never looks back at earlier jobs, so validation is per-record here
	// (the same Job.Validate Read's Trace.Validate runs) rather than
	// whole-trace.
	if j.ID != s.emitted {
		s.err = fmt.Errorf("trace: replay: job at position %d has ID %d", s.emitted, j.ID)
		return nil, false
	}
	if err := j.Validate(s.lastTask); err != nil {
		s.err = fmt.Errorf("trace: replay: %w", err)
		return nil, false
	}
	s.lastTask = j.Tasks[len(j.Tasks)-1].ID
	j.Arrival = simulation.Time(float64(j.Arrival) / s.rate)
	if j.Arrival < s.prev {
		s.err = fmt.Errorf("trace: replay: job %d arrives at %v before predecessor at %v", j.ID, j.Arrival, s.prev)
		return nil, false
	}
	s.prev = j.Arrival
	s.emitted++
	return &j, true
}

// ShortCutoff returns the recorded trace's short-job classification
// threshold.
func (s *ReplaySource) ShortCutoff() simulation.Time { return s.h.ShortCutoff }

// Name returns the recorded trace's workload name.
func (s *ReplaySource) Name() string { return s.h.Name }

// NumNodes returns the cluster size the recorded trace was calibrated
// against.
func (s *ReplaySource) NumNodes() int { return s.h.NumNodes }

// NumJobs returns the recorded job count promised by the trace header.
func (s *ReplaySource) NumJobs() int { return s.h.NumJobs }

// Rate returns the arrival-rate multiplier the replay is running at.
func (s *ReplaySource) Rate() float64 { return s.rate }

// Emitted reports how many jobs the source has produced so far.
func (s *ReplaySource) Emitted() int { return s.emitted }

// Err reports the decode or validation error that ended the stream early,
// if any; callers should check it after the run drains.
func (s *ReplaySource) Err() error { return s.err }

// Close releases the underlying file when the source was built by
// OpenReplay; otherwise it is a no-op.
func (s *ReplaySource) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}
