// Package admission closes the loop between the CRV signal and constraint
// relaxation: a per-dimension feedback controller that watches the
// queue-derived Constraint Resource Vector every heartbeat and decides,
// dimension by dimension, whether newly scheduled jobs may have that soft
// constraint relaxed.
//
// The controller is a bank of independent two-state (tight/relaxed)
// machines, one per soft dimension (clock, eth_speed — constraint.SoftDims).
// A dimension relaxes only after its CRV exceeds the relax threshold for
// RelaxBeats consecutive heartbeats, and re-tightens only after the CRV
// stays below the (lower) tighten threshold for TightenBeats consecutive
// heartbeats. Oscillation is bounded twice over: the hysteresis band
// between the two thresholds means in-band readings reset both streaks and
// can never cause a flip, and a minimum dwell of DwellBeats heartbeats
// after every transition means a dimension flips at most once per dwell
// window regardless of how adversarial the CRV trace is. DESIGN.md §18
// gives the informal stability argument.
//
// Wiring: Attach installs the controller as the driver's
// sched.DriverPolicy (scoping CandidateWorkers relaxation to exactly the
// currently relaxed dimensions) plus a passive heartbeat ticker that reads
// the driver's queue-derived CRV (sched.Driver.QueueCRV, the same vector
// telemetry and Phoenix's monitor read), so the signal is identical for
// every scheduler. When no
// controller is attached the driver's legacy all-or-nothing fallback is
// untouched and runs are byte-identical to pre-admission builds.
// AttachStatic installs the always-relax baseline the ext-admission
// experiment compares against.
package admission

import (
	"fmt"
	"math"

	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// Config parameterizes the controller. The zero value is invalid; start
// from DefaultConfig.
type Config struct {
	// RelaxThreshold is the CRV level a dimension must exceed (strictly)
	// to accumulate relax streak; Phoenix's CRV trigger default is 0.25.
	RelaxThreshold float64 `json:"relax_threshold"`
	// TightenThreshold is the CRV level a relaxed dimension must stay
	// (strictly) below to accumulate recovery streak. It must be strictly
	// less than RelaxThreshold; the gap is the hysteresis band.
	TightenThreshold float64 `json:"tighten_threshold"`
	// RelaxBeats is k, the consecutive over-threshold heartbeats required
	// to relax a dimension. At least 1.
	RelaxBeats int `json:"relax_beats"`
	// TightenBeats is the consecutive under-threshold heartbeats required
	// to re-tighten; recovery must not be faster than relaxation, so it
	// must be at least RelaxBeats.
	TightenBeats int `json:"tighten_beats"`
	// DwellBeats is the minimum heartbeats between two transitions of the
	// same dimension, counted from the previous transition. Zero disables
	// the dwell bound (streaks still gate).
	DwellBeats int `json:"dwell_beats"`
}

// DefaultConfig returns the tuning used by the -admission flag: trigger at
// Phoenix's CRV threshold, recover below 0.1, k=3 beats to relax, 6 to
// tighten, 6-beat dwell.
func DefaultConfig() Config {
	return Config{
		RelaxThreshold:   0.25,
		TightenThreshold: 0.1,
		RelaxBeats:       3,
		TightenBeats:     6,
		DwellBeats:       6,
	}
}

// Validate reports configuration errors: non-finite thresholds, an empty
// or inverted hysteresis band, k = 0, recovery faster than relaxation, or
// a negative dwell.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.RelaxThreshold) || math.IsInf(c.RelaxThreshold, 0):
		return fmt.Errorf("admission: relax_threshold %v is not finite", c.RelaxThreshold)
	case math.IsNaN(c.TightenThreshold) || math.IsInf(c.TightenThreshold, 0):
		return fmt.Errorf("admission: tighten_threshold %v is not finite", c.TightenThreshold)
	case c.TightenThreshold < 0:
		return fmt.Errorf("admission: tighten_threshold %v is negative", c.TightenThreshold)
	case c.TightenThreshold >= c.RelaxThreshold:
		return fmt.Errorf("admission: hysteresis band inverted or empty: tighten_threshold %v must be strictly below relax_threshold %v",
			c.TightenThreshold, c.RelaxThreshold)
	case c.RelaxBeats < 1:
		return fmt.Errorf("admission: relax_beats %d must be at least 1", c.RelaxBeats)
	case c.TightenBeats < c.RelaxBeats:
		return fmt.Errorf("admission: tighten_beats %d must be at least relax_beats %d (recovery must not be faster than relaxation)",
			c.TightenBeats, c.RelaxBeats)
	case c.DwellBeats < 0:
		return fmt.Errorf("admission: dwell_beats %d is negative", c.DwellBeats)
	}
	return nil
}

// Controller is the per-dimension feedback state machine. Construct with
// New (bare, for driving step-by-step in tests) or Attach (wired to a
// driver). All state is confined to the simulation goroutine.
type Controller struct {
	sched.NopObserver

	cfg Config
	d   *sched.Driver

	// relaxed is the set of currently relaxed dimensions — the mask
	// RelaxDims hands to CandidateWorkers.
	relaxed constraint.DimMask
	// above/below are the per-dimension consecutive-beat streaks outside
	// the hysteresis band; dwell counts beats since the dimension's last
	// transition, saturating at cfg.DwellBeats.
	above [constraint.NumDims]int
	below [constraint.NumDims]int
	dwell [constraint.NumDims]int

	beats       int64
	transitions int64
	dimBeats    int64

	totalJobs     int
	finishedTotal int
	done          bool
}

var _ sched.DriverPolicy = (*Controller)(nil)
var _ sched.Observer = (*Controller)(nil)

// New builds an unattached controller: the state machine alone, for
// driving with Step against synthetic CRV traces. Attach is the production
// entry point.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg}
	// Seed every dwell counter at its ceiling so the FIRST transition of a
	// dimension is gated only by its streak; dwell limits the gap between
	// transitions, not time-to-first-action.
	for i := range c.dwell {
		c.dwell[i] = cfg.DwellBeats
	}
	return c, nil
}

// Attach wires a controller to d: it installs the controller as the
// driver's relaxation policy, registers it as an observer (to learn when
// the batch workload drains), and arranges a CRV evaluation every driver
// heartbeat. Attach must be called before Run/RunService.
func Attach(d *sched.Driver, cfg Config) (*Controller, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.d = d
	c.totalJobs = len(d.Trace().Jobs)
	d.SetDriverPolicy(c)
	d.AttachObserver(c)
	d.Every(d.Config().Heartbeat, c.tick)
	return c, nil
}

// Config returns the controller's tuning.
func (c *Controller) Config() Config { return c.cfg }

// RelaxDims implements sched.DriverPolicy: the currently relaxed mask,
// independent of the job (the controller scopes dimensions, not jobs).
func (c *Controller) RelaxDims(*sched.JobState) constraint.DimMask { return c.relaxed }

// RelaxedDims returns the mask of currently relaxed dimensions.
func (c *Controller) RelaxedDims() constraint.DimMask { return c.relaxed }

// ControllerTransitions returns the cumulative count of state transitions
// (relax or tighten) across all dimensions.
func (c *Controller) ControllerTransitions() int64 { return c.transitions }

// RelaxedDimBeats returns the cumulative count of dimension-beats spent
// relaxed: each heartbeat adds one per dimension that entered the beat
// relaxed. It is the relaxation "area" the ext-admission experiment
// compares against the static baseline.
func (c *Controller) RelaxedDimBeats() int64 { return c.dimBeats }

// Beats returns how many heartbeats the controller has evaluated.
func (c *Controller) Beats() int64 { return c.beats }

// Step evaluates one heartbeat against the given CRV. Exported so tests
// and benchmarks can drive the state machine with synthetic traces; the
// attached ticker calls it with the queue-derived CRV.
func (c *Controller) Step(v *constraint.Vector) {
	c.beats++
	for _, dim := range constraint.Dims {
		if !dim.Soft() {
			continue
		}
		i := dim.Index()
		if c.dwell[i] < c.cfg.DwellBeats {
			c.dwell[i]++
		}
		x := v.Get(dim)
		if c.relaxed.Has(dim) {
			c.dimBeats++
			// The sentinel constraint.SupplyLostRatio is finite and far
			// above any threshold, so a full supply-loss outage simply
			// resets the recovery streak every beat — no special case.
			if x < c.cfg.TightenThreshold {
				c.below[i]++
			} else {
				c.below[i] = 0
			}
			if c.below[i] >= c.cfg.TightenBeats && c.dwell[i] >= c.cfg.DwellBeats {
				c.relaxed = c.relaxed.Without(dim)
				c.transitions++
				c.above[i], c.below[i], c.dwell[i] = 0, 0, 0
			}
		} else {
			if x > c.cfg.RelaxThreshold {
				c.above[i]++
			} else {
				c.above[i] = 0
			}
			if c.above[i] >= c.cfg.RelaxBeats && c.dwell[i] >= c.cfg.DwellBeats {
				c.relaxed = c.relaxed.With(dim)
				c.transitions++
				c.above[i], c.below[i], c.dwell[i] = 0, 0, 0
			}
		}
	}
}

// tick is the periodic evaluation event; like the telemetry sampler it
// stops once the workload drains so the engine's queue can empty.
func (c *Controller) tick(simulation.Time) bool {
	if c.done || c.d.ServiceDone() {
		return false
	}
	v := c.d.QueueCRV()
	c.Step(&v)
	return true
}

// OnJobFinish implements sched.Observer: in batch mode the controller
// stops with the last job, mirroring the telemetry recorder's drain
// detection.
func (c *Controller) OnJobFinish(d *sched.Driver, js *sched.JobState) {
	c.finishedTotal++
	if c.finishedTotal == c.totalJobs {
		c.done = true
	}
}

// Static is the open-loop baseline: every soft dimension is relaxed from
// the first beat and never re-tightened — the paper's static relaxation
// expressed through the same DriverPolicy plumbing, so the ext-admission
// experiment compares controllers, not wiring.
type Static struct {
	sched.NopObserver

	d *sched.Driver

	dimBeats      int64
	totalJobs     int
	finishedTotal int
	done          bool
}

var _ sched.DriverPolicy = (*Static)(nil)
var _ sched.Observer = (*Static)(nil)

// AttachStatic wires the always-relax baseline to d, with the same
// heartbeat accounting as the controller so RelaxedDimBeats is comparable.
func AttachStatic(d *sched.Driver) *Static {
	s := &Static{d: d, totalJobs: len(d.Trace().Jobs)}
	d.SetDriverPolicy(s)
	d.AttachObserver(s)
	d.Every(d.Config().Heartbeat, s.tick)
	return s
}

// RelaxDims implements sched.DriverPolicy: always every soft dimension.
func (s *Static) RelaxDims(*sched.JobState) constraint.DimMask { return constraint.SoftDims() }

// RelaxedDims reports every soft dimension, always.
func (s *Static) RelaxedDims() constraint.DimMask { return constraint.SoftDims() }

// ControllerTransitions is always zero: the baseline never changes state.
func (s *Static) ControllerTransitions() int64 { return 0 }

// RelaxedDimBeats returns soft-dimension count × heartbeats elapsed — the
// open-loop relaxation area.
func (s *Static) RelaxedDimBeats() int64 { return s.dimBeats }

// tick accrues the per-beat relaxation area and stops when the workload
// drains.
func (s *Static) tick(simulation.Time) bool {
	if s.done || s.d.ServiceDone() {
		return false
	}
	s.dimBeats += int64(constraint.SoftDims().Count())
	return true
}

// OnJobFinish implements sched.Observer: batch drain detection, as on the
// controller.
func (s *Static) OnJobFinish(d *sched.Driver, js *sched.JobState) {
	s.finishedTotal++
	if s.finishedTotal == s.totalJobs {
		s.done = true
	}
}
