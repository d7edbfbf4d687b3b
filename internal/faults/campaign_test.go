package faults_test

import (
	"testing"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
	"github.com/phoenix-sched/phoenix/internal/validate"

	// Bring in the bundled schedulers' registry registrations.
	_ "github.com/phoenix-sched/phoenix/internal/core"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/centralized"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/eagle"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/hawk"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/sparrow"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/yaccd"
)

// env is one small shared workload; cluster and trace are read-only across
// runs, exactly as the experiment harness shares them.
type env struct {
	cl *cluster.Cluster
	tr *trace.Trace
}

func newEnv(t testing.TB) *env {
	t.Helper()
	cl, err := cluster.GoogleProfile().GenerateCluster(120, simulation.NewRNG(1).Stream("faults/machines"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.GoogleConfig(1.0)
	cfg.NumNodes = cl.Size()
	cfg.NumJobs = 250
	tr, err := trace.Generate(cfg, cl, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &env{cl: cl, tr: tr}
}

// lastArrivalS is the workload's arrival horizon in seconds; phase windows
// are placed relative to it so they land inside the run.
func (e *env) lastArrivalS() float64 {
	return e.tr.Jobs[len(e.tr.Jobs)-1].Arrival.Seconds()
}

// platformScope returns a (dim name, value) pair guaranteed to match at
// least one machine: machine 0's platform family.
func (e *env) platformScope() (string, int64) {
	return constraint.DimPlatform.String(), e.cl.Machine(0).Attrs.Get(constraint.DimPlatform)
}

// mixed builds a three-phase scenario exercising every injector kind.
func (e *env) mixed() *faults.Scenario {
	l := e.lastArrivalS()
	dim, val := e.platformScope()
	return &faults.Scenario{
		Name: "mixed",
		Phases: []faults.Phase{
			{Kind: faults.KindOutage, StartSeconds: 0.1 * l, DurationSeconds: 0.25 * l, Dim: dim, Value: val},
			{Kind: faults.KindSlowdown, StartSeconds: 0.4 * l, DurationSeconds: 0.2 * l, Factor: 3, Fraction: 0.25},
			{Kind: faults.KindProbeLoss, StartSeconds: 0.65 * l, DurationSeconds: 0.2 * l, Fraction: 0.5},
		},
	}
}

// run executes one campaign run and returns the driver and its digest. A
// nil scenario runs without any campaign; check, when true, attaches the
// invariant checker and fails the test on any violation.
func (e *env) run(t *testing.T, schedName string, seed uint64, sc *faults.Scenario, check bool) (*sched.Driver, uint64) {
	t.Helper()
	s, err := sched.NewByName(schedName)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sched.NewDriver(sched.DefaultConfig(), e.cl, e.tr, s, seed)
	if err != nil {
		t.Fatal(err)
	}
	var checker *validate.Checker
	if check {
		checker = validate.Attach(d)
	}
	if sc != nil {
		if _, err := faults.Attach(d, sc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Run()
	if err != nil {
		t.Fatalf("%s: %v", schedName, err)
	}
	if checker != nil {
		if err := checker.Finalize(); err != nil {
			t.Fatalf("%s: invariants: %v", schedName, err)
		}
	}
	return d, res.Collector.Digest()
}

func TestEmptyScenarioIsByteIdenticalToNoCampaign(t *testing.T) {
	e := newEnv(t)
	empty := &faults.Scenario{Name: "noop"}
	_, plain := e.run(t, "phoenix", 7, nil, false)
	_, withCampaign := e.run(t, "phoenix", 7, empty, false)
	if plain != withCampaign {
		t.Errorf("empty scenario changed the digest: %x != %x", withCampaign, plain)
	}
}

func TestSameSeedCampaignIsDeterministic(t *testing.T) {
	e := newEnv(t)
	sc := e.mixed()
	_, a := e.run(t, "phoenix", 7, sc, false)
	_, b := e.run(t, "phoenix", 7, sc, false)
	if a != b {
		t.Errorf("same-seed campaign digests differ: %x != %x", a, b)
	}
	_, c := e.run(t, "phoenix", 8, sc, false)
	if a == c {
		t.Error("different seeds produced identical digests")
	}
	_, d := e.run(t, "phoenix", 7, nil, false)
	if a == d {
		t.Error("campaign had no observable effect on the run")
	}
}

func TestOutageErasesAndRecoveryRestoresSupply(t *testing.T) {
	e := newEnv(t)
	dim, val := e.platformScope()
	l := e.lastArrivalS()
	startS, durS := 0.2*l, 0.3*l
	sc := faults.RackOutage(dim, val, startS, durS)

	s, err := sched.NewByName("phoenix")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sched.NewDriver(sched.DefaultConfig(), e.cl, e.tr, s, 7)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := faults.Attach(d, sc)
	if err != nil {
		t.Fatal(err)
	}
	cn := constraint.Constraint{Dim: constraint.DimPlatform, Op: constraint.OpEQ, Value: val}
	static := e.cl.SatisfyingOne(cn)
	if static == 0 {
		t.Fatal("scope has no static supply")
	}

	// Sample the live supply once per virtual second across the outage.
	begin := simulation.FromSeconds(startS)
	end := simulation.FromSeconds(startS + durS)
	stop := end + 10*simulation.Second
	type point struct {
		at     simulation.Time
		supply int
	}
	var series []point
	d.Every(simulation.Second, func(now simulation.Time) bool {
		series = append(series, point{now, d.LiveSupplyOne(cn)})
		return now < stop
	})
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}

	for _, p := range series {
		inOutage := p.at > begin && p.at < end
		switch {
		case inOutage && p.supply != 0:
			t.Fatalf("live supply %d at %v inside the outage, want 0", p.supply, p.at)
		case !inOutage && p.supply != static:
			t.Fatalf("live supply %d at %v outside the outage, want %d", p.supply, p.at, static)
		}
	}
	if d.LiveSupplyOne(cn) != static {
		t.Errorf("end-of-run live supply %d, want %d", d.LiveSupplyOne(cn), static)
	}
	win := camp.Timeline()[0]
	if win.Workers != static {
		t.Errorf("timeline reports %d workers downed, want %d", win.Workers, static)
	}
	if win.From != begin || win.To != end {
		t.Errorf("timeline window %v–%v, want %v–%v", win.From, win.To, begin, end)
	}
}

func TestInvariantsHoldUnderEachInjector(t *testing.T) {
	e := newEnv(t)
	l := e.lastArrivalS()
	dim, val := e.platformScope()
	cases := []struct {
		name   string
		phase  faults.Phase
		effect func(t *testing.T, d *sched.Driver)
	}{
		{
			name:  "outage",
			phase: faults.Phase{Kind: faults.KindOutage, StartSeconds: 0.2 * l, DurationSeconds: 0.3 * l, Dim: dim, Value: val},
			effect: func(t *testing.T, d *sched.Driver) {
				if d.Collector().WorkerFailures == 0 {
					t.Error("outage injected no failures")
				}
			},
		},
		{
			name:  "slowdown",
			phase: faults.Phase{Kind: faults.KindSlowdown, StartSeconds: 0.2 * l, DurationSeconds: 0.3 * l, Factor: 2},
			effect: func(t *testing.T, d *sched.Driver) {
				if d.Collector().BusyTime <= e.tr.TotalWork() {
					t.Error("slowdown did not stretch any service time")
				}
			},
		},
		{
			name:  "probe-loss",
			phase: faults.Phase{Kind: faults.KindProbeLoss, StartSeconds: 0.2 * l, DurationSeconds: 0.3 * l, Fraction: 0.5},
			effect: func(t *testing.T, d *sched.Driver) {
				if d.Collector().ProbesLost == 0 {
					t.Error("probe loss dropped nothing")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := &faults.Scenario{Name: tc.name, Phases: []faults.Phase{tc.phase}}
			d, _ := e.run(t, "phoenix", 7, sc, true)
			tc.effect(t, d)
		})
	}
}

// TestFaultCampaignSmoke is the fault-campaign CI smoke: the mixed
// scenario against every bundled scheduler, with the invariant checker
// attached (run under -race by CI's `go test -race ./internal/...`).
func TestFaultCampaignSmoke(t *testing.T) {
	e := newEnv(t)
	sc := e.mixed()
	for _, name := range []string{"phoenix", "eagle-c", "hawk-c", "sparrow-c", "yacc-d", "centralized"} {
		name := name
		t.Run(name, func(t *testing.T) {
			d, _ := e.run(t, name, 7, sc, true)
			if d.Collector().WorkerFailures == 0 {
				t.Error("outage phase injected no failures")
			}
		})
	}
}
