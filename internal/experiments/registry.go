package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one experiment.
type Runner func(Options) (*Report, error)

// registry maps experiment IDs to runners. Letters follow the paper:
// (a) Yahoo, (b) Cloudera, (c) Google.
var registry = map[string]Runner{
	"fig2a":  func(o Options) (*Report, error) { return Fig2(o, "yahoo") },
	"fig2b":  func(o Options) (*Report, error) { return Fig2(o, "cloudera") },
	"fig3":   Fig3,
	"fig4a":  func(o Options) (*Report, error) { return Fig4(o, "yahoo") },
	"fig4b":  func(o Options) (*Report, error) { return Fig4(o, "cloudera") },
	"fig4c":  func(o Options) (*Report, error) { return Fig4(o, "google") },
	"fig6":   Fig6,
	"fig7a":  func(o Options) (*Report, error) { return Fig7(o, "yahoo") },
	"fig7b":  func(o Options) (*Report, error) { return Fig7(o, "cloudera") },
	"fig7c":  func(o Options) (*Report, error) { return Fig7(o, "google") },
	"fig8a":  func(o Options) (*Report, error) { return Fig8(o, "yahoo") },
	"fig8b":  func(o Options) (*Report, error) { return Fig8(o, "cloudera") },
	"fig8c":  func(o Options) (*Report, error) { return Fig8(o, "google") },
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"table2": TableII,
	"table3": TableIII,
	// Supporting design-space explorations (paper §V-A / §VI-C prose):
	// five parameter settings each.
	"sens-probe":     SensProbeRatio,
	"sens-heartbeat": SensHeartbeat,
	// Extensions beyond the paper's figures.
	"ext-designspace":   DesignSpace,
	"ext-placement":     PlacementImpact,
	"ext-failures":      FailureImpact,
	"ext-faultcampaign": FaultCampaign,
	"ext-fairness":      Fairness,
	"ext-estimator":     EstimatorAccuracy,
	// Steady state: 6 schedulers in open-loop service mode per seed.
	"ext-steadystate": SteadyState,
	// Sharded scale-out: 4 shard counts per seed.
	"ext-sharded": ShardScaling,
	// Gang/preempt/backfill policy compositions: 4 variants per seed.
	"ext-gang": GangPolicies,
	// Admission control: 2 modes x 2 scenarios x 2 arrival shapes per seed.
	"ext-admission": AdmissionControl,
}

// IDs lists every experiment identifier in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run regenerates the experiment with the given ID.
func Run(id string, opts Options) (*Report, error) {
	run, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return run(opts)
}
