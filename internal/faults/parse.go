package faults

import "github.com/phoenix-sched/phoenix/internal/strictjson"

// ParseScenario decodes and validates a scenario from JSON. Unknown fields
// are rejected (a typoed field name must not silently become a no-op
// fault), and malformed input produces an error anchored to the offending
// line and column of the document.
func ParseScenario(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := strictjson.Decode(data, &sc, "scenario", "scenario"); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadScenario reads and parses a scenario file (the -faults flag).
func LoadScenario(path string) (*Scenario, error) {
	return strictjson.Load(path, ParseScenario)
}
