package admission

import "github.com/phoenix-sched/phoenix/internal/strictjson"

// ParseConfig decodes and validates a controller configuration from JSON.
// Unknown fields are rejected (a typoed threshold must not silently become
// the default), and malformed input produces an error anchored to the
// offending line and column of the document — the same contract as
// faults.ParseScenario.
func ParseConfig(data []byte) (Config, error) {
	cfg := DefaultConfig()
	if err := strictjson.Decode(data, &cfg, "admission", "config"); err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadConfig reads and parses a controller configuration file (the
// -admission-config flag). Fields absent from the file keep their
// DefaultConfig values.
func LoadConfig(path string) (Config, error) {
	return strictjson.Load(path, ParseConfig)
}
