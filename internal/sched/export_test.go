package sched

// JobSupply exposes the per-job live-supply memo (Driver.jobSupply) to the
// package's external tests.
func JobSupply(d *Driver, js *JobState) []int32 { return d.jobSupply(js) }
