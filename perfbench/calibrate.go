package main

import (
	"time"
)

// refNode is one heap object of the reference kernel, about the size of the
// simulator's small records.
type refNode struct {
	next *refNode
	_    [3]uint64
}

// hostReference times a fixed reference kernel and returns the median of
// five passes, in seconds. The kernel is the benchmark's own code, so a
// change to the simulator cannot move its time; only the host can. It walks
// 16 MiB of separately allocated heap objects in a fixed shuffled order,
// which waits on memory the way the simulator's pointer-heavy run and its
// garbage collector do. On a shared host that speed drifts over minutes:
// in ten back-to-back invocations of batch-sparrow-google on a 2-vCPU Xeon,
// the run time fell from 1.86 s to 1.04 s while the GC time per cycle fell
// in step, and their ratio moved by 3%. The time metrics are therefore
// reported as multiples of this kernel's time, which is taken after the run
// so that it disturbs none of the run's figures.
func hostReference() float64 {
	const n = 1 << 19
	nodes := make([]*refNode, n)
	for i := range nodes {
		nodes[i] = &refNode{}
	}
	// One cycle through every node (Sattolo's algorithm) from a fixed
	// xorshift stream, so every call walks the same order.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		order[i], order[j] = order[j], order[i]
	}
	for i, nd := range nodes {
		nd.next = nodes[order[i]]
	}
	var per [5]float64
	p := nodes[0]
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			p = p.next
		}
		per[r] = time.Since(start).Seconds()
	}
	if p == nil {
		per[0] = 0 // unreachable: the walk never leaves the cycle
	}
	return median(per[:])
}
