package resource

import "datastaging/internal/simtime"

// MinAvailableLinear exposes the linear walk, whatever the profile size, to
// the differential kernel tests and FuzzKernelEquivalence.
func (c *Capacity) MinAvailableLinear(iv simtime.Interval) int64 {
	return c.minAvailableLinear(iv)
}

// MinIndexCutoff exposes the profile size above which MinAvailable uses
// the segment-min index, so tests can build profiles on both sides of it.
const MinIndexCutoff = minIndexCutoff
