package resource

import "datastaging/internal/simtime"

// AvailableAt returns the available bytes at instant t: the point read the
// tests compare against their reference profiles.
func (c *Capacity) AvailableAt(t simtime.Instant) int64 {
	return c.segs[c.segIndex(t)].avail
}

// Release returns amount bytes to the profile over iv, the inverse of
// Reserve, so the differential kernel tests can drive a profile both ways.
func (c *Capacity) Release(amount int64, iv simtime.Interval) {
	if iv.IsEmpty() || amount <= 0 {
		return
	}
	c.adjust(amount, iv)
}

// MinAvailableLinear exposes the linear walk, whatever the profile size, to
// the differential kernel tests and FuzzKernelEquivalence.
func (c *Capacity) MinAvailableLinear(iv simtime.Interval) int64 {
	return c.minAvailableLinear(iv)
}

// MinIndexCutoff exposes the profile size above which MinAvailable uses
// the segment-min index, so tests can build profiles on both sides of it.
const MinIndexCutoff = minIndexCutoff
