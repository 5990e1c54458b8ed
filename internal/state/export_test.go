package state

import (
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
)

// EarliestTransferSlotSlow is the pre-kernel reference implementation of
// EarliestTransferSlot: in serialized mode it materializes the
// intersection of the three availability sets (two intermediate Set
// allocations per query) and runs the earliest-fit on the result. It is the
// oracle for the differential kernel tests.
func (st *State) EarliestTransferSlotSlow(id model.LinkID, ready simtime.Instant, d time.Duration) (simtime.Instant, bool) {
	if st.sendPort == nil {
		return st.links[id].Free().EarliestFit(ready, d)
	}
	l := st.sc.Network.Link(id)
	free := st.links[id].Free().IntersectSet(st.sendPort[l.From].Free())
	free = free.IntersectSet(st.recvPort[l.To].Free())
	return free.EarliestFit(ready, d)
}
