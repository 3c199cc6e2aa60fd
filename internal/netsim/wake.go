package netsim

import "math/bits"

// Sparse rounds. A round visits only its active nodes: the receivers of
// the previous round's messages, the nodes whose wake-up is due (see
// Sleeper), the machines that never sleep, and the nodes crashing this
// round. Each shard keeps that set as a bitset over its own nodes, so
// the step, send and merge passes walk it in ascending node order with
// bits.TrailingZeros64, and a round costs O(n/64 + active nodes +
// messages) instead of O(n). When no machine sleeps, every node is
// active in every round and no wake state exists.

// activeSet is one shard's per-round node set and, when some machine
// sleeps, its standing non-sleepers and wake calendar. Bit l stands for
// node lo+l.
type activeSet struct {
	// step holds the nodes the current round visits. The merge clears
	// it as it walks it.
	step []uint64
	// always holds the live nodes whose machines do not implement
	// Sleeper, and wake the shard's wake calendar. Both stay empty when
	// no machine sleeps, which makes every node active in every round.
	always []uint64
	wake   wakeCalendar
}

func newActiveSet(size int) activeSet {
	return activeSet{step: make([]uint64, (size+63)>>6)}
}

// fill marks the first size nodes.
func fill(set []uint64, size int) {
	for i := range set {
		set[i] = ^uint64(0)
	}
	if tail := size & 63; tail != 0 {
		set[len(set)-1] = 1<<tail - 1
	}
}

func mark(set []uint64, l int)   { set[l>>6] |= 1 << (uint(l) & 63) }
func unmark(set []uint64, l int) { set[l>>6] &^= 1 << (uint(l) & 63) }

// lowest returns the index of the lowest set bit of word i of a bitset.
func lowest(i int, w uint64) int { return i<<6 + bits.TrailingZeros64(w) }

// wakeCalendar holds one shard's pending wake-ups: a ring of per-round
// doubly linked lists threaded through per-node links, so registering,
// replacing and collecting a wake-up each cost O(1) and allocate
// nothing. A node sits in at most one list, the slot of its registered
// round. A run longer than the ring reuses slots; draining a slot leaves
// the later laps' nodes in place.
type wakeCalendar struct {
	head []int32 // per ring slot: first node + 1, 0 = empty
	link []wakeLink
}

// wakeLink is one node's calendar entry. Node indexes are shard-local
// and stored + 1 so that 0 is the nil link.
type wakeLink struct {
	next, prev int32
	at         int // registered wake-up round, 0 = none
}

// maxWakeSlots caps the ring: runs of up to this many rounds never share
// a slot between two rounds.
const maxWakeSlots = 1 << 12

func newWakeCalendar(size, maxRounds int) wakeCalendar {
	slots := 1
	for slots <= maxRounds && slots < maxWakeSlots {
		slots <<= 1
	}
	return wakeCalendar{head: make([]int32, slots), link: make([]wakeLink, size)}
}

// set registers node l's next wake-up, replacing any earlier one; round
// 0 clears it.
func (c *wakeCalendar) set(l, round int) {
	e := &c.link[l]
	if e.at == round {
		return
	}
	if e.at != 0 {
		c.unlink(l)
	}
	e.at = round
	if round == 0 {
		return
	}
	slot := round & (len(c.head) - 1)
	e.prev = 0
	e.next = c.head[slot]
	if e.next != 0 {
		c.link[e.next-1].prev = int32(l + 1)
	}
	c.head[slot] = int32(l + 1)
}

func (c *wakeCalendar) unlink(l int) {
	e := &c.link[l]
	if e.prev != 0 {
		c.link[e.prev-1].next = e.next
	} else {
		c.head[e.at&(len(c.head)-1)] = e.next
	}
	if e.next != 0 {
		c.link[e.next-1].prev = e.prev
	}
}

// drain marks in set every node whose wake-up is due in round and
// removes it from the calendar.
func (c *wakeCalendar) drain(round int, set []uint64) {
	for x := c.head[round&(len(c.head)-1)]; x != 0; {
		l := int(x - 1)
		x = c.link[l].next
		if c.link[l].at == round {
			c.set(l, 0)
			mark(set, l)
		}
	}
}
