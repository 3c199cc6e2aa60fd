package netsim

// Struct-of-arrays inbox storage. The engine used to keep one
// independently grown []Delivery per node and rotate n slice headers at
// every round barrier; at n in the hundreds of thousands the headers
// alone span megabytes and every delivery append touches a random one,
// so the delivery phase degenerated into cache misses. A shardInbox
// replaces the per-node slices with one contiguous, reusable buffer per
// receiver shard, partitioned by receiver: node u's inbox for the round
// is buf[off[u-lo] : cur[u-lo]]. The buffer is rebuilt every round by a
// stable two-pass counting sort over the routing buckets, which visits
// memory strictly linearly and assigns offsets only to the round's
// active nodes (see wake.go), and its backing array is an arena owned by
// the shard — grown geometrically to the run's high-water mark and then
// reused round after round, so the steady state allocates nothing at any
// n.
type shardInbox struct {
	// lo is the first node of the shard; the offset tables are indexed
	// by u-lo.
	lo int
	// buf holds the shard's deliveries for the current round, grouped by
	// receiver in ascending (sender, outbox index) order — exactly the
	// order the per-node slices used to accumulate.
	buf []Delivery
	// off and cur partition buf: node l's inbox starts at off[l] and ends
	// at cur[l]. cur first counts deliveries, then serves as the
	// placement cursor. Both are zero for every node between rounds (the
	// step pass resets the nodes it visits), so a node with no mail gets
	// an empty inbox without being touched.
	off, cur []int32
}

func newShardInbox(lo, hi int) shardInbox {
	return shardInbox{
		lo:  lo,
		off: make([]int32, hi-lo),
		cur: make([]int32, hi-lo),
	}
}

// slice returns node u's inbox for the current round. u must belong to
// this shard.
func (ib *shardInbox) slice(u int) []Delivery {
	l := u - ib.lo
	return ib.buf[ib.off[l]:ib.cur[l]]
}

// reset returns node u's offsets to the between-rounds zero state.
func (ib *shardInbox) reset(u int) {
	l := u - ib.lo
	ib.off[l], ib.cur[l] = 0, 0
}

// growDeliveries returns the arena resized to hold n deliveries,
// reallocating only when n exceeds the high-water capacity. Growth
// doubles so a warming-up run settles after O(log n) allocations; after
// that the same backing array is reused every round.
func growDeliveries(buf []Delivery, n int) []Delivery {
	if n <= cap(buf) {
		return buf[:n]
	}
	c := 2 * cap(buf)
	if c < n {
		c = n
	}
	return make([]Delivery, n, c)
}
