package topology

import (
	"fmt"
	"sort"
)

// refCluster is the buddy allocator as it was before placement looked up
// containers by alignment and compacted in place: free lists in a map keyed
// by block size, the free-GPU count summed over the owned blocks, canPlaceAt
// scanning every free block, and refCompact rebuilding a whole fresh cluster.
// It is the oracle FuzzCompact holds Cluster to: the same operations must
// give the same blocks, errors, migrations, placements and free lists.
type refCluster struct {
	cfg   Config
	free  map[int][]int
	owned map[string]Block
}

func newRefCluster(cfg Config) *refCluster {
	cfg.applyDefaults()
	r := &refCluster{cfg: cfg, free: make(map[int][]int), owned: make(map[string]Block)}
	r.free[r.total()] = []int{0}
	return r
}

func (r *refCluster) total() int { return r.cfg.Servers * r.cfg.GPUsPerServer }

func (r *refCluster) freeGPUs() int {
	n := r.total()
	for _, b := range r.owned {
		n -= b.Size
	}
	return n
}

func (r *refCluster) largestFreeBlock() int {
	best := 0
	for size, starts := range r.free {
		if len(starts) > 0 && size > best {
			best = size
		}
	}
	return best
}

func (r *refCluster) allocate(jobID string, n int) (Block, error) {
	if !IsPowerOfTwo(n) {
		return Block{}, fmt.Errorf("topology: allocation size %d is not a power of two", n)
	}
	if n > r.total() {
		return Block{}, fmt.Errorf("topology: allocation size %d exceeds cluster capacity %d", n, r.total())
	}
	if _, ok := r.owned[jobID]; ok {
		return Block{}, fmt.Errorf("topology: job %q already holds an allocation", jobID)
	}
	b, ok := r.takeBlock(n)
	if !ok {
		return Block{}, fmt.Errorf("topology: no contiguous buddy block of %d GPUs (free=%d): fragmentation", n, r.freeGPUs())
	}
	r.owned[jobID] = b
	return b, nil
}

func (r *refCluster) takeBlock(n int) (Block, bool) {
	b, ok := r.pickBlock(n)
	if !ok {
		return Block{}, false
	}
	starts := r.free[b.Size]
	i := sort.SearchInts(starts, b.Start)
	r.free[b.Size] = append(starts[:i], starts[i+1:]...)
	size := b.Size
	for size > n {
		size /= 2
		r.insertFree(Block{Start: b.Start + size, Size: size})
	}
	return Block{Start: b.Start, Size: n}, true
}

func (r *refCluster) pickBlock(n int) (Block, bool) {
	switch r.cfg.Policy {
	case WorstFit:
		for size := r.total(); size >= n; size /= 2 {
			if starts := r.free[size]; len(starts) > 0 {
				return Block{Start: starts[0], Size: size}, true
			}
		}
	case FirstFit:
		best := Block{Start: -1}
		for size := n; size <= r.total(); size *= 2 {
			if starts := r.free[size]; len(starts) > 0 {
				if best.Start < 0 || starts[0] < best.Start {
					best = Block{Start: starts[0], Size: size}
				}
			}
		}
		if best.Start >= 0 {
			return best, true
		}
	default:
		for size := n; size <= r.total(); size *= 2 {
			if starts := r.free[size]; len(starts) > 0 {
				return Block{Start: starts[0], Size: size}, true
			}
		}
	}
	return Block{}, false
}

func (r *refCluster) release(jobID string) error {
	b, ok := r.owned[jobID]
	if !ok {
		return fmt.Errorf("topology: job %q holds no allocation", jobID)
	}
	delete(r.owned, jobID)
	r.insertFree(b)
	return nil
}

func (r *refCluster) insertFree(b Block) {
	for b.Size < r.total() {
		buddyStart := b.Start ^ b.Size
		starts := r.free[b.Size]
		i := sort.SearchInts(starts, buddyStart)
		if i >= len(starts) || starts[i] != buddyStart {
			break
		}
		r.free[b.Size] = append(starts[:i], starts[i+1:]...)
		if buddyStart < b.Start {
			b.Start = buddyStart
		}
		b.Size *= 2
	}
	starts := r.free[b.Size]
	i := sort.SearchInts(starts, b.Start)
	starts = append(starts, 0)
	copy(starts[i+1:], starts[i:])
	starts[i] = b.Start
	r.free[b.Size] = starts
}

func (r *refCluster) allocateWithMigration(jobID string, n int) (Block, []Migration, error) {
	if b, err := r.allocate(jobID, n); err == nil {
		return b, nil, nil
	}
	if !IsPowerOfTwo(n) {
		return Block{}, nil, fmt.Errorf("topology: allocation size %d is not a power of two", n)
	}
	if r.freeGPUs() < n {
		return Block{}, nil, fmt.Errorf("topology: %d GPUs requested but only %d free", n, r.freeGPUs())
	}
	migs, err := r.refCompact(n)
	if err != nil {
		return Block{}, nil, err
	}
	b, err := r.allocate(jobID, n)
	if err != nil {
		return Block{}, nil, fmt.Errorf("topology: internal error, compaction did not produce a block of %d GPUs: %v", n, err)
	}
	return b, migs, nil
}

// refCompact repacks every owned block, largest first, into a fresh cluster
// with the needed block reserved at the top, keeping a block where it is when
// canPlaceAt finds it free and moving it to takeBlock's choice otherwise.
func (r *refCluster) refCompact(need int) ([]Migration, error) {
	type alloc struct {
		id string
		b  Block
	}
	allocs := make([]alloc, 0, len(r.owned))
	for id, b := range r.owned {
		allocs = append(allocs, alloc{id, b})
	}
	sort.Slice(allocs, func(i, j int) bool {
		if allocs[i].b.Size != allocs[j].b.Size {
			return allocs[i].b.Size > allocs[j].b.Size
		}
		return allocs[i].b.Start < allocs[j].b.Start
	})
	fresh := newRefCluster(r.cfg)
	if err := fresh.placeAt("__reserved__", Block{Start: r.total() - need, Size: need}); err != nil {
		return nil, err
	}
	var migs []Migration
	for _, a := range allocs {
		if fresh.canPlaceAt(a.b) {
			if err := fresh.placeAt(a.id, a.b); err != nil {
				return nil, err
			}
			continue
		}
		nb, ok := fresh.takeBlock(a.b.Size)
		if !ok {
			return nil, fmt.Errorf("topology: defragmentation failed for job %q needing %d GPUs", a.id, a.b.Size)
		}
		fresh.owned[a.id] = nb
		migs = append(migs, Migration{JobID: a.id, From: a.b, To: nb})
	}
	if err := fresh.release("__reserved__"); err != nil {
		return nil, err
	}
	r.free = fresh.free
	r.owned = fresh.owned
	return migs, nil
}

// canPlaceAt reports whether b is free by scanning every free block for one
// that contains it.
func (r *refCluster) canPlaceAt(b Block) bool {
	for size, starts := range r.free {
		if size < b.Size {
			continue
		}
		for _, s := range starts {
			fb := Block{Start: s, Size: size}
			if b.Start >= fb.Start && b.End() <= fb.End() {
				return true
			}
		}
	}
	return false
}

func (r *refCluster) placeAt(jobID string, b Block) error {
	if !r.canPlaceAt(b) {
		return fmt.Errorf("topology: block %v is not free", b)
	}
	for size := b.Size; size <= r.total(); size *= 2 {
		containerStart := b.Start &^ (size - 1)
		starts := r.free[size]
		i := sort.SearchInts(starts, containerStart)
		if i < len(starts) && starts[i] == containerStart {
			r.free[size] = append(starts[:i], starts[i+1:]...)
			cur := Block{Start: containerStart, Size: size}
			for cur.Size > b.Size {
				cur.Size /= 2
				lower := cur
				upper := Block{Start: cur.Start + cur.Size, Size: cur.Size}
				if b.Start >= upper.Start {
					r.insertFree(lower)
					cur = upper
				} else {
					r.insertFree(upper)
				}
			}
			r.owned[jobID] = b
			return nil
		}
	}
	return fmt.Errorf("topology: block %v vanished during placement", b)
}

func (r *refCluster) reserve(id string, b Block) error {
	if _, ok := r.owned[id]; ok {
		return fmt.Errorf("topology: %q already holds an allocation", id)
	}
	if !IsPowerOfTwo(b.Size) || b.Start%b.Size != 0 {
		return fmt.Errorf("topology: block %v is not buddy-aligned", b)
	}
	return r.placeAt(id, b)
}

// freeLists returns r's free lists with the empty ones dropped.
func (r *refCluster) freeLists() map[int][]int {
	out := make(map[int][]int)
	for size, starts := range r.free {
		if len(starts) > 0 {
			out[size] = starts
		}
	}
	return out
}

// freeLists returns c's free lists keyed by block size, the empty ones
// dropped, in the form refCluster keeps them.
func freeLists(c *Cluster) map[int][]int {
	out := make(map[int][]int)
	for k, starts := range c.free {
		if len(starts) > 0 {
			out[1<<k] = starts
		}
	}
	return out
}
