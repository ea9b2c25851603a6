// Package topology models the GPU cluster fabric of §4.3: a multi-layer
// hierarchical tree of GPUs connected by links of decreasing bandwidth
// (NVLink within a socket, PCIe/QPI across sockets, InfiniBand across
// servers, ToR uplinks across racks), plus the buddy allocator that
// ElasticFlow uses to place power-of-two jobs without fragmentation.
//
// GPUs are identified by a global index. Buddy blocks are aligned to their
// size, so a block of size ≤ GPUsPerServer never straddles a server
// boundary: buddy allocation automatically yields the highest-bandwidth
// placement for its size, which is what lets the scheduler decouple
// placement from admission control and resource allocation (§4.3).
package topology

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Level identifies a tier of the topology tree, ordered by decreasing
// bandwidth. A placement's level is the highest tier its workers must cross.
type Level int

// Topology tiers, from a single GPU up to the cross-rack fabric (Fig. 5).
const (
	LevelGPU     Level = iota // single GPU, no communication
	LevelSocket               // GPUs under one CPU socket (NVLink)
	LevelServer               // GPUs across sockets in one server (PCIe/QPI)
	LevelRack                 // servers in one rack (InfiniBand)
	LevelCluster              // racks (ToR uplinks)
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelGPU:
		return "gpu"
	case LevelSocket:
		return "socket"
	case LevelServer:
		return "server"
	case LevelRack:
		return "rack"
	case LevelCluster:
		return "cluster"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// AllocPolicy selects which free block a request splits when several could
// satisfy it. The paper uses Best-Fit (§4.3, citing Shore '75); the
// alternatives exist for the placement ablation.
type AllocPolicy int

// Placement policies.
const (
	// BestFit splits the smallest sufficient free block (lowest address
	// within a size class) — the paper's choice: the job lands in the
	// subtree whose idle GPU count is closest to its need.
	BestFit AllocPolicy = iota
	// FirstFit splits the lowest-addressed sufficient free block
	// regardless of size.
	FirstFit
	// WorstFit splits the largest free block.
	WorstFit
)

// String implements fmt.Stringer.
func (p AllocPolicy) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes the physical layout of a cluster.
type Config struct {
	// Servers is the number of servers. Must be a power of two.
	Servers int
	// GPUsPerServer is the number of GPUs per server. Must be a power of
	// two. The paper's testbed uses 8.
	GPUsPerServer int
	// GPUsPerSocket is the number of GPUs attached to one CPU socket.
	// Defaults to GPUsPerServer/2 (the two-socket server of Fig. 5).
	GPUsPerSocket int
	// ServersPerRack groups servers into racks. Defaults to Servers
	// (a single rack). Must be a power of two.
	ServersPerRack int
	// Policy selects the free-block heuristic (default BestFit, §4.3).
	Policy AllocPolicy
}

func (c *Config) applyDefaults() {
	if c.GPUsPerSocket == 0 {
		c.GPUsPerSocket = c.GPUsPerServer / 2
		if c.GPUsPerSocket == 0 {
			c.GPUsPerSocket = 1
		}
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = c.Servers
	}
}

func (c Config) validate() error {
	if c.Servers <= 0 || c.GPUsPerServer <= 0 {
		return fmt.Errorf("topology: config must have positive servers and GPUs per server, got %d×%d", c.Servers, c.GPUsPerServer)
	}
	for _, v := range []struct {
		name string
		n    int
	}{
		{"Servers", c.Servers},
		{"GPUsPerServer", c.GPUsPerServer},
		{"GPUsPerSocket", c.GPUsPerSocket},
		{"ServersPerRack", c.ServersPerRack},
	} {
		if !IsPowerOfTwo(v.n) {
			return fmt.Errorf("topology: %s must be a power of two, got %d", v.name, v.n)
		}
	}
	if c.GPUsPerSocket > c.GPUsPerServer {
		return fmt.Errorf("topology: GPUsPerSocket %d exceeds GPUsPerServer %d", c.GPUsPerSocket, c.GPUsPerServer)
	}
	if c.ServersPerRack > c.Servers {
		return fmt.Errorf("topology: ServersPerRack %d exceeds Servers %d", c.ServersPerRack, c.Servers)
	}
	return nil
}

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two ≥ n (n ≥ 1).
func NextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// PrevPowerOfTwo returns the largest power of two ≤ n (n ≥ 1).
func PrevPowerOfTwo(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Block is a buddy-aligned range of GPUs: Start is a multiple of Size and
// Size is a power of two.
type Block struct {
	Start int
	Size  int
}

// End returns the exclusive upper GPU index of the block.
func (b Block) End() int { return b.Start + b.Size }

// Contains reports whether gpu lies inside the block.
func (b Block) Contains(gpu int) bool { return gpu >= b.Start && gpu < b.End() }

// Overlaps reports whether two blocks share any GPU.
func (b Block) Overlaps(o Block) bool { return b.Start < o.End() && o.Start < b.End() }

// String implements fmt.Stringer.
func (b Block) String() string { return fmt.Sprintf("[%d,%d)", b.Start, b.End()) }

// Cluster tracks allocation state over the topology. It is not safe for
// concurrent use; callers (the scheduler, the simulator) serialize access.
type Cluster struct {
	cfg Config
	// free[k] holds the sorted starts of the free blocks of size 1<<k. Free
	// blocks are buddy-aligned, so the free block that contains an aligned
	// block, if any, is at a known start in each size class.
	free [][]int
	// owned maps job ID → its block.
	owned map[string]Block
	// nfree is the number of GPUs in free blocks.
	nfree int
}

// New creates a cluster with all GPUs free.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	total := cfg.Servers * cfg.GPUsPerServer
	c := &Cluster{
		cfg:   cfg,
		free:  make([][]int, sizeClass(total)+1),
		owned: make(map[string]Block),
		nfree: total,
	}
	c.free[sizeClass(total)] = []int{0}
	return c, nil
}

// sizeClass is the index into Cluster.free of the power-of-two size.
func sizeClass(size int) int { return bits.TrailingZeros(uint(size)) }

// Config returns the cluster layout.
func (c *Cluster) Config() Config { return c.cfg }

// TotalGPUs returns the cluster capacity.
func (c *Cluster) TotalGPUs() int { return c.cfg.Servers * c.cfg.GPUsPerServer }

// FreeGPUs returns the number of unallocated GPUs.
func (c *Cluster) FreeGPUs() int { return c.nfree }

// Placement returns the block owned by jobID, if any.
func (c *Cluster) Placement(jobID string) (Block, bool) {
	b, ok := c.owned[jobID]
	return b, ok
}

// Placements returns a copy of the job → block map.
func (c *Cluster) Placements() map[string]Block {
	out := make(map[string]Block, len(c.owned))
	for id, b := range c.owned {
		out[id] = b
	}
	return out
}

// Level returns the topology tier a block of the given size and alignment
// occupies: the smallest tier that fully contains it.
func (c *Cluster) Level(b Block) Level {
	switch {
	case b.Size <= 1:
		return LevelGPU
	case b.Size <= c.cfg.GPUsPerSocket:
		return LevelSocket
	case b.Size <= c.cfg.GPUsPerServer:
		return LevelServer
	case b.Size <= c.cfg.GPUsPerServer*c.cfg.ServersPerRack:
		return LevelRack
	default:
		return LevelCluster
	}
}

// Shape returns the number of GPUs the block occupies on each server it
// touches, e.g. a 16-GPU block on 8-GPU servers has shape [8 8].
func (c *Cluster) Shape(b Block) []int {
	per := c.cfg.GPUsPerServer
	firstServer := b.Start / per
	lastServer := (b.End() - 1) / per
	shape := make([]int, 0, lastServer-firstServer+1)
	for s := firstServer; s <= lastServer; s++ {
		lo := max(b.Start, s*per)
		hi := min(b.End(), (s+1)*per)
		shape = append(shape, hi-lo)
	}
	return shape
}

// Allocate reserves a buddy block of n GPUs (n must be a power of two) for
// jobID. It fails if the job already holds a block or if no free block of
// size n exists, even when enough scattered GPUs are free; use
// AllocateWithMigration to defragment in that case.
func (c *Cluster) Allocate(jobID string, n int) (Block, error) {
	if !IsPowerOfTwo(n) {
		return Block{}, fmt.Errorf("topology: allocation size %d is not a power of two", n)
	}
	if n > c.TotalGPUs() {
		return Block{}, fmt.Errorf("topology: allocation size %d exceeds cluster capacity %d", n, c.TotalGPUs())
	}
	if _, ok := c.owned[jobID]; ok {
		return Block{}, fmt.Errorf("topology: job %q already holds an allocation", jobID)
	}
	b, ok := c.takeBlock(n)
	if !ok {
		return Block{}, fmt.Errorf("topology: no contiguous buddy block of %d GPUs (free=%d): fragmentation", n, c.FreeGPUs())
	}
	c.own(jobID, b)
	return b, nil
}

// own records b, already taken out of the free lists, as jobID's block.
func (c *Cluster) own(jobID string, b Block) {
	c.owned[jobID] = b
	c.nfree -= b.Size
}

// takeBlock removes and returns a free block of exactly size n, splitting a
// larger block chosen by the configured policy. Within a size class the
// lowest-addressed block is used, keeping allocation deterministic.
func (c *Cluster) takeBlock(n int) (Block, bool) {
	b, ok := c.pickBlock(n)
	if !ok {
		return Block{}, false
	}
	c.removeFree(b)
	// Split down to the requested size, freeing the upper buddy halves.
	size := b.Size
	for size > n {
		size /= 2
		c.insertFree(Block{Start: b.Start + size, Size: size})
	}
	return Block{Start: b.Start, Size: n}, true
}

// pickBlock selects the free block to split for an n-GPU request.
func (c *Cluster) pickBlock(n int) (Block, bool) {
	switch c.cfg.Policy {
	case WorstFit:
		for k := len(c.free) - 1; k >= sizeClass(n); k-- {
			if starts := c.free[k]; len(starts) > 0 {
				return Block{Start: starts[0], Size: 1 << k}, true
			}
		}
	case FirstFit:
		best := Block{Start: -1}
		for k := sizeClass(n); k < len(c.free); k++ {
			if starts := c.free[k]; len(starts) > 0 {
				if best.Start < 0 || starts[0] < best.Start {
					best = Block{Start: starts[0], Size: 1 << k}
				}
			}
		}
		if best.Start >= 0 {
			return best, true
		}
	default: // BestFit
		for k := sizeClass(n); k < len(c.free); k++ {
			if starts := c.free[k]; len(starts) > 0 {
				return Block{Start: starts[0], Size: 1 << k}, true
			}
		}
	}
	return Block{}, false
}

// Release frees the block held by jobID, coalescing buddies.
func (c *Cluster) Release(jobID string) error {
	b, ok := c.owned[jobID]
	if !ok {
		return fmt.Errorf("topology: job %q holds no allocation", jobID)
	}
	delete(c.owned, jobID)
	c.nfree += b.Size
	c.insertFree(b)
	return nil
}

// removeFree takes the block b, which must be free, off its free list.
func (c *Cluster) removeFree(b Block) {
	k := sizeClass(b.Size)
	i, _ := slices.BinarySearch(c.free[k], b.Start)
	c.free[k] = slices.Delete(c.free[k], i, i+1)
}

// insertFree adds a block to the free lists, merging it with its buddy
// repeatedly while possible.
func (c *Cluster) insertFree(b Block) {
	for b.Size < c.TotalGPUs() {
		buddyStart := b.Start ^ b.Size
		k := sizeClass(b.Size)
		i, found := slices.BinarySearch(c.free[k], buddyStart)
		if !found {
			break
		}
		c.free[k] = slices.Delete(c.free[k], i, i+1)
		b.Start = min(b.Start, buddyStart)
		b.Size *= 2
	}
	k := sizeClass(b.Size)
	i, _ := slices.BinarySearch(c.free[k], b.Start)
	c.free[k] = slices.Insert(c.free[k], i, b.Start)
}

// Migration records a job relocation performed during defragmentation.
type Migration struct {
	JobID string
	From  Block
	To    Block
}

// AllocateWithMigration reserves n GPUs for jobID, migrating existing jobs
// if the free space is fragmented. With power-of-two sizes this always
// succeeds when FreeGPUs() ≥ n — the defragmentation guarantee of §4.3.
// The returned migrations list the jobs that moved (possibly empty).
func (c *Cluster) AllocateWithMigration(jobID string, n int) (Block, []Migration, error) {
	if !IsPowerOfTwo(n) {
		return Block{}, nil, fmt.Errorf("topology: allocation size %d is not a power of two", n)
	}
	if _, held := c.owned[jobID]; !held && n <= c.TotalGPUs() {
		if b, ok := c.takeBlock(n); ok {
			c.own(jobID, b)
			return b, nil, nil
		}
	}
	if c.FreeGPUs() < n {
		return Block{}, nil, fmt.Errorf("topology: %d GPUs requested but only %d free", n, c.FreeGPUs())
	}
	migs := c.compact(n)
	b, err := c.Allocate(jobID, n)
	if err != nil {
		// Cannot happen: compaction proved a block of size n free.
		return Block{}, nil, fmt.Errorf("topology: internal error, compaction did not produce a block of %d GPUs: %v", n, err)
	}
	return b, migs, nil
}

// compact repacks allocations so that a free buddy block of size need
// exists; at least need GPUs must be free. Blocks are replaced largest-first
// into an empty buddy space, keeping each at its current address when
// possible so that only the minimum of jobs migrate. The repack is replayed
// on the free lists alone; only the jobs that move have their block
// rewritten.
func (c *Cluster) compact(need int) []Migration {
	type alloc struct {
		id string
		b  Block
	}
	allocs := make([]alloc, 0, len(c.owned))
	for id, b := range c.owned {
		allocs = append(allocs, alloc{id, b})
	}
	// Largest first, then by address, so packing is tight and stable. Owned
	// blocks are disjoint, so the order is total.
	slices.SortFunc(allocs, func(x, y alloc) int {
		if x.b.Size != y.b.Size {
			return y.b.Size - x.b.Size
		}
		return x.b.Start - y.b.Start
	})

	for k := range c.free {
		c.free[k] = c.free[k][:0]
	}
	top := sizeClass(c.TotalGPUs())
	c.free[top] = append(c.free[top], 0)
	// Reserve the needed block first at the top of the address space so
	// existing low-address jobs tend to stay in place.
	reserved := Block{Start: c.TotalGPUs() - need, Size: need}
	c.carve(reserved)
	var migs []Migration
	for _, a := range allocs {
		if c.carve(a.b) {
			continue
		}
		// Cannot fail while FreeGPUs() ≥ need, the §4.3 guarantee: blocks
		// are placed largest first, so every one placed so far but the
		// reserved block fills whole aligned units of a.b.Size, and the
		// GPUs not yet placed, a's included, leave one such unit free.
		nb, ok := c.takeBlock(a.b.Size)
		if !ok {
			panic(fmt.Sprintf("topology: defragmentation found no block of %d GPUs for job %q", a.b.Size, a.id))
		}
		c.owned[a.id] = nb
		migs = append(migs, Migration{JobID: a.id, From: a.b, To: nb})
	}
	c.insertFree(reserved)
	return migs
}

// container returns the free block that contains the buddy-aligned block b,
// if b is free: free blocks are buddy-aligned too, so at each size the only
// candidate is the one starting at b.Start rounded down to that size.
func (c *Cluster) container(b Block) (Block, bool) {
	for k := sizeClass(b.Size); k < len(c.free); k++ {
		start := b.Start &^ (1<<k - 1)
		if _, found := slices.BinarySearch(c.free[k], start); found {
			return Block{Start: start, Size: 1 << k}, true
		}
	}
	return Block{}, false
}

// carve takes the buddy-aligned block b out of the free space if it is free:
// its containing free block is split down to b, the halves not holding b
// going back to the free lists. It reports whether b was free.
func (c *Cluster) carve(b Block) bool {
	cur, ok := c.container(b)
	if !ok {
		return false
	}
	c.removeFree(cur)
	for cur.Size > b.Size {
		cur.Size /= 2
		upper := Block{Start: cur.Start + cur.Size, Size: cur.Size}
		if b.Start >= upper.Start {
			c.insertFree(cur)
			cur = upper
		} else {
			c.insertFree(upper)
		}
	}
	return true
}

// ServerBlock returns the block covering all GPUs of one server.
func (c *Cluster) ServerBlock(server int) (Block, error) {
	if server < 0 || server >= c.cfg.Servers {
		return Block{}, fmt.Errorf("topology: server %d out of range [0,%d)", server, c.cfg.Servers)
	}
	return Block{Start: server * c.cfg.GPUsPerServer, Size: c.cfg.GPUsPerServer}, nil
}

// JobsOn returns the IDs of jobs whose placement overlaps b, sorted.
func (c *Cluster) JobsOn(b Block) []string {
	var ids []string
	for id, owned := range c.owned {
		if owned.Overlaps(b) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Reserve claims the exact block b for id (e.g. to model a failed server,
// §4.4). The block must be entirely free; evict overlapping jobs first.
func (c *Cluster) Reserve(id string, b Block) error {
	if _, ok := c.owned[id]; ok {
		return fmt.Errorf("topology: %q already holds an allocation", id)
	}
	if !IsPowerOfTwo(b.Size) || b.Start%b.Size != 0 {
		return fmt.Errorf("topology: block %v is not buddy-aligned", b)
	}
	if !c.carve(b) {
		return fmt.Errorf("topology: block %v is not free", b)
	}
	c.own(id, b)
	return nil
}

// LargestFreeBlock returns the size of the largest currently free buddy
// block (0 when the cluster is full).
func (c *Cluster) LargestFreeBlock() int {
	for k := len(c.free) - 1; k >= 0; k-- {
		if len(c.free[k]) > 0 {
			return 1 << k
		}
	}
	return 0
}

// FragmentedGPUs returns the number of free GPUs that are not part of the
// largest free block — a measure of external fragmentation.
func (c *Cluster) FragmentedGPUs() int {
	return c.FreeGPUs() - c.LargestFreeBlock()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
