package frontdoor

import "hash/fnv"

// homeShard returns a tenant's deterministic home shard: FNV-1a over the
// tenant name, mod the shard count. Every front-door replica computes the
// same routing with no coordination, which is what keeps the admission tier
// stateless.
func homeShard(tenant string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(shards))
}

// pickShard applies the cross-shard fairness rebalancer: the submission
// stays on its home shard while that shard keeps at least rebalanceBelow of
// its capacity spare; once the home partition runs hot, the submission
// spills to the shard with the most spare GPUs, ties broken by lowest index
// so routing stays deterministic. Returns the chosen shard and whether it
// differs from home.
func pickShard(home int, free, total []int, rebalanceBelow float64) (int, bool) {
	if total[home] > 0 && float64(free[home])/float64(total[home]) >= rebalanceBelow {
		return home, false
	}
	best, bestFree := home, -1
	for k, f := range free {
		if f > bestFree {
			best, bestFree = k, f
		}
	}
	return best, best != home
}
