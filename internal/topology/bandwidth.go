package topology

import "math"

// Bandwidths gives the per-tier link bandwidth of the fabric, in GB/s.
// A checkpoint moving between two blocks crosses the slowest link of the
// smallest subtree containing both, so the transfer level (TransferLevel)
// picks which of these applies. throughput.Estimator.CostModel fills it
// from the hardware's link table (model.DefaultA100 for both hosts).
type Bandwidths struct {
	// NVLinkGBps is the intra-socket link (LevelSocket).
	NVLinkGBps float64
	// PCIeGBps is the cross-socket, intra-server link (LevelServer).
	PCIeGBps float64
	// NICGBps is the cross-server, intra-rack link (LevelRack).
	NICGBps float64
	// CrossRackGBps is the ToR uplink (LevelCluster).
	CrossRackGBps float64
}

// AtLevel returns the bandwidth of the link a transfer crossing the given
// tier is bottlenecked on. LevelGPU means the bytes never leave the device
// (or the tier is unmodeled, bandwidth ≤ 0), so the transfer is free:
// +Inf keeps bytes/bw at zero without a special case in callers.
func (bw Bandwidths) AtLevel(l Level) float64 {
	var g float64
	switch l {
	case LevelSocket:
		g = bw.NVLinkGBps
	case LevelServer:
		g = bw.PCIeGBps
	case LevelRack:
		g = bw.NICGBps
	case LevelCluster:
		g = bw.CrossRackGBps
	default: // LevelGPU: no link crossed
		return math.Inf(1)
	}
	if g <= 0 {
		return math.Inf(1)
	}
	return g
}

// TransferLevel returns the topology tier a checkpoint crosses when a job
// moves from one block to another: the level of the smallest buddy-aligned
// container holding both. Identical blocks (an in-place rescale) cross no
// link and report LevelGPU.
func TransferLevel(cfg Config, from, to Block) Level {
	if from == to {
		return LevelGPU
	}
	cfg.applyDefaults()
	lo := min(from.Start, to.Start)
	hi := max(from.End(), to.End())
	size := max(from.Size, to.Size)
	if size < 1 {
		size = 1
	}
	total := cfg.Servers * cfg.GPUsPerServer
	// Grow the container until one aligned block of that size spans both
	// endpoints. Buddy alignment guarantees this terminates at the root.
	for size < total && lo/size != (hi-1)/size {
		size *= 2
	}
	switch {
	case size <= 1:
		return LevelGPU
	case size <= cfg.GPUsPerSocket:
		return LevelSocket
	case size <= cfg.GPUsPerServer:
		return LevelServer
	case size <= cfg.GPUsPerServer*cfg.ServersPerRack:
		return LevelRack
	default:
		return LevelCluster
	}
}
